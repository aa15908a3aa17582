"""Call spans recorded from outside mutspect, by wrapping module attributes.

A wrapper is installed under the name that the *caller* looks up: a module
that did ``from .spectra import mutant_spectra`` calls its own global, so the
wrapper goes on that module, not on ``mutspect.spectra``.  Wrappers exist only
inside ``with Tracer(...)``; untraced passes run the original functions.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


def _graph_arg(args, kwargs, result):
    return args[0] if args else kwargs.get("graph")


# (module whose global is replaced, attribute, span name, note taken from the call)
TARGETS = (
    ("mutspect.pipeline", "stratified_sample", "stratified_sample", lambda a, k, r: len(r)),
    ("mutspect.pipeline", "mutant_spectra", "mutant_spectra", lambda a, k, r: len(r.failed)),
    ("mutspect.pipeline", "build_similarity_graph", "build_similarity_graph",
     lambda a, k, r: r.n_nodes),
    ("mutspect.pipeline", "parameter_search", "parameter_search", None),
    ("mutspect.pipeline", "hac_cluster", "hac_cluster", _graph_arg),
    ("mutspect.clustering", "hac_cluster", "hac_cluster", _graph_arg),
    ("mutspect.pipeline", "select_representatives", "select_representatives", None),
    ("mutspect.pipeline", "vanilla_test", "vanilla_test", None),
    ("mutspect.pipeline", "accelerated_test", "accelerated_test", None),
    ("mutspect.spectra", "batch_outputs", "batch_outputs", None),
    ("mutspect.testing", "predictions_with_flags", "predictions_with_flags", None),
    ("mutspect.cli", "load_dataset", "load_dataset", None),
    ("mutspect.cli", "load_manifest", "load_manifest", None),
    ("mutspect.cli", "write_json", "write_json", None),
    ("mutspect.cli", "write_verdict_csv", "write_verdict_csv", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    note: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, note."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, note in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, note))
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. the root of one operation."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts over empty."""
        spans, self.spans = self.spans, []
        return spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index].note = note(args, kwargs, result)
            return result

        return traced


def layer_figures(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts of one operation's spans.

    A span's self time is its duration minus that of its direct children.
    ``clustering.merge_s`` is the first ``hac_cluster`` call on each graph
    object (it builds the merge sequence); the other calls are cuts.
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    fig: dict[str, float] = defaultdict(float)
    graphs_seen: list = []
    for span, children in zip(spans, child_seconds):
        own = span.seconds - children
        name = span.name
        if name == "stratified_sample":
            fig["spectra.sample_s"] += own
            fig["spectra.sample_points"] += span.note
        elif name == "mutant_spectra":
            fig["spectra.signatures_s"] += own
            fig["spectra.quarantined"] += span.note
        elif name == "batch_outputs":
            fig["model.batch_outputs_s"] += own
        elif name == "build_similarity_graph":
            fig["spectra.graph_s"] += own
            fig["spectra.graphs_built"] += 1
            fig["spectra.graph_mib"] += span.note * span.note * 8 / 2**20
        elif name == "hac_cluster":
            fig["clustering.cut_calls"] += 1
            if any(graph is span.note for graph in graphs_seen):
                fig["clustering.cut_s"] += own
            else:
                graphs_seen.append(span.note)
                fig["clustering.merge_s"] += own
        elif name == "select_representatives":
            fig["clustering.select_s"] += own
        elif name == "parameter_search":
            fig["pipeline.search_self_s"] += own
        elif name == "vanilla_test":
            fig["testing.vanilla_test_s"] += span.seconds
        elif name == "accelerated_test":
            fig["testing.accelerated_test_s"] += span.seconds
        elif name == "predictions_with_flags":
            fig["model.predict_s"] += own
        elif name == "load_dataset":
            fig["dataset.load_s"] += own
        elif name == "load_manifest":
            fig["mutants.manifest_load_s"] += own
        elif name in ("write_json", "write_verdict_csv"):
            fig["reports.write_s"] += own
    return dict(fig)
