"""Kill analysis, vanilla and representative-propagated mutation testing.

Two kill semantics coexist and are computed in one pass per mutant:

* label-kill counts: |killingLabels(mutant)| where a point kills a mutant iff
  the original predicts the point's label correctly and the mutant does not.
  The mutation score is sum(counts) / (|M| * |L|).
* classical killed/survived: a mutant survives iff its predicted class
  matches the original's on every test point (class-level match; float-exact
  softmax comparison would leave no survivors).

Mutants whose outputs go non-finite on a point are treated as mispredicting
that point (an exploded mutant is maximally different) and the event is
logged.

vanilla_test walks the test set in row blocks (model.forward_blocks) with the
original as the first model: the original runs once per block, and each
mutant resumes from the original's cached activation at its first changed
layer.  Per mutant it accumulates the killed labels, whether any prediction
differs from the original's, and the count of non-finite rows; verdicts and
warnings follow in id order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import UndefinedScoreError, ValidationError
from .model import FcnnClassifier, forward_blocks, predicted_classes, predictions_with_flags
from .mutants import MutantSet
from .util import phase_timer

log = logging.getLogger(__name__)

TESTED = "tested"
PROPAGATED = "propagated"
UNTESTED = "untested"


@dataclass(frozen=True)
class MutantVerdict:
    mutant_id: int
    killing_count: int | None  # |killingLabels|; None when untested
    killed: bool | None  # classical reading: outputs differ somewhere
    provenance: str  # tested | propagated | untested
    representative_id: int | None = None

    def __post_init__(self):
        if self.provenance == PROPAGATED and self.representative_id is None:
            raise ValidationError("propagated verdicts must cite a representative")


@dataclass
class TimingRecord:
    """Wall-clock seconds per phase plus the tested-mutant count."""

    phases: dict[str, float] = field(default_factory=dict)
    tested_count: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.phases.values())


@dataclass
class VerdictTable:
    verdicts: dict[int, MutantVerdict]
    timing: TimingRecord
    mode: str
    labels: tuple[int, ...]  # label set of the dataset actually used

    def verdict(self, mutant_id: int) -> MutantVerdict:
        return self.verdicts[mutant_id]

    def tested_ids(self) -> list[int]:
        return sorted(
            m for m, v in self.verdicts.items() if v.provenance == TESTED
        )

    def counts(self) -> dict[int, int]:
        return {
            m: v.killing_count
            for m, v in sorted(self.verdicts.items())
            if v.killing_count is not None
        }


def _kills(original_preds, mutant_preds, labels) -> np.ndarray:
    """The kill rule: a point kills the mutant iff the original predicts its
    label and the mutant does not (a -1 row mispredicts every label)."""
    return (original_preds == labels) & (mutant_preds != labels)


def killing_labels(
    original: FcnnClassifier, mutant: FcnnClassifier, dataset: LabeledDataset
) -> set[int]:
    """Ground-truth labels of the points that kill the mutant."""
    original_preds = predictions_with_flags(original, dataset.features)
    mutant_preds = predictions_with_flags(mutant, dataset.features)
    kills = _kills(original_preds, mutant_preds, dataset.labels)
    return {int(label) for label in np.unique(dataset.labels[kills])}


def mutation_score(table: VerdictTable) -> float:
    """sum of killingLabels sizes over (scored mutants * label-set size).

    Untested mutants (no count) are excluded from the denominator, so for
    subset techniques the score is over the tested subset.
    """
    counts = table.counts()
    if not counts:
        raise UndefinedScoreError("no scored mutants")
    return sum(counts.values()) / (len(counts) * len(table.labels))


def vanilla_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    mode: str = "vanilla",
) -> VerdictTable:
    """Exhaustive testing: every mutant against every point of the dataset.

    This is the one tester: the subset baselines and the accelerated run
    call it on the mutants or points they select.
    """
    phases: dict[str, float] = {}
    with phase_timer(phases, "testing"):
        records = sorted(mutants.mutants, key=lambda m: m.mutant_id)
        present = dataset.labels_present()
        label_index = np.searchsorted(present, dataset.labels)
        killed = np.zeros((len(records), len(present)), dtype=bool)
        differs = np.zeros(len(records), dtype=bool)
        non_finite = np.zeros(len(records), dtype=np.int64)
        # the original runs as the first model: its outputs lead each block
        models = [original, *(r.model for r in records)]
        for rows, outputs in forward_blocks(original, models, dataset.features):
            original_preds = predicted_classes(next(outputs))
            if (original_preds == -1).any():
                raise ValidationError("original model produced non-finite outputs")
            labels = dataset.labels[rows]
            block_labels = label_index[rows]
            for k, out in enumerate(outputs):
                preds = predicted_classes(out)
                killed[k, block_labels[_kills(original_preds, preds, labels)]] = True
                differs[k] |= (preds != original_preds).any()
                non_finite[k] += np.count_nonzero(preds == -1)
        verdicts = {}
        for k, record in enumerate(records):
            if non_finite[k]:
                # -1 rows (non-finite outputs) mispredict everything by policy
                log.warning(
                    "mutant %d produced non-finite outputs on %d points; "
                    "counted as mispredictions",
                    record.mutant_id,
                    int(non_finite[k]),
                )
            verdicts[record.mutant_id] = MutantVerdict(
                record.mutant_id, int(killed[k].sum()), bool(differs[k]), TESTED
            )
    timing = TimingRecord(phases, tested_count=len(verdicts))
    return VerdictTable(verdicts, timing, mode, tuple(int(l) for l in present))


def accelerated_test(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    representatives,
    quarantined=(),
    overhead: dict | None = None,
    mode: str = "spectral",
) -> VerdictTable:
    """Full-dataset testing for representatives only; members inherit verdicts.

    The representative's killing count and classical status are copied
    verbatim to every member of its cluster.  Quarantined mutants bypass
    clustering and are always tested individually.  ``overhead`` phase times
    (sampling, spectra, graph, clustering, search) are folded into the
    timing record so total time reflects the whole accelerated run.
    """
    tested_ids = sorted(set(representatives.representatives()) | set(quarantined))
    tested = MutantSet(original, [mutants.by_id(m) for m in tested_ids], mutants.generation_seed)
    table = vanilla_test(original, tested, dataset, mode)
    table.timing.phases.update(overhead or {})
    for rep, members in representatives.pairs:
        base = table.verdicts[rep]
        for member in members:
            if member != rep:
                table.verdicts[member] = MutantVerdict(
                    member, base.killing_count, base.killed, PROPAGATED, rep
                )
    return table


def accuracy(model: FcnnClassifier, dataset: LabeledDataset) -> float:
    preds = predictions_with_flags(model, dataset.features)
    return float(np.mean(preds == dataset.labels))
