"""Seeded workloads: input set-up, the three operations, and their checks.

Every workload runs the same three operations on one seeded input set:
``vanilla`` (exhaustive testing), ``accelerated`` (one spectral run) and
``sweep`` (one ``run_sweep`` repeat with the vanilla table passed in), each
on every input set the seed gives, the last two once per (sampling,
representative) seed draw.  The
workloads differ in size, so that each puts most of its time into a
different layer; see README.md for why each was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mutspect as ms
from mutspect import cli
from mutspect.clustering import X_GRID
from mutspect.testing import PROPAGATED, TESTED, MutantVerdict, TimingRecord, VerdictTable

N_CLASSES = 5
DIM = 12
SPREAD = 0.3
BIAS_SHIFT = 3.0
OPS = ("vanilla", "accelerated", "sweep")


@dataclass(frozen=True)
class Workload:
    name: str
    points: int
    hidden: tuple[int, ...]
    mutants: int
    # input sets (dataset, model, mutants) built from one seed; the
    # operations run on each of them
    inputs: int
    # (sampling, representative) seed pairs per input set.  The accelerated
    # run and the sweep run once per draw; vanilla does not depend on them.
    draws: int
    sweep_x: tuple[int, ...]
    # vanilla and accelerated go through mutspect.cli.main on files written
    # during set-up, so file formats and reports are in the measured path
    via_cli: bool


# The accelerated time moves with the input set (the merge build with the
# graph's structure, testing with the number of clusters) and, less, with
# the sampled graph.  Several input sets and draws per seed average that out,
# so that the figures move little between seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cluster-bound", 2000, (16, 16), 200, 3, 1, (1,), False),
        Workload("test-bound", 5000, (64, 64, 64), 50, 3, 2, (1,), True),
        Workload("sweep", 2000, (16, 16), 100, 2, 1, X_GRID, False),
    )
}


def derived_seeds(seed: int, input_set: int, draws: int):
    """Input seeds of one input set and its ``draws`` (sampling,
    representative) pairs, all from the workload seed."""
    def state(*entropy, n):
        return [int(v) for v in np.random.SeedSequence(list(entropy)).generate_state(n, np.uint32)]

    inputs = dict(zip(("dataset", "model", "mutants"), state(seed, input_set, n=3)))
    return inputs, [ms.Seeds(*state(seed, input_set, k + 1, n=2)) for k in range(draws)]


@dataclass
class Instance:
    """The input set: inputs in memory and, for CLI workloads, on disk."""

    seeds: dict[str, int]
    draws: list[ms.Seeds]
    dataset: ms.LabeledDataset
    model: ms.FcnnClassifier
    mutants: ms.MutantSet
    workdir: Path
    files: dict[str, str] = field(default_factory=dict)


def set_up(workload: Workload, seed: int, input_set: int, workdir: Path):
    """Build one input set; returns it with the seconds of each part."""
    seeds, draws = derived_seeds(seed, input_set, workload.draws)
    t0 = time.perf_counter()
    dataset = ms.gaussian_blobs(
        workload.points, N_CLASSES, DIM, seed=seeds["dataset"], spread=SPREAD
    )
    t1 = time.perf_counter()
    model = ms.fitted_classifier(
        dataset, hidden=workload.hidden, seed=seeds["model"], bias_shift=BIAS_SHIFT
    )
    t2 = time.perf_counter()
    mutants = ms.generate_mutant_set(model, count=workload.mutants, seed=seeds["mutants"])
    t3 = time.perf_counter()
    parts = {
        "synth.blobs_s": t1 - t0,
        "synth.fit_s": t2 - t1,
        "mutants.generate_s": t3 - t2,
        "dataset.save_s": 0.0,
    }
    files = {}
    if workload.via_cli:
        workdir.mkdir(parents=True, exist_ok=True)
        files = {
            "model": str(workdir / "model.fcnn"),
            "dataset": str(workdir / "data.fdst"),
            "manifest": str(workdir / "manifest.json"),
        }
        ms.save_model(model, files["model"])
        t4 = time.perf_counter()
        ms.save_dataset(dataset, files["dataset"])
        parts["dataset.save_s"] = time.perf_counter() - t4
        ms.save_manifest(mutants, files["manifest"])
    parts["setup_s"] = time.perf_counter() - t0
    return Instance(seeds, draws, dataset, model, mutants, workdir, files), parts


# ---------------------------------------------------------------------------
# Operations.  Each returns an Outcome; the caller times the call.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    table: VerdictTable | None = None
    sweep: object = None  # SweepResult
    per_class_rates: tuple[int, ...] = ()  # one per search round
    search_iterations: int = 0
    clusters: int = 0
    cli_exit: int = 0
    cli_stderr: str = ""


def run_op(op: str, workload: Workload, inst: Instance, draw: ms.Seeds,
           vanilla: VerdictTable | None) -> Outcome:
    if op == "sweep":
        spec = ms.SweepSpec(x_grid=workload.sweep_x, repeats=1)
        return Outcome(
            sweep=ms.run_sweep(
                inst.model, inst.mutants, inst.dataset, spec, draw, vanilla=vanilla
            )
        )
    if workload.via_cli:
        return _run_cli(op, inst, draw)
    if op == "vanilla":
        return Outcome(table=ms.run_vanilla(inst.model, inst.mutants, inst.dataset).table)
    result = ms.run_accelerated(inst.model, inst.mutants, inst.dataset, seeds=draw)
    return Outcome(
        table=result.table,
        per_class_rates=tuple(r.per_class_rate for r in result.search_rounds),
        search_iterations=sum(r.iterations for r in result.search_rounds),
        clusters=len(result.clusters) if result.clusters is not None else 0,
    )


def _run_cli(op: str, inst: Instance, draw: ms.Seeds) -> Outcome:
    mode = "vanilla" if op == "vanilla" else "spectral"
    out_dir = inst.workdir / mode
    argv = [
        "run",
        "--model", inst.files["model"],
        "--dataset", inst.files["dataset"],
        "--manifest", inst.files["manifest"],
        "--mode", mode,
        "--repeats", "1",
        "--out", str(out_dir),
    ]
    if mode == "spectral":
        argv += [
            "--seed", str(draw.sampling),
            "--representative-seed", str(draw.representative),
        ]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    outcome = Outcome(cli_exit=code, cli_stderr=stderr.getvalue())
    if code != 0:
        return outcome
    report = json.loads((out_dir / f"report_{mode}_r0.json").read_text(encoding="utf-8"))
    outcome.table = _table_from_csv(out_dir / f"verdicts_{mode}_r0.csv", report, mode)
    rounds = report.get("search", {}).get("rounds", [])
    outcome.per_class_rates = tuple(r["per_class_rate"] for r in rounds)
    outcome.search_iterations = sum(r["iterations"] for r in rounds)
    outcome.clusters = report.get("clustering", {}).get("n_clusters", 0)
    return outcome


def _table_from_csv(path: Path, report: dict, mode: str) -> VerdictTable:
    """The verdict table as the CLI wrote it, read back for the checks."""
    verdicts = {}
    with open(path, newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            mutant_id = int(row["mutant_id"])
            count = None if row["killing_count"] == "N/A" else int(row["killing_count"])
            killed = None if row["status"] == "untested" else row["status"] == "killed"
            rep = None if row["representative_id"] == "N/A" else int(row["representative_id"])
            verdicts[mutant_id] = MutantVerdict(mutant_id, count, killed, row["provenance"], rep)
    timing = TimingRecord({}, tested_count=report["tested_count"])
    return VerdictTable(verdicts, timing, mode, tuple(report["labels"]))


# ---------------------------------------------------------------------------
# Checks, digests and the wasted-work census.
# ---------------------------------------------------------------------------


def check_outcome(op: str, workload: Workload, inst: Instance, outcome: Outcome,
                  vanilla: VerdictTable) -> list[str]:
    """Problems with one operation's outputs; empty when they are correct."""
    if outcome.cli_exit != 0:
        return [f"CLI exited {outcome.cli_exit}: {outcome.cli_stderr.strip()}"]
    if op == "sweep":
        cells = outcome.sweep.cells
        want = len(workload.sweep_x) * len(ms.SweepSpec().tau_grid)
        problems = [] if len(cells) == want else [f"{len(cells)} sweep cells, want {want}"]
        problems += [
            f"cell x={c.per_class_rate} tau={c.tau}: reduction rate {c.reduction_rate}"
            for c in cells
            if not 0.0 <= c.reduction_rate <= 1.0
        ]
        return problems
    table = outcome.table
    if table is None:
        return ["no verdict table"]
    ids = set(inst.mutants.ids())
    problems = []
    if set(table.verdicts) != ids:
        problems.append("verdicts do not cover exactly the mutant set")
    problems += [
        f"mutant {m} has no verdict"
        for m, v in sorted(table.verdicts.items())
        if v.killing_count is None or v.killed is None
    ]
    if op == "accelerated":
        problems += check_propagation(table, vanilla)
    return problems


def check_propagation(accel: VerdictTable, vanilla: VerdictTable) -> list[str]:
    """Tested verdicts equal vanilla exactly; members copy their representative."""
    problems = []
    for m, v in sorted(accel.verdicts.items()):
        if v.provenance == TESTED:
            ref = vanilla.verdicts[m]
            if (v.killing_count, v.killed) != (ref.killing_count, ref.killed):
                problems.append(
                    f"representative {m}: ({v.killing_count}, {v.killed}) "
                    f"!= vanilla ({ref.killing_count}, {ref.killed})"
                )
        elif v.provenance == PROPAGATED:
            rep = accel.verdicts.get(v.representative_id)
            if rep is None or rep.provenance != TESTED or (
                (v.killing_count, v.killed) != (rep.killing_count, rep.killed)
            ):
                problems.append(f"mutant {m}: not a copy of representative {v.representative_id}")
        else:
            problems.append(f"mutant {m}: provenance {v.provenance!r}")
    return problems


def digest(outcome: Outcome) -> str:
    """Hash of the results without wall-clock fields."""
    if outcome.sweep is not None:
        rows = [
            (c.per_class_rate, c.tau, c.repeat, c.reduction_rate, c.n_clusters, c.score_error)
            for c in outcome.sweep.cells
        ]
    elif outcome.table is not None:
        rows = [
            (m, v.killing_count, v.killed, v.provenance, v.representative_id)
            for m, v in sorted(outcome.table.verdicts.items())
        ]
    else:
        rows = []
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def parameter_key(model: ms.FcnnClassifier) -> bytes:
    """Equal keys iff equal parameters; adding 0.0 maps -0.0 to 0.0."""
    h = hashlib.sha256()
    for layer in model.layers:
        h.update(np.add(layer.weights, 0.0).tobytes())
        h.update(np.add(layer.biases, 0.0).tobytes())
    return h.digest()


def census(mutants: ms.MutantSet) -> tuple[int, int, dict[int, bytes]]:
    """No-ops (equal to the original) and duplicates (equal to a lower id)."""
    original = parameter_key(mutants.original)
    keys = {m.mutant_id: parameter_key(m.model) for m in mutants.mutants}
    noops = sum(key == original for key in keys.values())
    seen: set[bytes] = set()
    duplicates = 0
    for mutant_id in sorted(keys):
        duplicates += keys[mutant_id] in seen
        seen.add(keys[mutant_id])
    return noops, duplicates, keys


def sample_size(dataset: ms.LabeledDataset, per_class: int) -> int:
    """|S| of a stratified sample at ``per_class`` points per class."""
    _, counts = np.unique(dataset.labels, return_counts=True)
    return int(np.minimum(counts, per_class).sum())
