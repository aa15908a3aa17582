"""One benchmark run: set-up, memory pass, timed or traced turns, report."""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import workloads as W
from mutspect import count_forward_passes, measures
from mutspect.config import build_config
from tracing import Tracer, layer_figures

MIN_SETUP_SAMPLES = 5
MIN_SETUP_SECONDS = 1.0


def tail_percentile(n: int) -> int | None:
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def summarize(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values),
           "min": min(values), "max": max(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def blas_description() -> dict:
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    # the OpenBLAS that numpy loaded, asked for its thread count
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def machine_description() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_description(),
        # RunConfig.threads > 1 would race on the unlocked forward-pass
        # counter, so the benchmark runs with the default of one thread
        "mutspect_threads": getattr(build_config(), "threads", None),
    }


def draws_of(op: str, inst) -> range:
    return range(1 if op == "vanilla" else len(inst.draws))


class Recorder:
    """Executes operations, checks them and keeps samples, counters, figures.

    One recorder per input set.  Results are keyed by (operation, draw);
    vanilla has the single draw 0.
    """

    def __init__(self, workload, inst, index: int):
        self.workload = workload
        self.inst = inst
        self.index = index
        self.noops, self.duplicates, self.keys = W.census(inst.mutants)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # seconds of each untraced and traced execution, by operation and draw
        self.samples = {op: {} for op in W.OPS}
        self.traced_samples = {op: {} for op in W.OPS}
        self.figures = {op: [] for op in W.OPS}
        self.fingerprints: dict[tuple[str, int], tuple] = {}
        self.counters: dict[tuple[str, int], dict] = {}
        self.quality: dict[int, dict] = {}
        self.vanilla = None

    def execute(self, op: str, draw: int, tracer=None) -> float:
        inst, vanilla = self.inst, self.vanilla
        self.attempted += 1
        outcome = None
        with count_forward_passes() as passes:
            start = time.perf_counter()
            try:
                if tracer is None:
                    outcome = W.run_op(op, self.workload, inst, inst.draws[draw], vanilla)
                else:
                    with tracer.span(op):
                        outcome = W.run_op(op, self.workload, inst, inst.draws[draw], vanilla)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            seconds = time.perf_counter() - start
        if outcome is None:
            problems = ["raised an exception"]
        elif op != "vanilla" and vanilla is None:
            problems = ["no vanilla table to check against"]
        else:
            problems = W.check_outcome(op, self.workload, inst, outcome, vanilla)
        if not problems:
            counters = self._counters(op, outcome, passes.count)
            fingerprint = (W.digest(outcome), counters)
            first = self.fingerprints.setdefault((op, draw), fingerprint)
            self.counters.setdefault((op, draw), counters)
            if first != fingerprint:
                problems.append("results or exact counters differ from the first execution")
        if problems:
            self.failed += 1
            self.problems += [f"{op} set {self.index} draw {draw}: {p}" for p in problems[:5]]
        elif op == "vanilla":
            self.vanilla = outcome.table
        elif op == "accelerated" and draw not in self.quality:
            report = measures(outcome.table, vanilla)
            self.quality[draw] = {
                "score_error": report.score_error or 0.0,
                "mutant_reduction": report.mutant_reduction,
                "score_vanilla": report.score_vanilla,
                "score_accelerated": report.score_accel,
            }
        return seconds

    def _counters(self, op, outcome, forward_passes) -> dict:
        counters = {"model.forward_passes": forward_passes}
        if op == "sweep":
            counters["sweep.cells"] = len(outcome.sweep.cells)
            return counters
        n_mutants, n_points = len(self.inst.mutants), len(self.inst.dataset)
        tested = outcome.table.tested_ids()
        counters["testing.tested_mutants"] = len(tested)
        counters["testing.distinct_tested_share"] = (
            len({self.keys[m] for m in tested}) / len(tested) if tested else 0.0
        )
        if op == "vanilla":
            counters["model.cost_model_passes"] = n_mutants * n_points
        else:
            sampled = sum(W.sample_size(self.inst.dataset, x) for x in outcome.per_class_rates)
            counters["model.cost_model_passes"] = n_mutants * sampled + len(tested) * n_points
            counters["clustering.search_rounds"] = len(outcome.per_class_rates)
            counters["clustering.search_iterations"] = outcome.search_iterations
            counters["clustering.clusters"] = outcome.clusters
        return counters


def set_up_repeatedly(workload, seed: int, workdir: Path):
    """Every input set of the seed, built repeatedly; returns the last ones
    and the seconds of each part, summed over the input sets, per set-up.

    Set-ups run untimed for MIN_SETUP_SECONDS first: in a fresh process the
    first few model fits take up to ten times longer than later ones.  Then
    set-ups are timed until there are enough samples and seconds."""
    def once():
        insts, parts = [], {}
        for k in range(workload.inputs):
            inst, part = W.set_up(workload, seed, k, workdir / f"set{k}")
            insts.append(inst)
            for name, value in part.items():
                parts[name] = parts.get(name, 0.0) + value
        return insts, parts

    started = time.perf_counter()
    while time.perf_counter() - started < MIN_SETUP_SECONDS:
        once()
    samples: dict[str, list[float]] = {}
    started = time.perf_counter()
    while True:
        insts, parts = once()
        for name, value in parts.items():
            samples.setdefault(name, []).append(value)
        if (len(samples["setup_s"]) >= MIN_SETUP_SAMPLES
                and time.perf_counter() - started >= MIN_SETUP_SECONDS):
            return insts, samples


def memory_pass(recorder: Recorder) -> dict[str, float]:
    """tracemalloc peak (MiB) of each operation on the first draw."""
    peaks = {}
    tracemalloc.start()
    try:
        for op in W.OPS:
            tracemalloc.reset_peak()
            recorder.execute(op, 0)
            peaks[op] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return peaks


def run_turn(recorders: list[Recorder], op: str, tracer=None) -> float:
    """One operation once on each draw of each input set; returns the
    seconds spent."""
    spent = 0.0
    for recorder in recorders:
        for draw in draws_of(op, recorder.inst):
            if tracer is None:
                seconds = recorder.execute(op, draw)
                recorder.samples[op].setdefault(draw, []).append(seconds)
            else:
                with tracer:
                    seconds = recorder.execute(op, draw, tracer)
                recorder.traced_samples[op].setdefault(draw, []).append(seconds)
                recorder.figures[op].append(layer_figures(tracer.take()))
            spent += seconds
    return spent


def timed_turns(recorders: list[Recorder], seconds: float, trace: bool):
    """Turns until ``seconds`` of them have run.

    Every operation first runs once on the first draw of each input set,
    untimed, so that first-call costs on these inputs stay out of the
    samples.  Then each turn goes to the operation that has used the least
    time so far, so the operations share the time evenly and every draw has
    the same number of samples.  With tracing, an untraced and a traced turn
    of the operation follow each other.  The memory pass runs once half the
    time is spent, so that the timed samples span it.  Returns the memory
    pass's peaks and the targets the tracer missed."""
    tracer = Tracer() if trace else None
    for op in W.OPS:
        for recorder in recorders:
            recorder.execute(op, 0)
    spent = {op: 0.0 for op in W.OPS}
    peaks = None
    while True:
        op = min(W.OPS, key=spent.get)
        spent[op] += run_turn(recorders, op)
        if trace:
            spent[op] += run_turn(recorders, op, tracer)
        timed = sum(spent.values())
        if peaks is None and timed >= seconds / 2:
            peaks = memory_pass(recorders[0])
        if timed >= seconds and all(spent.values()):
            return peaks, sorted(set(tracer.missing)) if tracer else []


def op_seconds(recorders: list[Recorder], op: str, traced: bool = False) -> float:
    """Mean over the input sets and draws of each one's median seconds.

    Input sets and draws differ in cost; the mean of their medians moves
    less than a median over the pooled samples, which jumps between them."""
    return statistics.fmean(
        statistics.median(values)
        for r in recorders
        for values in (r.traced_samples if traced else r.samples)[op].values()
    )


def mean_quality(recorders: list[Recorder], key: str) -> float:
    values = [q[key] for r in recorders for q in r.quality.values()]
    return statistics.fmean(values) if values else 0.0


def end_to_end(recorders: list[Recorder], setup: dict, peaks: dict) -> dict:
    return {
        "vanilla_s": op_seconds(recorders, "vanilla"),
        "accelerated_s": op_seconds(recorders, "accelerated"),
        "sweep_s": op_seconds(recorders, "sweep"),
        "mutant_reduction": mean_quality(recorders, "mutant_reduction"),
        "setup_s": statistics.median(setup["setup_s"]),
        "peak_mem_mib": max(peaks.values()),
    }


def per_layer(recorders: list[Recorder], setup: dict, names) -> dict:
    values = {}
    for op in W.OPS:
        figures = [f for r in recorders for f in r.figures[op]]
        for key in set().union(*figures):
            values[f"{op}.{key}"] = statistics.median(f.get(key, 0.0) for f in figures)
        exact = [c for r in recorders for (o, _), c in r.counters.items() if o == op]
        for key in set().union(*exact):
            values[f"{op}.{key}"] = statistics.median(c[key] for c in exact)
    for key in ("synth.blobs_s", "synth.fit_s", "mutants.generate_s", "dataset.save_s"):
        values[key] = statistics.median(setup[key])
    values["mutants.noops"] = sum(r.noops for r in recorders)
    values["mutants.duplicates"] = sum(r.duplicates for r in recorders)
    for key in ("score_error", "mutant_reduction"):
        values[f"metrics.{key}"] = mean_quality(recorders, key)
    values["trace.accelerated_overhead_s"] = (
        op_seconds(recorders, "accelerated", traced=True)
        - op_seconds(recorders, "accelerated")
    )
    # a layer that is not on an operation's path has measured zero there
    return {name: values.get(name, 0.0) if name.split(".")[0] in W.OPS else values[name]
            for name in names}


def report(args, workload, recorders, setup, peaks, machine, missing):
    """Human-readable lines, then one JSON line of details."""
    print(f"workload {workload.name}  seed {args.seed}  input sets {workload.inputs}  "
          f"draws {workload.draws}  trace {args.trace}  seconds {args.seconds:g}")
    blas = machine["blas"]
    print(f"machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']} "
          f"blas={blas['name']} {blas['version']} threads={blas['threads']} "
          f"mutspect threads={machine['mutspect_threads']} cpu={machine['cpu']}")
    timings = {}
    for op in W.OPS:
        timings[op] = summarize([v for r in recorders
                                 for values in r.samples[op].values() for v in values])
        timings[op]["mean_of_medians"] = op_seconds(recorders, op)
    timings["setup"] = summarize(setup["setup_s"])
    for op, s in timings.items():
        tail = next((f" p{p}={s[f'p{p}']:.4f}" for p in (99, 90, 75) if f"p{p}" in s),
                    " (no higher percentile has 10 samples beyond it)")
        line = f"  {op:<12} median {s['median']:.4f} s  n={s['n']}{tail}"
        if "mean_of_medians" in s:
            line += f"  metric (mean of the per-draw medians) {s['mean_of_medians']:.4f} s"
        print(line)
    van = timings["vanilla"]["mean_of_medians"]
    acc = timings["accelerated"]["mean_of_medians"]
    print(f"speed-up 1 - accelerated_s/vanilla_s = {1 - acc / van:+.4f} "
          f"(base: accelerated_s {acc:.4f} s, vanilla_s {van:.4f} s)")
    print("peak_mem_mib by operation (tracemalloc, input set 0, draw 0): "
          + ", ".join(f"{op} {mib:.2f}" for op, mib in peaks.items()))
    for r in recorders:
        print(f"set {r.index} census: no-ops {r.noops}, duplicates {r.duplicates} "
              f"of {len(r.inst.mutants)} mutants")
        c_van = r.counters.get(("vanilla", 0))
        for (op, draw), counters in sorted(r.counters.items()):
            if op != "accelerated" or c_van is None:
                continue
            fp_v, cm_v = c_van["model.forward_passes"], c_van["model.cost_model_passes"]
            fp_a, cm_a = counters["model.forward_passes"], counters["model.cost_model_passes"]
            print(f"set {r.index} draw {draw} forward passes: accelerated {fp_a:,} vs "
                  f"|M|*|S| + |R|*|T| = {cm_a:,} (ratio {fp_a / cm_a:.4f}, base {cm_a:,}, "
                  f"gap {fp_a - cm_a:,}); vanilla {fp_v:,} vs |M|*|T| = {cm_v:,} "
                  f"(ratio {fp_v / cm_v:.4f}, base {cm_v:,}); accelerated/vanilla "
                  f"{fp_a / fp_v:.4f} (base {fp_v:,})")
    digests = {f"{op}.{r.index}.{draw}": fp[0] for r in recorders
               for (op, draw), fp in sorted(r.fingerprints.items())}
    print("digests: " + " ".join(f"{k}={v}" for k, v in digests.items()))
    problems = [p for r in recorders for p in r.problems]
    if problems:
        print("problems: " + "; ".join(problems[:5]))
    details = {
        "workload": workload.name, "seed": args.seed, "machine": machine,
        "input_sets": [
            {"inputs": r.inst.seeds,
             "draws": [[d.sampling, d.representative] for d in r.inst.draws],
             "counters": {f"{op}.{draw}": c for (op, draw), c in sorted(r.counters.items())},
             "quality": r.quality,
             "census": {"noops": r.noops, "duplicates": r.duplicates}}
            for r in recorders
        ],
        "timings_s": timings, "peak_mem_mib_by_op": peaks, "digests": digests,
        "untraceable": missing, "problems": problems[:20],
    }
    print("details " + json.dumps(details, sort_keys=True))


def run(args, spec: dict, work_root: Path) -> dict:
    """One benchmark run; returns the result object printed last."""
    workload = W.WORKLOADS[args.workload]
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        insts, setup = set_up_repeatedly(workload, args.seed, workdir)
        recorders = [Recorder(workload, inst, k) for k, inst in enumerate(insts)]
        peaks, missing = timed_turns(recorders, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()  # left in place while another run uses it
        except OSError:
            pass
    if args.trace:
        listed = spec["per_layer"]
        values = per_layer(recorders, setup, [m["name"] for m in listed])
    else:
        listed = spec["end_to_end"]
        values = end_to_end(recorders, setup, peaks)
    report(args, workload, recorders, setup, peaks, machine_description(), missing)
    attempted = sum(r.attempted for r in recorders)
    failed = sum(r.failed for r in recorders)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }
