"""Report files: versioned JSON run reports, verdict CSVs, comparison tables.

Reports embed the run configuration, seeds and input-file hashes.  Two runs
with identical configuration and inputs produce byte-identical files except
for the "timing" subtree, which is excluded from determinism guarantees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, astuple, fields

from .clustering import NOT_SATISFIABLE_MESSAGE, mutant_reduction_rate
from .errors import FormatError, ReportMismatchError, ValidationError
from .metrics import score_error, speed_up
from .mutants import MutantSet
from .pipeline import PipelineResult, SweepCell, SweepResult
from .testing import VerdictTable, mutation_score
from .util import load_json, open_fresh

REPORT_SCHEMA_VERSION = 1

VERDICT_CSV_COLUMNS = (
    "mutant_id",
    "kind",
    "status",
    "killing_count",
    "provenance",
    "representative_id",
)
_STATUS = {None: "untested", True: "killed", False: "survived"}  # keyed by MutantVerdict.killed


def _na(value):
    return "N/A" if value is None else value


def _write_csv(path, header, rows) -> None:
    with open_fresh(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_verdict_csv(path, table: VerdictTable, mutants: MutantSet) -> None:
    kinds = {m.mutant_id: m.kind.value for m in mutants.mutants}
    rows = (
        [m, kinds.get(m, "?"), _STATUS[v.killed], _na(v.killing_count), v.provenance,
         _na(v.representative_id)]
        for m, v in sorted(table.verdicts.items())
    )
    _write_csv(path, VERDICT_CSV_COLUMNS, rows)


def run_report_payload(
    result: PipelineResult,
    config_echo: dict,
    hashes: dict,
) -> dict:
    """JSON-serializable report for one completed run."""
    table = result.table
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "technique": result.mode,
        "config": config_echo,
        "inputs_sha256": hashes,
        "satisfied": result.found,
    }
    if not result.found:
        payload["message"] = NOT_SATISFIABLE_MESSAGE
        payload["search"] = _search_metadata(result)
        return payload
    payload.update(
        {
            "mutation_score": mutation_score(table),
            "label_count": len(table.labels),
            "labels": list(table.labels),
            "mutant_count": len(table.verdicts),
            "tested_count": table.timing.tested_count,
            "killing_counts": {str(k): v for k, v in table.counts().items()},
            "quarantined": list(result.quarantined),
            "timing": {
                "phases": dict(sorted(table.timing.phases.items())),
                "total_seconds": table.timing.total_seconds,
            },
        }
    )
    if result.clusters is not None:
        payload["clustering"] = {
            "tau": result.clusters.tau,
            "per_class_rate": result.sample.per_class_rate,
            "n_clusters": len(result.clusters),
            "clusters": [list(c) for c in result.clusters.clusters],
            "representatives": [
                {"representative": rep, "members": list(members)}
                for rep, members in result.representatives.pairs
            ],
            "representative_seed": result.representatives.seed,
        }
        payload["search"] = _search_metadata(result)
    return payload


def _search_metadata(result: PipelineResult) -> dict:
    return {"rounds": [{**asdict(r), "iterations": r.iterations} for r in result.search_rounds]}


def strip_timing(payload: dict) -> dict:
    """Copy of a report without its wall-clock fields (determinism checks)."""
    return {k: v for k, v in payload.items() if k != "timing"}


# ---------------------------------------------------------------------------
# Comparison of accelerated reports against a vanilla reference.
# ---------------------------------------------------------------------------


# the fields compare_rows reads from each report, with their JSON types
_COMPARED_FIELDS = {
    "technique": str,
    "inputs_sha256": dict,
    "mutation_score": (int, float),
    "mutant_count": int,
    "tested_count": int,
    "timing": dict,
}


def load_scored_report(path) -> dict:
    """A run report that compare_rows can read.

    A file that is not JSON, not a run report, or a report from a run whose
    reduction goal was not satisfiable (it carries no score) raises a
    MutspectError naming the file.  So does an impossible value: fewer than
    one mutant, a tested count outside [0, mutant_count], a score that is
    not a finite number in [0, 1], or a negative or non-finite total time.
    """
    report = load_json(path)
    if not isinstance(report, dict):
        raise FormatError(f"{path} is not a run report: not a JSON object")
    if report.get("satisfied") is False:
        raise ValidationError(
            f"{path} has no mutation score: its run's reduction goal was not satisfiable"
        )
    fields = [(name, report.get(name), kind) for name, kind in _COMPARED_FIELDS.items()]
    if isinstance(report.get("timing"), dict):
        fields.append(("timing.total_seconds", report["timing"].get("total_seconds"), (int, float)))
    for name, value, kind in fields:
        if not isinstance(value, kind) or isinstance(value, bool):
            raise FormatError(f"{path} is not a run report: {name!r} is missing or mistyped")
    n, score = report["mutant_count"], report["mutation_score"]
    tested, seconds = report["tested_count"], report["timing"]["total_seconds"]
    for name, value, in_range in (  # NaN fails every comparison
        ("mutant_count", n, 1 <= n),
        ("tested_count", tested, 0 <= tested <= n),
        ("mutation_score", score, 0 <= score <= 1),
        ("timing.total_seconds", seconds, 0 <= seconds < math.inf),
    ):
        if not in_range:
            raise FormatError(f"{path} is not a run report: {name!r} is out of range: {value!r}")
    return report


def compare_rows(vanilla: dict, accelerated: list[dict]) -> list[dict]:
    """Average/min/max loss, reduction and speed-up per technique.

    Refuses to compare reports whose input hashes differ from the vanilla
    reference.
    """
    for report in accelerated:
        if report["inputs_sha256"] != vanilla["inputs_sha256"]:
            raise ReportMismatchError(
                f"report for {report['technique']!r} was produced from different inputs"
            )
    ms_v = vanilla["mutation_score"]
    t_v = vanilla["timing"]["total_seconds"]
    n = vanilla["mutant_count"]
    by_technique: dict[str, list[dict]] = {}
    for report in accelerated:
        by_technique.setdefault(report["technique"], []).append(report)
    rows = []
    for technique in sorted(by_technique):
        losses, reductions, speedups = [], [], []
        for report in by_technique[technique]:
            losses.append(score_error(ms_v, report["mutation_score"]))
            reductions.append(mutant_reduction_rate(n, report["tested_count"]))
            speedups.append(speed_up(t_v, report["timing"]["total_seconds"]))
        row = {"technique": technique, "runs": len(by_technique[technique])}
        for name, values in (
            ("loss", losses),
            ("reduction", reductions),
            ("speed_up", speedups),
        ):
            if any(v is None for v in values):
                row[f"{name}_avg"] = row[f"{name}_min"] = row[f"{name}_max"] = None
            else:
                row[f"{name}_avg"] = sum(values) / len(values)
                row[f"{name}_min"] = min(values)
                row[f"{name}_max"] = max(values)
        rows.append(row)
    return rows


COMPARE_CSV_COLUMNS = (
    "technique",
    "runs",
    "loss_avg",
    "loss_min",
    "loss_max",
    "reduction_avg",
    "reduction_min",
    "reduction_max",
    "speed_up_avg",
    "speed_up_min",
    "speed_up_max",
)


def write_compare_csv(path, rows: list[dict]) -> None:
    _write_csv(path, COMPARE_CSV_COLUMNS, ([_na(r[c]) for c in COMPARE_CSV_COLUMNS] for r in rows))


def format_compare_table(rows: list[dict]) -> str:
    def fmt(value):
        return "N/A" if value is None else f"{value:.4f}"

    lines = [
        f"{'technique':<12} {'runs':>4} {'loss avg':>9} {'min':>9} {'max':>9} "
        f"{'red avg':>8} {'min':>8} {'max':>8} {'spd avg':>8} {'min':>8} {'max':>8}"
    ]
    widths = (9, 9, 9, 8, 8, 8, 8, 8, 8)  # one per column after "runs"
    for row in rows:
        cells = (f"{fmt(row[c]):>{w}}" for c, w in zip(COMPARE_CSV_COLUMNS[2:], widths))
        lines.append(f"{row['technique']:<12} {row['runs']:>4} " + " ".join(cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sweep outputs: plot-ready cell CSV plus the rank-correlation table.
# ---------------------------------------------------------------------------

# one column per SweepCell field, in field order; csv writes a float as its repr
SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepCell))


def write_sweep_csv(path, sweep: SweepResult) -> None:
    _write_csv(path, SWEEP_CSV_COLUMNS, ([_na(v) for v in astuple(c)] for c in sweep.cells))


def write_rho_csv(path, sweep: SweepResult) -> None:
    rows = [[x, f"repeat-{r}", _na(rho)] for (x, r), rho in sorted(sweep.rho_per_repeat.items())]
    rows += [[x, "pooled", _na(rho)] for x, rho in sorted(sweep.rho_pooled.items())]
    _write_csv(path, ("per_class_rate", "scope", "rho"), rows)
