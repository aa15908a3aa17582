"""Report files: versioned JSON run reports, verdict CSVs, comparison tables.

Reports embed the run configuration, seeds and input-file hashes.  Two runs
with identical configuration and inputs produce byte-identical files except
for the "timing" subtree, which is excluded from determinism guarantees.
"""

from __future__ import annotations

import csv
import json

from .errors import ReportMismatchError
from .metrics import PredictiveReport
from .mutants import MutantSet
from .pipeline import PipelineResult, SweepResult
from .testing import VerdictTable, mutation_score

REPORT_SCHEMA_VERSION = 1

VERDICT_CSV_COLUMNS = (
    "mutant_id",
    "kind",
    "status",
    "killing_count",
    "provenance",
    "representative_id",
)


def _na(value):
    return "N/A" if value is None else value


def write_verdict_csv(path, table: VerdictTable, mutants: MutantSet) -> None:
    kinds = {m.mutant_id: m.kind.value for m in mutants.mutants}
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(VERDICT_CSV_COLUMNS)
        for mutant_id in sorted(table.verdicts):
            v = table.verdicts[mutant_id]
            if v.killed is None:
                status = "untested"
            else:
                status = "killed" if v.killed else "survived"
            writer.writerow(
                [
                    mutant_id,
                    kinds.get(mutant_id, "?"),
                    status,
                    _na(v.killing_count),
                    v.provenance,
                    _na(v.representative_id),
                ]
            )


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
        payload["message"] = result.message
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
            "tau": result.tau,
            "per_class_rate": result.per_class_rate,
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
    return {
        "rounds": [
            {
                "per_class_rate": r.per_class_rate,
                "iterations": r.iterations,
                "taus": r.taus,
                "rates": r.rates,
                "cluster_counts": r.cluster_counts,
                "stop_reason": r.stop_reason,
            }
            for r in result.search_rounds
        ]
    }


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def strip_timing(payload: dict) -> dict:
    """Copy of a report without its wall-clock fields (determinism checks)."""
    out = {k: v for k, v in payload.items() if k != "timing"}
    return out


# ---------------------------------------------------------------------------
# Comparison of accelerated reports against a vanilla reference.
# ---------------------------------------------------------------------------


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
            ms = report["mutation_score"]
            losses.append(abs(ms_v - ms) / ms_v if ms_v else None)
            reductions.append((n - report["tested_count"]) / n)
            t_0 = report["timing"]["total_seconds"]
            speedups.append((t_v - t_0) / t_v if t_v > 0 else 0.0)
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
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(COMPARE_CSV_COLUMNS)
        for row in rows:
            writer.writerow([_na(row[c]) for c in COMPARE_CSV_COLUMNS])


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

SWEEP_CSV_COLUMNS = (
    "per_class_rate",
    "tau",
    "repeat",
    "reduction_rate",
    "n_clusters",
    "score_error",
    "seconds",
)


def write_sweep_csv(path, sweep: SweepResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for cell in sweep.cells:
            writer.writerow(
                [
                    cell.per_class_rate,
                    repr(cell.tau),
                    cell.repeat,
                    repr(cell.reduction_rate),
                    cell.n_clusters,
                    "N/A" if cell.score_error is None else repr(cell.score_error),
                    repr(cell.seconds),
                ]
            )


def write_rho_csv(path, sweep: SweepResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("per_class_rate", "scope", "rho"))
        for (x, repeat), rho in sorted(sweep.rho_per_repeat.items()):
            writer.writerow([x, f"repeat-{repeat}", _na(None if rho is None else repr(rho))])
        for x, rho in sorted(sweep.rho_pooled.items()):
            writer.writerow([x, "pooled", _na(None if rho is None else repr(rho))])


def predictive_payload(report: PredictiveReport) -> dict:
    return {
        "mae": report.mae,
        "rmae": _na(report.rmae),
        "tp": report.tp,
        "fp": report.fp,
        "tn": report.tn,
        "fn": report.fn,
        "precision": _na(report.precision),
        "recall": _na(report.recall),
        "f1": _na(report.f1),
        "mcc": _na(report.mcc),
    }
