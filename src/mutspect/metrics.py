"""Evaluation measures: speed-up, reduction, score error, predictive accuracy.

All measures compare an accelerated verdict table against a vanilla one over
the same mutant set.  Metrics whose denominator vanishes are reported as
None (rendered "N/A" in reports) rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .clustering import mutant_reduction_rate
from .errors import ValidationError
from .testing import VerdictTable, mutation_score


def score_error(ms_vanilla: float, ms: float) -> float | None:
    """The paper's score error |MS_V - MS| / MS_V; None when MS_V == 0."""
    return None if ms_vanilla == 0 else abs(ms_vanilla - ms) / ms_vanilla


def speed_up(t_vanilla: float, t: float) -> float:
    """The paper's speed-up (T_V - T_0) / T_V; 0.0 when T_V is not positive."""
    return (t_vanilla - t) / t_vanilla if t_vanilla > 0 else 0.0


@dataclass(frozen=True)
class MeasureReport:
    score_vanilla: float
    score_accel: float
    score_error: float | None  # |MS_V - MS_0| / MS_V; None when MS_V == 0
    speed_up: float  # (T_V - T_0) / T_V
    mutant_reduction: float  # (|M| - N_0) / |M|
    tested_vanilla: int
    tested_accel: int
    seconds_vanilla: float
    seconds_accel: float


def _check_same_mutants(accel: VerdictTable, vanilla: VerdictTable) -> None:
    """ValidationError unless both tables cover one mutant set and the
    reference holds a tested verdict for each of its mutants."""
    if set(accel.verdicts) != set(vanilla.verdicts):
        raise ValidationError("verdict tables cover different mutant sets")
    if len(vanilla.counts()) != len(vanilla.verdicts):
        raise ValidationError("the vanilla table must hold a tested verdict for each mutant")


def measures(accel: VerdictTable, vanilla: VerdictTable) -> MeasureReport:
    _check_same_mutants(accel, vanilla)
    ms_v = mutation_score(vanilla)
    ms_0 = mutation_score(accel)
    t_v = vanilla.timing.total_seconds
    t_0 = accel.timing.total_seconds
    n_mutants = len(vanilla.verdicts)
    return MeasureReport(
        score_vanilla=ms_v,
        score_accel=ms_0,
        score_error=score_error(ms_v, ms_0),
        speed_up=speed_up(t_v, t_0),
        mutant_reduction=mutant_reduction_rate(n_mutants, accel.timing.tested_count),
        tested_vanilla=vanilla.timing.tested_count,
        tested_accel=accel.timing.tested_count,
        seconds_vanilla=t_v,
        seconds_accel=t_0,
    )


@dataclass(frozen=True)
class PredictiveReport:
    mae: float
    rmae: float | None  # MAE / mean actual count; None when the mean is 0
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float | None
    recall: float | None
    f1: float | None
    mcc: float | None  # None on zero denominator


def predictive_metrics(accel: VerdictTable, vanilla: VerdictTable) -> PredictiveReport:
    """Predicted-vs-actual quality of verdict propagation.

    MAE/RMAE compare killing-label counts; the confusion matrix uses the
    classical killed/survived statuses (predicted = accelerated table,
    actual = vanilla table).  Mutants without an accelerated count (e.g.
    unselected under subset baselines) are skipped.  Tables over different
    mutant sets raise ValidationError.
    """
    _check_same_mutants(accel, vanilla)
    ids = [
        m
        for m, v in sorted(accel.verdicts.items())
        if v.killing_count is not None
    ]
    if not ids:
        raise ValidationError("no scored mutants to evaluate")
    predicted_counts = np.array([accel.verdicts[m].killing_count for m in ids], dtype=float)
    actual_counts = np.array([vanilla.verdicts[m].killing_count for m in ids], dtype=float)
    mae = float(np.mean(np.abs(actual_counts - predicted_counts)))
    mean_actual = float(np.mean(actual_counts))
    rmae = None if mean_actual == 0 else mae / mean_actual

    predicted_killed = np.array([accel.verdicts[m].killed for m in ids])
    actual_killed = np.array([vanilla.verdicts[m].killed for m in ids])
    tp = int(np.sum(predicted_killed & actual_killed))
    fp = int(np.sum(predicted_killed & ~actual_killed))
    tn = int(np.sum(~predicted_killed & ~actual_killed))
    fn = int(np.sum(~predicted_killed & actual_killed))

    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    if precision is not None and recall is not None and precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = None
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / mcc_den if mcc_den else None
    return PredictiveReport(mae, rmae, tp, fp, tn, fn, precision, recall, f1, mcc)


def spearman_rho(xs, ys) -> float | None:
    """``scipy.stats.spearmanr(xs, ys)[0]`` computed as scipy does (average ranks,
    then ``np.corrcoef``) without the p-value; None for a constant input."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("inputs must be 1-D and of equal length")
    if x.size < 2:
        raise ValidationError("need at least two observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        return None
    return float(np.corrcoef(rankdata(np.stack([x, y]), axis=1))[1, 0])
