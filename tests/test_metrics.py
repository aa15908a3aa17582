import numpy as np
import pytest

from mutspect.errors import ValidationError
from mutspect.metrics import measures, predictive_metrics, spearman_rho
from mutspect.testing import TESTED, MutantVerdict, TimingRecord, VerdictTable


def table(counts_killed, mode="vanilla", labels=(0, 1, 2), seconds=1.0, tested=None):
    verdicts = {
        m: MutantVerdict(m, c, k, TESTED) for m, (c, k) in enumerate(counts_killed)
    }
    timing = TimingRecord({"testing": seconds}, tested if tested is not None else len(verdicts))
    return VerdictTable(verdicts, timing, mode, labels)


class TestMeasures:
    def test_identical_tables_zero_error_zero_reduction(self):
        rows = [(2, True), (0, False), (1, True)]
        v = table(rows, seconds=2.0)
        a = table(rows, mode="spectral", seconds=2.0)
        rep = measures(a, v)
        assert rep.score_error == 0.0
        assert rep.mutant_reduction == 0.0

    def test_speed_up_half(self):
        rows = [(1, True)] * 4
        v = table(rows, seconds=2.0)
        a = table(rows, mode="spectral", seconds=1.0)
        assert measures(a, v).speed_up == pytest.approx(0.5)

    def test_reduction_three_of_ten(self):
        rows = [(1, True)] * 10
        v = table(rows)
        a = table(rows, mode="spectral", tested=7)
        assert measures(a, v).mutant_reduction == pytest.approx(0.3)

    def test_zero_vanilla_score_reports_undefined(self):
        rows = [(0, False)] * 3
        v = table(rows)
        a = table(rows, mode="spectral")
        assert measures(a, v).score_error is None

    def test_mismatched_sets_rejected(self):
        v = table([(1, True)] * 3)
        a = table([(1, True)] * 2, mode="spectral")
        with pytest.raises(ValidationError):
            measures(a, v)


class TestPredictiveMetrics:
    def hand_fixture(self):
        # 10 mutants; accelerated mispropagates exactly two of them:
        #   mutant 2: actual killed count 1 -> predicted survived count 0 (FN)
        #   mutant 7: actual survived count 0 -> predicted killed count 2 (FP)
        actual = [(2, True), (3, True), (1, True), (4, True), (2, True),
                  (5, True), (0, False), (0, False), (0, False), (0, False)]
        predicted = list(actual)
        predicted[2] = (0, False)
        predicted[7] = (2, True)
        return table(predicted, mode="spectral"), table(actual)

    def test_perfect_propagation(self):
        rows = [(2, True), (0, False), (1, True)]
        rep = predictive_metrics(table(rows, mode="spectral"), table(rows))
        assert rep.mae == 0.0
        assert rep.precision == rep.recall == rep.f1 == 1.0

    def test_hand_computed_confusion_arithmetic(self):
        accel, vanilla = self.hand_fixture()
        rep = predictive_metrics(accel, vanilla)
        assert rep.tp == 5 and rep.fp == 1 and rep.tn == 3 and rep.fn == 1
        assert rep.mae == pytest.approx(0.3, abs=1e-12)
        assert rep.rmae == pytest.approx(0.3 / 1.7, abs=1e-12)
        assert rep.precision == pytest.approx(5 / 6, abs=1e-12)
        assert rep.recall == pytest.approx(5 / 6, abs=1e-12)
        assert rep.f1 == pytest.approx(5 / 6, abs=1e-12)
        # MCC = (5*3 - 1*1) / sqrt(6 * 6 * 4 * 4) = 14/24
        assert rep.mcc == pytest.approx(14 / 24, abs=1e-12)

    def test_mcc_undefined_when_no_negatives(self):
        rows = [(2, True)] * 4
        rep = predictive_metrics(table(rows, mode="spectral"), table(rows))
        assert rep.mcc is None
        assert rep.precision == 1.0 and rep.recall == 1.0

    def test_mismatched_sets_rejected(self):
        # an accelerated table with a mutant the vanilla one lacks, and one
        # missing a mutant the vanilla one has
        three, two = table([(1, True)] * 3), table([(1, True)] * 2)
        for accel, vanilla in ((three, two), (two, three)):
            with pytest.raises(ValidationError, match="different mutant sets"):
                predictive_metrics(accel, vanilla)

    def test_rmae_undefined_when_actual_mean_zero(self):
        actual = [(0, False)] * 3
        predicted = [(1, True), (0, False), (0, False)]
        rep = predictive_metrics(table(predicted, mode="spectral"), table(actual))
        assert rep.rmae is None


class TestSpearman:
    def test_strictly_decreasing(self):
        assert spearman_rho([1, 2, 3, 4], [9, 7, 4, 1]) == pytest.approx(-1.0)

    def test_strictly_increasing(self):
        assert spearman_rho([1, 2, 3], [5, 6, 9]) == pytest.approx(1.0)

    def test_constant_is_undefined(self):
        assert spearman_rho([1, 2, 3], [4, 4, 4]) is None
        assert spearman_rho([2, 2, 2], [1, 2, 3]) is None

    def test_tied_ranks_hand_computation(self):
        # ys ranks: [5, 3.5, 3.5, 1.5, 1.5]; pearson of ranks = -9/sqrt(90)
        rho = spearman_rho([1, 2, 3, 4, 5], [10, 8, 8, 5, 5])
        assert rho == pytest.approx(-9 / np.sqrt(90), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            spearman_rho([1, 2], [1, 2, 3])
        with pytest.raises(ValidationError):
            spearman_rho([1], [2])
