import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

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


@st.composite
def paired_columns(draw):
    """Two columns of one length from 2 to 60, each drawn from its own pool:
    free floats (infinities and signed zeros included), a few values with
    many ties, or two values."""
    n = draw(st.integers(2, 60))
    floats = st.floats(allow_nan=False, width=64)

    def column():
        pool = draw(st.one_of(st.lists(floats, min_size=1, max_size=n),
                              st.lists(floats, min_size=1, max_size=3),
                              st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=2,
                                       max_size=2)))
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    return column(), column()


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestRhoOracle:
    """spearman_rho is scipy's rho without the p-value: scipy's average
    ranks, then np.corrcoef.  Its bits rest on numpy's corrcoef and scipy's
    rankdata, so CI also runs this on one BLAS thread and on the lowest
    supported numpy and scipy."""

    @settings(max_examples=500, deadline=None)
    @given(columns=paired_columns())
    def test_equals_scipy_bit_for_bit(self, columns):
        xs, ys = columns
        got = spearman_rho(xs, ys)
        if len(set(xs)) == 1 or len(set(ys)) == 1:  # -0.0 == 0.0: one value
            assert got is None
        else:
            want = spearmanr(xs, ys)[0]
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (xs, ys)

    def test_sweep_shaped_inputs(self):
        taus = np.round(0.05 * np.arange(1, 20), 2)
        rng = np.random.default_rng(0)
        for _ in range(200):
            rates = np.sort(rng.integers(0, 50, taus.size))[::-1] / 50
            if len(set(rates)) > 1:
                assert spearman_rho(taus, rates) == spearmanr(taus, rates)[0]

    def test_nan_gives_nan(self):
        assert np.isnan(spearman_rho([1.0, np.nan, 3.0], [1, 2, 3]))
