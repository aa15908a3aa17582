import numpy as np
import pytest

from mutspect.clustering import ClusterSet, select_representatives
from mutspect.errors import UndefinedScoreError
from mutspect.model import predictions_with_flags
from mutspect.mutants import MutantSet, gaussian_fuzz, generate_mutant_set
from mutspect.testing import (
    PROPAGATED,
    TESTED,
    MutantVerdict,
    TimingRecord,
    VerdictTable,
    accelerated_test,
    killing_labels,
    mutation_score,
    vanilla_test,
)
from mutspect.synth import fitted_classifier, gaussian_blobs


@pytest.fixture(scope="module")
def blob_world():
    ds = gaussian_blobs(60, 3, 6, seed=5, spread=0.25)
    model = fitted_classifier(ds, hidden=(8,), seed=3, margin=5.0, bias_shift=2.0)
    return ds, model


class TestKillingLabels:
    def test_identical_mutant_empty(self, blob_world):
        ds, model = blob_world
        assert killing_labels(model, model, ds) == set()

    def test_constant_class_mutant(self, blob_world):
        ds, model = blob_world
        # force predictions to a constant class via an output-layer bias spike
        import mutspect.model as mm

        layers = list(model.layers)
        b = layers[-1].biases.copy()
        b[0] += 1e6
        layers[-1] = mm.DenseLayer(layers[-1].weights.copy(), b, mm.SOFTMAX)
        constant = mm.FcnnClassifier(tuple(layers))
        labels = killing_labels(model, constant, ds)
        preds = predictions_with_flags(model, ds.features)
        expected = {
            int(l)
            for l in np.unique(ds.labels[(preds == ds.labels) & (ds.labels != 0)])
        }
        assert labels == expected

    def test_brute_force_oracle(self, blob_world):
        ds, model = blob_world
        mutant = gaussian_fuzz(model, 0, 1, 3.0, seed=11).model
        got = killing_labels(model, mutant, ds)
        want = set()
        for i in range(len(ds)):
            x, label = ds.features[i : i + 1], int(ds.labels[i])
            if (predictions_with_flags(model, x)[0] == label
                    and predictions_with_flags(mutant, x)[0] != label):
                want.add(label)
        assert got == want


def table_from_counts(counts, labels=(0, 1, 2), mode="vanilla"):
    verdicts = {
        m: MutantVerdict(m, c, c > 0, TESTED) for m, c in enumerate(counts)
    }
    return VerdictTable(verdicts, TimingRecord({"testing": 1.0}, len(counts)), mode, labels)


class TestMutationScore:
    def test_all_killed_by_every_label(self):
        table = table_from_counts([3, 3], labels=(0, 1, 2))
        assert mutation_score(table) == 1.0

    def test_none_killed(self):
        table = table_from_counts([0, 0, 0])
        assert mutation_score(table) == 0.0

    def test_direct_formula(self):
        table = table_from_counts([1, 2], labels=(0, 1, 2))
        assert mutation_score(table) == pytest.approx(0.5)

    def test_empty_errors(self):
        table = VerdictTable({}, TimingRecord({}, 0), "vanilla", (0, 1))
        with pytest.raises(UndefinedScoreError):
            mutation_score(table)

    def test_untested_excluded(self):
        verdicts = {
            0: MutantVerdict(0, 3, True, TESTED),
            1: MutantVerdict(1, None, None, "untested"),
        }
        table = VerdictTable(verdicts, TimingRecord({}, 1), "rms", (0, 1, 2))
        assert mutation_score(table) == 1.0


class TestVanilla:
    def test_counts_match_brute_force(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 20, seed=77)
        table = vanilla_test(model, mutants, ds)
        assert table.timing.tested_count == 20
        for rec in mutants.mutants:
            want = len(killing_labels(model, rec.model, ds))
            assert table.verdicts[rec.mutant_id].killing_count == want

    def test_original_equal_mutant_survives(self, blob_world):
        ds, model = blob_world
        rec = gaussian_fuzz(model, 0, 0, 0.0, seed=1, mutant_id=0)
        table = vanilla_test(model, MutantSet(model, [rec], 0), ds)
        verdict = table.verdicts[0]
        assert verdict.killed is False and verdict.killing_count == 0

    def test_provenance_all_tested(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 5, seed=1)
        table = vanilla_test(model, mutants, ds)
        assert all(v.provenance == TESTED for v in table.verdicts.values())


class TestAccelerated:
    def test_all_singletons_equals_vanilla(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 12, seed=13)
        vt = vanilla_test(model, mutants, ds)
        clusters = ClusterSet(tuple((m,) for m in mutants.ids()), tau=0.99)
        reps = select_representatives(clusters, seed=0)
        at = accelerated_test(model, mutants, ds, reps)
        assert at.timing.tested_count == 12
        assert mutation_score(at) == mutation_score(vt)
        for m in mutants.ids():
            assert at.verdicts[m].killing_count == vt.verdicts[m].killing_count
            assert at.verdicts[m].killed == vt.verdicts[m].killed

    def test_propagated_verdicts_copied_verbatim(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 9, seed=31)
        clusters = ClusterSet((tuple(mutants.ids()),), tau=0.5)
        reps = select_representatives(clusters, seed=2)
        table = accelerated_test(model, mutants, ds, reps)
        rep = reps.representatives()[0]
        base = table.verdicts[rep]
        for m, verdict in table.verdicts.items():
            # count and classical status travel together
            assert verdict.killing_count == base.killing_count
            assert verdict.killed == base.killed

    def test_duplicate_cluster_propagates_exactly(self, blob_world):
        ds, model = blob_world
        base = gaussian_fuzz(model, 0, 1, 1.5, seed=21, mutant_id=0)
        dup1 = gaussian_fuzz(model, 0, 1, 1.5, seed=21, mutant_id=1)
        dup2 = gaussian_fuzz(model, 0, 1, 1.5, seed=21, mutant_id=2)
        mutants = MutantSet(model, [base, dup1, dup2], 0)
        vt = vanilla_test(model, mutants, ds)
        clusters = ClusterSet(((0, 1, 2),), tau=0.9)
        reps = select_representatives(clusters, seed=5)
        at = accelerated_test(model, mutants, ds, reps)
        assert at.timing.tested_count == 1
        rep = reps.representatives()[0]
        for m in (0, 1, 2):
            assert at.verdicts[m].killing_count == vt.verdicts[m].killing_count
            if m != rep:
                assert at.verdicts[m].provenance == PROPAGATED
                assert at.verdicts[m].representative_id == rep
        assert mutation_score(at) == mutation_score(vt)

    def test_quarantined_always_tested(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 4, seed=2)
        clusters = ClusterSet(((0, 1, 2),), tau=0.5)
        reps = select_representatives(clusters, seed=0)
        at = accelerated_test(model, mutants, ds, reps, quarantined=(3,))
        assert at.verdicts[3].provenance == TESTED
        assert at.timing.tested_count == 2  # one representative + one quarantined

    def test_overhead_folded_into_timing(self, blob_world):
        ds, model = blob_world
        mutants = generate_mutant_set(model, 3, seed=2)
        clusters = ClusterSet(tuple((m,) for m in mutants.ids()), tau=0.9)
        reps = select_representatives(clusters, seed=0)
        at = accelerated_test(
            model, mutants, ds, reps, overhead={"sampling": 1.0, "spectra": 2.0}
        )
        assert at.timing.phases["sampling"] == 1.0
        assert at.timing.phases["spectra"] == 2.0
        assert "testing" in at.timing.phases
        assert at.timing.total_seconds > 3.0
