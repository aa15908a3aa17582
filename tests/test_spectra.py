import numpy as np
import pytest

from mutspect.dataset import LabeledDataset
from mutspect.errors import (
    DegenerateGraphError,
    MissingMutantError,
    MutspectError,
    NumericError,
    ParameterError,
    SpectraFailureError,
    ValidationError,
)
from mutspect.model import count_forward_passes
from mutspect.mutants import gaussian_fuzz, generate_mutant_set, MutantSet
from mutspect.spectra import (
    TRANSFORM_DFT,
    TRANSFORM_RAW,
    SampleSet,
    SimilarityGraph,
    SpectraSet,
    build_similarity_graph,
    dft_magnitude,
    load_spectra,
    mutant_distance,
    mutant_similarity,
    mutant_spectra,
    save_spectra,
    spectra_from_outputs,
    stratified_sample,
)
from mutspect.util import philox_rng


def naive_dft_magnitude(series):
    """Direct evaluation of the defining sum; O(n^2), test-side oracle."""
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    out = np.empty(n)
    for k in range(n):
        acc = 0.0 + 0.0j
        for j in range(n):
            acc += x[j] * np.exp(-2j * np.pi * j * k / n)
        out[k] = abs(acc)
    return out


def blob_dataset(n=30, classes=3, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % classes
    return LabeledDataset(rng.normal(size=(n, dim)) + 3.0 * labels[:, None], labels, classes)


class TestStratifiedSample:
    def test_one_point_per_class_forced(self):
        ds = blob_dataset(n=3, classes=3)
        s = stratified_sample(ds, 1, seed=9)
        assert s.indices.tolist() == [0, 1, 2]

    def test_rate_above_population_takes_all(self):
        ds = blob_dataset(n=9, classes=3)
        s = stratified_sample(ds, 100, seed=4)
        assert s.indices.tolist() == sorted(range(9), key=lambda i: (ds.labels[i], i))
        assert set(s.truncated_classes) == {0, 1, 2}

    def test_replay_oracle(self):
        ds = blob_dataset(n=30, classes=3)
        per_class, seed = 2, 555
        s = stratified_sample(ds, per_class, seed)
        rng = philox_rng(seed)
        expected = []
        for label in np.unique(ds.labels):
            pool = np.flatnonzero(ds.labels == label)
            expected.append(np.sort(rng.permutation(pool)[:per_class]))
        np.testing.assert_array_equal(s.indices, np.concatenate(expected))
        # canonical order: ascending (label, index)
        keys = [(int(ds.labels[i]), int(i)) for i in s.indices]
        assert keys == sorted(keys)
        assert len(set(s.indices.tolist())) == len(s.indices)

    def test_hash_stable(self):
        ds = blob_dataset()
        a = stratified_sample(ds, 2, 1)
        b = stratified_sample(ds, 2, 1)
        assert a.content_hash() == b.content_hash()


class TestDftMagnitude:
    def test_constant_series_dc_only(self):
        for n in (1, 4, 7):
            out = dft_magnitude(np.full(n, 2.5))
            expected = np.zeros(n)
            expected[0] = n * 2.5
            np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_single_sample(self):
        np.testing.assert_allclose(dft_magnitude([-3.0]), [3.0])

    def test_alternating_sine_sample(self):
        # naive oracle gives [0, 2, 0, 2] for [0, 1, 0, -1]
        np.testing.assert_allclose(dft_magnitude([0.0, 1.0, 0.0, -1.0]), [0, 2, 0, 2], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 31, 64, 100])
    def test_matches_naive_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        got = dft_magnitude(x)
        want = naive_dft_magnitude(x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_parseval(self):
        rng = np.random.default_rng(17)
        for n in (1, 3, 10, 64, 129):
            x = rng.normal(size=n)
            mags = dft_magnitude(x)
            np.testing.assert_allclose(
                np.sum(mags**2), n * np.sum(x**2), rtol=1e-6
            )

    def test_errors(self):
        with pytest.raises(ParameterError):
            dft_magnitude([])
        with pytest.raises(NumericError):
            dft_magnitude([1.0, np.nan])


class TestMutantSpectra:
    def test_identical_mutants_identical_spectra(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        a = gaussian_fuzz(random_net, 0, 0, 0.0, seed=1, mutant_id=0)
        b = gaussian_fuzz(random_net, 0, 0, 0.0, seed=2, mutant_id=1)
        ms = MutantSet(random_net, [a, b], 0)
        sample = stratified_sample(ds, 2, 0)
        spectra = mutant_spectra(ms, ds, sample)
        np.testing.assert_array_equal(spectra.vectors(0), spectra.vectors(1))
        assert mutant_distance(0, 1, spectra) == 0.0
        assert mutant_similarity(0, 1, spectra) == 1.0

    def test_forward_pass_budget(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 2, seed=3)
        sample = stratified_sample(ds, 2, 0)
        assert len(sample) == 6
        with count_forward_passes() as counter:
            mutant_spectra(ms, ds, sample)
        assert counter.count == 2 * 6  # |M| * |S|, never |M| * |S| * q

    def test_forward_pass_budget_with_threads(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 40, seed=3)
        sample = stratified_sample(ds, 2, 0)
        with count_forward_passes() as counter:
            threaded = mutant_spectra(ms, ds, sample, threads=2)
        assert counter.count == 40 * len(sample)
        serial = mutant_spectra(ms, ds, sample)
        assert threaded.values.tobytes() == serial.values.tobytes()

    def test_quarantine_nonfinite_mutant(self, random_net):
        import mutspect.model as mm
        from mutspect.mutants import MutantRecord, MutatorKind

        ds = blob_dataset(dim=random_net.input_dim)
        good = gaussian_fuzz(random_net, 0, 0, 0.1, seed=1, mutant_id=0)
        # two consecutive huge layers overflow any input to inf
        layers = list(random_net.layers)
        layers[0] = mm.DenseLayer(
            np.full_like(layers[0].weights, 1e200),
            np.full_like(layers[0].biases, 1e200),
            mm.RELU,
        )
        layers[1] = mm.DenseLayer(
            np.full_like(layers[1].weights, 1e200), layers[1].biases.copy(), mm.RELU
        )
        exploding = mm.FcnnClassifier(tuple(layers))
        bad = MutantRecord(1, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0, exploding)
        other = gaussian_fuzz(random_net, 0, 1, 0.1, seed=3, mutant_id=2)
        ms = MutantSet(random_net, [good, bad, other], 0)
        sample = stratified_sample(ds, 2, 0)
        spectra = mutant_spectra(ms, ds, sample)
        assert spectra.failed == (1,)
        assert spectra.ids == (0, 2)
        with pytest.raises(SpectraFailureError):
            mutant_distance(0, 1, spectra)
        graph = build_similarity_graph(ms, spectra)
        assert graph.ids == (0, 2)

    def test_vector_length_is_sample_size(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 3, seed=8)
        sample = stratified_sample(ds, 3, 1)
        spectra = mutant_spectra(ms, ds, sample)
        assert spectra.values.shape == (3, random_net.num_outputs, len(sample))
        assert np.isfinite(spectra.values).all() and (spectra.values >= 0).all()


class TestDistanceSimilarity:
    def make_spectra(self, values):
        sample = SampleSet(np.arange(values.shape[2]), 1, 0)
        ids = tuple(range(values.shape[0]))
        from mutspect.spectra import SpectraSet

        return SpectraSet(ids, values, sample, TRANSFORM_DFT)

    def test_single_differing_output(self):
        values = np.zeros((2, 4, 3))
        values[1, 3, :] = [1.0, 2.0, 2.0]
        spectra = self.make_spectra(values)
        assert mutant_distance(0, 1, spectra) == pytest.approx(3.0)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(123)
        values = rng.uniform(0, 2, size=(2, 3, 4))
        spectra = self.make_spectra(values)
        expected = max(
            float(np.sqrt(np.sum((values[0, i] - values[1, i]) ** 2)))
            for i in range(3)
        )
        assert mutant_distance(0, 1, spectra) == pytest.approx(expected, abs=1e-12)
        assert mutant_similarity(0, 1, spectra) == pytest.approx(np.exp(-expected), abs=1e-12)

    def test_similarity_analytic_point(self):
        values = np.zeros((2, 1, 2))
        values[1, 0, 0] = np.log(2.0)
        spectra = self.make_spectra(values)
        assert mutant_similarity(0, 1, spectra) == pytest.approx(0.5, abs=1e-12)

    def test_missing_mutant(self):
        spectra = self.make_spectra(np.zeros((2, 1, 2)))
        with pytest.raises(MissingMutantError):
            mutant_distance(0, 9, spectra)

    def test_pseudometric_axioms_random(self):
        rng = np.random.default_rng(31)
        values = rng.uniform(0, 3, size=(3, 4, 6))
        spectra = self.make_spectra(values)
        d01 = mutant_distance(0, 1, spectra)
        d10 = mutant_distance(1, 0, spectra)
        d02 = mutant_distance(0, 2, spectra)
        d12 = mutant_distance(1, 2, spectra)
        assert d01 == d10 >= 0
        assert mutant_distance(0, 0, spectra) == 0.0
        assert d02 <= d01 + d12 + 1e-12
        # similarity orders pairs opposite to distance
        s01 = mutant_similarity(0, 1, spectra)
        s02 = mutant_similarity(0, 2, spectra)
        assert (d01 < d02) == (s01 > s02)


class TestSimilarityGraph:
    def test_two_identical_mutants_weight_one(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        a = gaussian_fuzz(random_net, 0, 0, 0.0, seed=1, mutant_id=0)
        b = gaussian_fuzz(random_net, 0, 0, 0.0, seed=2, mutant_id=1)
        ms = MutantSet(random_net, [a, b], 0)
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 1, 0))
        graph = build_similarity_graph(ms, spectra)
        assert list(graph.edges()) == [(0, 1, 1.0)]

    def test_completeness_and_symmetry(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 6, seed=6)
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 2, 3))
        graph = build_similarity_graph(ms, spectra)
        edges = list(graph.edges())
        assert len(edges) == 15  # C(6, 2)
        for a, b, w in edges:
            assert 0 < w <= 1
            assert graph.weight(a, b) == graph.weight(b, a) == w
            # brute-force pairwise recomputation
            assert w == pytest.approx(mutant_similarity(a, b, spectra), abs=1e-12)

    def test_self_edge_rejected(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 3, seed=1)
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 1, 0))
        graph = build_similarity_graph(ms, spectra)
        with pytest.raises(ParameterError):
            graph.weight(0, 0)

    def test_degenerate_graph(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        rec = gaussian_fuzz(random_net, 0, 0, 0.1, seed=1, mutant_id=0)
        ms = MutantSet(random_net, [rec], 0)
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 1, 0))
        with pytest.raises(DegenerateGraphError):
            build_similarity_graph(ms, spectra)

    def test_sample_hash_propagates(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 3, seed=1)
        sample = stratified_sample(ds, 1, 0)
        spectra = mutant_spectra(ms, ds, sample)
        graph = build_similarity_graph(ms, spectra)
        assert graph.sample_hash == sample.content_hash() == spectra.sample_hash


class TestSimilarityGraphValidation:
    def make(self, weights, ids=None):
        w = np.asarray(weights, dtype=np.float64)
        ids = tuple(range(w.shape[0])) if ids is None else ids
        return SimilarityGraph(ids, w, sample_hash="test", transform=TRANSFORM_DFT)

    def test_nan_weight(self):
        with pytest.raises(ValidationError):
            self.make([[1.0, np.nan], [np.nan, 1.0]])

    def test_infinite_or_out_of_range_weight(self):
        for bad in (np.inf, -np.inf, 1.5, -0.25):
            with pytest.raises(ValidationError):
                self.make([[1.0, bad], [bad, 1.0]])

    def test_ids_do_not_fit_table(self):
        with pytest.raises(ValidationError):
            self.make(np.eye(2), ids=(0, 1, 2))

    def test_non_square_table(self):
        with pytest.raises(ValidationError):
            self.make(np.ones((2, 3)), ids=(0, 1))

    def test_asymmetric_table(self):
        with pytest.raises(ValidationError):
            self.make([[1.0, 0.5], [np.nextafter(0.5, 1.0), 1.0]])

    def test_zero_weight_accepted(self):
        # exp(-distance) underflows to exactly 0 for very distant mutants
        assert self.make([[1.0, 0.0], [0.0, 1.0]]).weight(0, 1) == 0.0


class TestSpectraIO:
    def test_round_trip(self, tmp_path, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 4, seed=9)
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 2, 7))
        path = tmp_path / "spectra.npz"
        save_spectra(spectra, path)
        loaded = load_spectra(path)
        assert loaded.ids == spectra.ids
        assert loaded.transform == spectra.transform
        assert loaded.values.tobytes() == spectra.values.tobytes()
        assert loaded.sample.content_hash() == spectra.sample.content_hash()

    def test_misshaped_values_rejected(self):
        sample = SampleSet(np.arange(3), 1, 0)
        for shape in ((2, 4, 3), (3, 4, 2), (3, 3), (3, 4, 3, 1)):
            with pytest.raises(ValidationError):
                SpectraSet((0, 1, 2), np.zeros(shape), sample, TRANSFORM_DFT)

    def test_load_misshaped_npz(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            version=np.int64(1),
            ids=np.arange(3, dtype=np.int64),
            values=np.zeros((2, 4, 5)),  # two rows for three ids
            failed=np.zeros(0, dtype=np.int64),
            transform=np.asarray(TRANSFORM_DFT),
            sample_indices=np.arange(5, dtype=np.int64),
            sample_rate=np.int64(1),
            sample_seed=np.int64(0),
            sample_truncated=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(MutspectError):
            load_spectra(path)

    def test_spectra_from_outputs_matches_model_path(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 3, seed=5)
        sample = stratified_sample(ds, 2, 1)
        via_models = mutant_spectra(ms, ds, sample)
        from mutspect.model import batch_outputs

        outputs = {
            rec.mutant_id: batch_outputs(rec.model, ds.features[sample.indices])
            for rec in ms.mutants
        }
        via_outputs = spectra_from_outputs(outputs, sample)
        assert via_outputs.values.tobytes() == via_models.values.tobytes()

    def test_raw_transform_uses_output_columns(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 2, seed=5)
        sample = stratified_sample(ds, 2, 1)
        raw = mutant_spectra(ms, ds, sample, transform=TRANSFORM_RAW)
        from mutspect.model import batch_outputs

        for rec in ms.mutants:
            out = batch_outputs(rec.model, ds.features[sample.indices])
            np.testing.assert_array_equal(raw.vectors(rec.mutant_id), out.T)
