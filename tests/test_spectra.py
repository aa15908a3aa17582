import dataclasses

import numpy as np
import pytest
from scipy.spatial.distance import cdist, squareform

from mutspect.clustering import SimilarityGraph
from mutspect.dataset import LabeledDataset
from mutspect.errors import (
    DegenerateGraphError,
    MissingMutantError,
    NumericError,
    ParameterError,
    SpectraFailureError,
    ValidationError,
)
from mutspect.model import TILE_BYTES, _block_rows, count_forward_passes
from mutspect.mutants import gaussian_fuzz, generate_mutant_set, MutantSet
from mutspect.spectra import (
    TRANSFORM_DFT,
    TRANSFORM_RAW,
    SampleSet,
    SpectraSet,
    build_similarity_graph,
    dft_magnitude,
    mutant_distance,
    mutant_similarity,
    mutant_spectra,
    stratified_sample,
)
from mutspect.util import philox_rng

from conftest import exploding_mutant, reference_outputs, walk_world


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
        sample = stratified_sample(ds, 2, 0)
        assert len(sample) == 6
        for count in (2, 40):
            ms = generate_mutant_set(random_net, count, seed=3)
            with count_forward_passes() as counter:
                mutant_spectra(ms, ds, sample)
            assert counter.count == count * 6  # |M| * |S|, never |M| * |S| * q

    def test_forward_pass_budget_with_threads(self, random_net):
        # mutant_spectra has no pool of its own; callers may run it from threads
        from concurrent.futures import ThreadPoolExecutor

        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 40, seed=3)
        sample = stratified_sample(ds, 2, 0)
        with count_forward_passes() as counter:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(lambda _: mutant_spectra(ms, ds, sample), range(2)))
        assert counter.count == 2 * 40 * len(sample)
        serial = mutant_spectra(ms, ds, sample)
        for spectra in threaded:
            assert spectra.values.tobytes() == serial.values.tobytes()

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
        graph = build_similarity_graph(spectra)
        assert graph.ids == (0, 2)

    def test_empty_sample_raises_before_any_forward_pass(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 2, seed=8)
        with count_forward_passes() as counter:
            with pytest.raises(ValidationError, match="at least one point"):
                mutant_spectra(ms, ds, SampleSet(np.array([], dtype=np.int64), 1, 0))
        assert counter.count == 0

    def test_unknown_transform_raises_before_any_forward_pass(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 2, seed=8)
        with count_forward_passes() as counter:
            with pytest.raises(ParameterError, match="unknown transform 'fft'"):
                mutant_spectra(ms, ds, stratified_sample(ds, 1, 0), "fft")
        assert counter.count == 0

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
        graph = build_similarity_graph(spectra)
        assert graph.ids == (0, 1) and graph.weights.tolist() == [1.0]

    def test_completeness_and_symmetry(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 6, seed=6)
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 2, 3))
        graph = build_similarity_graph(spectra)
        assert graph.ids == tuple(sorted(ms.ids()))
        # one weight per pair, condensed: row by row over the upper triangle
        rows, cols = np.triu_indices(graph.n_nodes, k=1)
        assert len(rows) == len(graph.weights) == 15  # C(6, 2)
        for i, j, w in zip(rows, cols, graph.weights):
            assert 0 < w <= 1
            # brute-force pairwise recomputation
            a, b = graph.ids[i], graph.ids[j]
            assert w == pytest.approx(mutant_similarity(a, b, spectra), abs=1e-12)

    def test_degenerate_graph(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        rec = gaussian_fuzz(random_net, 0, 0, 0.1, seed=1, mutant_id=0)
        ms = MutantSet(random_net, [rec], 0)
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 1, 0))
        with pytest.raises(DegenerateGraphError):
            build_similarity_graph(spectra)


def reference_weights(values: np.ndarray) -> np.ndarray:
    """Square distance tables per output, their running maximum, and the
    upper triangle of exp(-distance) row by row: a test-side graph oracle."""
    n = len(values)
    delta = np.zeros((n, n))
    for output in range(values.shape[1]):
        feats = values[:, output]
        np.maximum(delta, cdist(feats, feats), out=delta)
    return np.exp(-delta)[np.triu_indices(n, k=1)]


def graph_of(values: np.ndarray) -> SimilarityGraph:
    n, _, s = values.shape
    return build_similarity_graph(SpectraSet(tuple(range(n)), values, SampleSet(np.arange(s), 1, 0),
                                             TRANSFORM_DFT))


def random_shapes(count: int, seed: int = 0):
    """(n, q, |S|) with n in 2..200, q in 1..10 and |S| in 1..1600, |S|
    shrunk so that one graph stays below 2e7 squared-difference terms."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, q, s = int(rng.integers(2, 201)), int(rng.integers(1, 11)), int(rng.integers(1, 1601))
        yield n, q, max(1, min(s, 20_000_000 // (n * n * q)))


@pytest.mark.oldest_supported
class TestGraphOracle:
    """build_similarity_graph keeps its maximum over outputs on condensed
    distances; its condensed weights must equal the upper triangle of
    square-table ones bit for bit, and ``squareform`` must expand them to
    that table.  CI runs these on the lowest supported scipy as well."""

    @pytest.mark.parametrize("shape", [(2, 1, 1), (2, 10, 1600), (200, 1, 1), (200, 10, 1600),
                                       *random_shapes(25)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_weights_match_square_distance_tables(self, shape):
        n, q, s = shape
        rng = np.random.default_rng(n * 7919 + q * 31 + s)
        values = rng.uniform(0, 2, size=shape) * 10.0 ** rng.integers(-3, 2, size=(n, 1, 1))
        values[n - 1] = values[0]  # duplicate signatures
        if n > 3:
            values[2] += 1e3  # far from every other mutant: exp(-d) underflows to 0
        graph = graph_of(values)
        expected = reference_weights(values)
        assert graph.weights.tobytes() == expected.tobytes()
        square = squareform(graph.weights)
        mirrored = np.zeros((n, n))
        mirrored[np.triu_indices(n, k=1)] = expected
        assert square.tobytes() == (mirrored + mirrored.T).tobytes()
        assert square[0, n - 1] == square[n - 1, 0] == 1.0
        if n > 3:
            assert square[2, 1] == square[1, 2] == 0.0

    def test_non_contiguous_values_view(self):
        rng = np.random.default_rng(5)
        base = rng.uniform(0, 3, size=(40, 6, 50))
        # strided along every axis (SpectraSet keeps a contiguous copy, whose
        # per-output views the graph reads are strided in turn)
        values = base[::-2, 1::2, ::3]
        assert not values.flags.c_contiguous
        values[7] = values[3]
        graph = graph_of(values)
        assert graph.weights.tobytes() == reference_weights(values).tobytes()
        assert squareform(graph.weights)[3, 7] == 1.0


class TestSimilarityGraphValidation:
    """Tables are condensed: one weight per pair of ids."""

    def make(self, weights, ids=(0, 1)):
        return SimilarityGraph(ids, np.asarray(weights, dtype=np.float64))

    def test_nan_weight(self):
        with pytest.raises(ValidationError):
            self.make([np.nan])

    def test_infinite_or_out_of_range_weight(self):
        for bad in (np.inf, -np.inf, 1.5, -0.25):
            with pytest.raises(ValidationError):
                self.make([bad])
            with pytest.raises(ValidationError):
                self.make([0.5, bad, 0.5], ids=(0, 1, 2))

    def test_ids_do_not_fit_table(self):
        with pytest.raises(ValidationError):
            self.make([0.5], ids=(0, 1, 2))

    def test_non_square_table(self):
        with pytest.raises(ValidationError):
            self.make(np.ones((2, 3)), ids=(0, 1))

    def test_wrong_length_table(self):
        # n(n-1)/2 weights for n ids; a square table is not a condensed one
        for n, length in ((0, 1), (1, 1), (2, 0), (2, 2), (4, 5), (4, 7)):
            with pytest.raises(ValidationError, match="does not condense"):
                self.make(np.full(length, 0.5), ids=tuple(range(n)))
        for n in (1, 2, 4):
            with pytest.raises(ValidationError, match="does not condense"):
                self.make(np.eye(n), ids=tuple(range(n)))
        assert [self.make(np.full(n * (n - 1) // 2, 0.5), tuple(range(n))).n_nodes
                for n in (0, 1, 2, 4)] == [0, 1, 2, 4]

    def test_zero_weight_accepted(self):
        # exp(-distance) underflows to exactly 0 for very distant mutants
        assert self.make([0.0]).weights.tolist() == [0.0]


class TestSpectraIO:
    def test_misshaped_values_rejected(self):
        sample = SampleSet(np.arange(3), 1, 0)
        for shape in ((2, 4, 3), (3, 4, 2), (3, 3), (3, 4, 3, 1)):
            with pytest.raises(ValidationError):
                SpectraSet((0, 1, 2), np.zeros(shape), sample, TRANSFORM_DFT)

    def test_members_follow_the_rows(self):
        # each row's members start with the row's own id; the graph's nodes
        # are every member, each pair at its rows' weight and twins at 1.0
        sample = SampleSet(np.arange(3), 1, 0)
        values = np.arange(18.0).reshape(2, 3, 3)
        for members in (((1, 4), (0,)), ((0, 4),), ((0,), (1,), (2,))):
            with pytest.raises(ValidationError, match="members"):
                SpectraSet((0, 1), values, sample, TRANSFORM_DFT, members=members)
        spectra = SpectraSet((0, 1), values, sample, TRANSFORM_DFT, members=((0, 4), (1, 2)))
        graph = build_similarity_graph(spectra)
        w = float(np.exp(-np.sqrt(81.0 * 3)))
        assert graph.ids == (0, 1, 2, 4)
        assert graph.weights.tolist() == pytest.approx([w, w, 1.0, 1.0, w, w])

    def test_raw_transform_uses_output_columns(self, random_net):
        ds = blob_dataset(dim=random_net.input_dim)
        ms = generate_mutant_set(random_net, 2, seed=5)
        sample = stratified_sample(ds, 2, 1)
        raw = mutant_spectra(ms, ds, sample, transform=TRANSFORM_RAW)
        from mutspect.model import batch_outputs

        for rec in ms.mutants:
            out = batch_outputs(rec.model, ds.features[sample.indices])
            np.testing.assert_array_equal(raw.vectors(rec.mutant_id), out.T)


class TestStreamedAssembly:
    """mutant_spectra writes each mutant's features into one preallocated
    array and trims it to the usable rows; pinned against per-mutant
    reference rows."""

    @staticmethod
    def exploding(net):
        import mutspect.model as mm

        layers = [mm.DenseLayer(np.full_like(layer.weights, 1e200),
                                np.full_like(layer.biases, 1e200), layer.activation)
                  for layer in net.layers]
        return mm.FcnnClassifier(tuple(layers))

    @staticmethod
    def reference_rows(mutant_set, ds, sample, transform=TRANSFORM_DFT):
        from mutspect.model import batch_outputs

        rows = {}
        for rec in mutant_set.mutants:
            out = batch_outputs(rec.model, ds.features[sample.indices])
            if np.isfinite(out).all():
                rows[rec.mutant_id] = (np.abs(np.fft.fft(out, axis=0)).T
                                       if transform == TRANSFORM_DFT else out.T)
        return rows

    def mixed_set(self, net, order):
        from mutspect.mutants import MutantRecord, MutatorKind

        records = {
            m: gaussian_fuzz(net, 0, m % 3, 0.2, seed=m, mutant_id=m) for m in (2, 5, 9)
        }
        records[0] = MutantRecord(0, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0,
                                  self.exploding(net))
        return MutantSet(net, [records[m] for m in order], 0)

    @pytest.mark.parametrize("transform", [TRANSFORM_DFT, TRANSFORM_RAW])
    def test_quarantined_first_and_out_of_order_set(self, random_net, transform):
        ds = blob_dataset(dim=random_net.input_dim)
        sample = stratified_sample(ds, 3, 4)
        ms = self.mixed_set(random_net, order=(9, 0, 5, 2))
        spectra = mutant_spectra(ms, ds, sample, transform)
        assert spectra.failed == (0,)
        assert spectra.ids == (2, 5, 9)
        rows = self.reference_rows(ms, ds, sample, transform)
        expected = np.stack([rows[m] for m in (2, 5, 9)])
        assert spectra.values.tobytes() == expected.tobytes()

    def test_all_quarantined_models_keep_shape(self, random_net):
        from mutspect.mutants import MutantRecord, MutatorKind

        ds = blob_dataset(dim=random_net.input_dim)
        sample = stratified_sample(ds, 2, 0)
        records = [MutantRecord(m, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0,
                                self.exploding(random_net)) for m in (4, 1)]
        spectra = mutant_spectra(MutantSet(random_net, records, 0), ds, sample)
        assert spectra.failed == (1, 4)
        assert spectra.values.shape == (0, random_net.num_outputs, len(sample))

    def test_graph_nodes_are_the_spectra_rows(self, random_net):
        # quarantined first and out of order: the graph's nodes are exactly
        # spectra.ids, and each weight is read from those mutants' rows
        ds = blob_dataset(dim=random_net.input_dim)
        ms = self.mixed_set(random_net, order=(9, 0, 5, 2))
        spectra = mutant_spectra(ms, ds, stratified_sample(ds, 3, 1))
        graph = build_similarity_graph(spectra)
        assert graph.ids == spectra.ids == (2, 5, 9)
        for i, j, w in zip(*np.triu_indices(3, k=1), graph.weights):
            assert w == pytest.approx(
                mutant_similarity(graph.ids[i], graph.ids[j], spectra), rel=1e-12, abs=0)

    def test_peak_memory_is_one_values_array(self, random_net):
        import tracemalloc

        ds = blob_dataset(n=1200, dim=random_net.input_dim)
        sample = stratified_sample(ds, 200, 0)
        ms = generate_mutant_set(random_net, 60, seed=3)
        tracemalloc.start()
        try:
            spectra = mutant_spectra(ms, ds, sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_mutant = len(sample) * random_net.num_outputs * 8
        assert spectra.values.shape == (60, random_net.num_outputs, 600)
        assert peak < 1.5 * spectra.values.nbytes + one_mutant


# ---------------------------------------------------------------------------
# The signature walk.  mutant_spectra runs every mutant through one walk of
# the forward engine, each resuming at its first changed layer; its spectra
# must equal a full-set reference per mutant (reference_outputs, then one FFT
# per output) bit for bit.  CI runs these a second time with one BLAS thread.
# ---------------------------------------------------------------------------


@pytest.mark.one_blas_thread
class TestSpectraWalkOracle:
    @pytest.fixture(scope="class")
    def world(self):
        original, records, _ = walk_world()
        # walk_world's records (a no-op, the original itself, a -0.0-only
        # change, explosions at layer 0 and at the output) between mutants
        # that explode on every point: quarantine first and last
        shifted = [dataclasses.replace(r, mutant_id=r.mutant_id + 1) for r in records]
        ends = [exploding_mutant(original, 0), exploding_mutant(original, len(records) + 1)]
        sets = {
            "mixed": MutantSet(original, [ends[1], *shifted[::-1], ends[0]], 0),
            "all-quarantined": MutantSet(original, ends, 0),
        }
        rows = _block_rows(64)
        points = np.random.default_rng(7).normal(size=(rows + 1, original.input_dim))
        ds = LabeledDataset(points, np.zeros(rows + 1, dtype=np.int64), 1)
        return sets, ds, rows

    @staticmethod
    def reference(mutant_set, points, transform):
        ids, failed, rows = [], [], []
        for record in sorted(mutant_set.mutants, key=lambda m: m.mutant_id):
            out = reference_outputs(record.model, points)
            if not np.isfinite(out).all():
                failed.append(record.mutant_id)
                continue
            ids.append(record.mutant_id)
            if transform == TRANSFORM_DFT:
                rows.append([np.abs(np.fft.fft(column)) for column in out.T])
            else:
                rows.append(out.T)
        values = np.array(rows).reshape(len(ids), mutant_set.original.num_outputs, len(points))
        return tuple(ids), tuple(failed), values

    @pytest.mark.parametrize("transform", [TRANSFORM_DFT, TRANSFORM_RAW])
    @pytest.mark.parametrize("size", ["1", "R", "R+1"])
    @pytest.mark.parametrize("which", ["mixed", "all-quarantined"])
    def test_spectra_match_the_full_set_reference(self, world, which, size, transform):
        sets, ds, rows = world
        mutant_set = sets[which]
        n = {"1": 1, "R": rows, "R+1": rows + 1}[size]
        sample = SampleSet(np.arange(n), n, 0)
        with count_forward_passes() as counter:
            spectra = mutant_spectra(mutant_set, ds, sample, transform)
        assert counter.count == len(mutant_set) * n
        ids, failed, values = self.reference(mutant_set, ds.features[:n], transform)
        assert spectra.ids == ids
        assert spectra.failed == failed
        assert spectra.values.tobytes() == values.tobytes()
        first, last = min(mutant_set.ids()), max(mutant_set.ids())
        assert failed[0] == first and failed[-1] == last  # quarantined first and last
        if which == "all-quarantined":
            assert ids == ()
        elif n > 1:
            # walk_world's explosions at layer 0 and at the output reach the sample
            assert {last - 3, last - 2} <= set(failed)


# ---------------------------------------------------------------------------
# Softmax, quarantine and FFT run over chunks of TILE_BYTES of consecutive
# mutants.  Sets one mutant short of a chunk, a full chunk and one past it,
# with quarantined mutants at the chunk edges, must give the per-mutant
# reference bit for bit.  CI runs these on one BLAS thread and on the lowest
# supported numpy as well.
# ---------------------------------------------------------------------------


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestSpectraChunkOracle:
    SAMPLE = 600  # with 3 outputs: 14,400 bytes per mutant

    @pytest.fixture(scope="class")
    def world(self):
        from conftest import small_stack

        original = small_stack(seed=42)
        chunk = TILE_BYTES // (original.num_outputs * self.SAMPLE * 8)
        assert chunk == 4
        points = np.random.default_rng(3).normal(size=(self.SAMPLE, original.input_dim))
        ds = LabeledDataset(points, np.zeros(self.SAMPLE, dtype=np.int64), 1)
        return original, ds, chunk

    @pytest.mark.parametrize("transform", [TRANSFORM_DFT, TRANSFORM_RAW])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 5])
    @pytest.mark.parametrize("edges", ["none", "chunk-edges", "all-but-one"])
    def test_spectra_match_the_reference_around_the_chunk(self, world, extra, edges, transform):
        original, ds, chunk = world
        count = chunk + extra
        # quarantined: the first and last mutant of each chunk, or every
        # mutant but the last one
        exploding = {
            "none": set(),
            "chunk-edges": {m for m in range(count) if m % chunk in (0, chunk - 1)},
            "all-but-one": set(range(count - 1)),
        }[edges]
        records = [exploding_mutant(original, m) if m in exploding
                   else gaussian_fuzz(original, m % 3, m // 3 % 3, 0.5, seed=m, mutant_id=m)
                   for m in range(count)]
        mutant_set = MutantSet(original, records[::-1], 0)
        sample = SampleSet(np.arange(self.SAMPLE), self.SAMPLE, 0)
        spectra = mutant_spectra(mutant_set, ds, sample, transform)
        ids, failed, values = TestSpectraWalkOracle.reference(mutant_set, ds.features, transform)
        assert spectra.failed == failed == tuple(sorted(exploding))
        assert spectra.ids == ids
        assert spectra.values.tobytes() == values.tobytes()
