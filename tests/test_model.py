import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspect.errors import FormatError, ShapeError, ValidationError
from mutspect.model import (
    RELU,
    SOFTMAX,
    DenseLayer,
    FcnnClassifier,
    batch_outputs,
    count_forward_passes,
    deserialize_model,
    forward_blocks,
    load_model,
    model_hash,
    predicted_classes,
    predictions_with_flags,
    save_model,
    serialize_model,
)
from mutspect.model import (
    _activate,
    _block_rows,
    _class_sum,
    _first_change,
    _resume,
    _row_blocks,
    agrees,
    class_softmax,
)

from conftest import (
    WALK_SIZES,
    _replace_layer,
    exploding_mutant,
    reference_classes,
    reference_logits,
    reference_outputs,
    reference_predictions,
    reference_softmax,
    small_stack,
    tile_world,
    walk_world,
)

# Hand-computed oracle for the 2-2-2 fixture net on input [0.8, -0.4]:
#   z0 = [0.6, 0.36], relu keeps both
#   z1 = [0.086, 0.046]
#   softmax -> values below (independent scalar arithmetic)
HAND_INPUT = np.array([0.8, -0.4])
HAND_OUTPUT = np.array([0.5099986668799654, 0.4900013331200346])


def test_forward_zero_weights_uniform(zero_net):
    out = batch_outputs(zero_net, np.zeros((1, 4)))[0]
    np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-12)


def test_forward_identity_symmetry():
    net = FcnnClassifier((DenseLayer(np.eye(2), np.zeros(2), SOFTMAX),))
    np.testing.assert_allclose(batch_outputs(net, [[0.0, 0.0]])[0], [0.5, 0.5], atol=1e-12)


def test_forward_matches_hand_computation(fixture_net):
    out = batch_outputs(fixture_net, HAND_INPUT[None, :])[0]
    np.testing.assert_allclose(out, HAND_OUTPUT, atol=1e-9)


def test_forward_shape_error(fixture_net):
    with pytest.raises(ShapeError):
        batch_outputs(fixture_net, np.zeros((1, 3)))


def test_forward_pure(fixture_net):
    a = batch_outputs(fixture_net, HAND_INPUT[None, :])
    b = batch_outputs(fixture_net, HAND_INPUT[None, :])
    assert a.tobytes() == b.tobytes()


def test_softmax_rows_valid(random_net):
    rng = np.random.default_rng(3)
    points = rng.normal(size=(40, random_net.input_dim))
    out = batch_outputs(random_net, points)
    assert np.all(out >= 0) and np.all(out <= 1)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_predict_tie_breaks_to_lowest_index():
    net = FcnnClassifier((DenseLayer(np.zeros((2, 2)), np.zeros(2), SOFTMAX),))
    assert predictions_with_flags(net, [[1.0, 2.0]]).tolist() == [0]


def test_predict_unique_max(fixture_net):
    assert predictions_with_flags(fixture_net, HAND_INPUT[None, :]).tolist() == [
        int(np.argmax(HAND_OUTPUT))
    ]


def test_predict_invariant_under_logit_rescaling(random_net):
    # scaling the final layer by c > 0 is a strictly monotone logit map
    rng = np.random.default_rng(11)
    last = random_net.layers[-1]
    for c in (0.5, 2.0, 7.5):
        scaled = FcnnClassifier(
            random_net.layers[:-1]
            + (DenseLayer(c * last.weights, c * last.biases, SOFTMAX),)
        )
        x = rng.normal(size=(20, random_net.input_dim))
        np.testing.assert_array_equal(
            predictions_with_flags(random_net, x), predictions_with_flags(scaled, x)
        )


def test_batch_outputs_empty(random_net):
    out = batch_outputs(random_net, np.empty((0, random_net.input_dim)))
    assert out.shape == (0, random_net.num_outputs)
    with count_forward_passes() as counter:
        points = np.empty((0, random_net.input_dim))
        assert list(forward_blocks(random_net, [random_net], points)) == []
    assert counter.count == 0


def test_points_without_features_are_a_shape_error(random_net):
    # n > 0 points of width 0 are misshaped, not an empty batch
    with pytest.raises(ShapeError):
        batch_outputs(random_net, np.zeros((3, 0)))
    with pytest.raises(ShapeError):
        next(forward_blocks(random_net, [random_net], np.zeros((3, 0))))


def test_batch_outputs_single_point_matches_forward(random_net):
    x = np.linspace(-1, 1, random_net.input_dim)[None, :]
    np.testing.assert_array_equal(batch_outputs(random_net, x), reference_outputs(random_net, x))


def test_batch_outputs_matches_per_point_forward(fixture_net):
    rng = np.random.default_rng(5)
    points = rng.normal(size=(5, 2))
    out = batch_outputs(fixture_net, points)
    for i in range(5):
        np.testing.assert_allclose(out[i], batch_outputs(fixture_net, points[i : i + 1])[0],
                                   atol=1e-12)


def test_overflow_gives_a_non_finite_row_instead_of_raising():
    # a hidden layer that overflows on the second point only; the first row
    # stays the uniform softmax and predictions flag the second with -1
    net = FcnnClassifier(
        (
            DenseLayer(np.full((2, 2), 1e300), np.zeros(2), RELU),
            DenseLayer(np.full((2, 2), 1e300), np.zeros(2), SOFTMAX),
        )
    )
    points = np.array([[0.0, 0.0], [1e200, 1e200]])
    out = batch_outputs(net, points)
    np.testing.assert_array_equal(out[0], [0.5, 0.5])
    assert not np.isfinite(out[1]).any()
    assert predictions_with_flags(net, points).tolist() == [0, -1]


def test_forward_pass_counter(random_net):
    points = np.zeros((7, random_net.input_dim))
    with count_forward_passes() as counter:
        batch_outputs(random_net, points[:1])
        batch_outputs(random_net, points)
    assert counter.count == 8


def test_forward_pass_counter_exact_under_threads(random_net):
    from concurrent.futures import ThreadPoolExecutor

    point = np.zeros((1, random_net.input_dim))

    def work(_):
        for _ in range(500):
            batch_outputs(random_net, point)

    with count_forward_passes() as outer, count_forward_passes() as inner:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(8)))
    assert outer.count == inner.count == 8 * 500


def test_invalid_architectures_rejected():
    with pytest.raises(ValidationError):
        FcnnClassifier((DenseLayer(np.zeros((2, 2)), np.zeros(2), RELU),))  # no softmax
    with pytest.raises(ValidationError):
        FcnnClassifier(
            (
                DenseLayer(np.zeros((2, 2)), np.zeros(2), SOFTMAX),  # softmax not last
                DenseLayer(np.zeros((2, 2)), np.zeros(2), SOFTMAX),
            )
        )
    with pytest.raises(ValidationError):
        FcnnClassifier(
            (
                DenseLayer(np.zeros((3, 2)), np.zeros(3), RELU),
                DenseLayer(np.zeros((2, 4)), np.zeros(2), SOFTMAX),  # chain break
            )
        )
    with pytest.raises(ValidationError):
        DenseLayer(np.array([[np.inf, 0.0]]), np.zeros(1), RELU)
    for shape in ((0, 3), (3, 0), (0, 0)):  # zero-width layers
        with pytest.raises(ValidationError, match="dimensions must be positive"):
            DenseLayer(np.zeros(shape), np.zeros(shape[0]), SOFTMAX)


class TestLayerDigest:
    """Equal digests stand for equal activations, shapes and parameter bytes."""

    def test_layers_built_apart_from_equal_bytes_share_a_digest(self, random_net):
        layer = random_net.layers[0]
        twin = DenseLayer(layer.weights.copy(), layer.biases.copy(), layer.activation)
        assert twin is not layer and twin.digest == layer.digest
        assert layer.digest is layer.digest  # computed once per layer object
        # a model's key is its layers' digests, computed once per model object
        assert random_net.digests == tuple(x.digest for x in random_net.layers)
        assert random_net.digests is random_net.digests

    def test_a_negative_zero_differs_from_zero(self):
        zero, signed = np.zeros((2, 3)), np.zeros((2, 3))
        signed[1, 2] = -0.0
        parameters = ((zero, np.zeros(2)), (signed, np.zeros(2)), (zero, -np.zeros(2)))
        assert len({DenseLayer(w, b, RELU).digest for w, b in parameters}) == 3

    def test_a_changed_activation_differs(self, random_net):
        layer = random_net.layers[0]
        assert DenseLayer(layer.weights, layer.biases, SOFTMAX).digest != layer.digest

    def test_reshaped_weights_of_the_same_bytes_differ(self):
        w = np.arange(6.0)
        assert DenseLayer(w.reshape(2, 3), np.zeros(2), RELU).digest != \
            DenseLayer(w.reshape(3, 2), np.zeros(3), RELU).digest
        # parameters equal end to end: 6 weights and 2 biases against 4 and 4
        p = np.arange(8.0)
        assert DenseLayer(p[:6].reshape(2, 3), p[6:], RELU).digest != \
            DenseLayer(p[:4].reshape(4, 1), p[4:], RELU).digest


class TestModelFormat:
    def test_round_trip_bit_exact(self, tmp_path, random_net):
        path = tmp_path / "net.fcnn"
        save_model(random_net, path)
        loaded = load_model(path)
        assert model_hash(loaded) == model_hash(random_net)
        for a, b in zip(loaded.layers, random_net.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.biases.tobytes() == b.biases.tobytes()
            assert a.activation == b.activation

    def test_truncated_file(self, random_net):
        data = serialize_model(random_net)
        with pytest.raises(FormatError, match="byte"):
            deserialize_model(data[: len(data) - 5])

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="byte 0"):
            deserialize_model(b"NOPE" + b"\x00" * 16)

    def test_mismatched_layer_table(self, random_net):
        # header says layer 0 is (6 x 4) but declares a chain-breaking in_dim
        data = bytearray(serialize_model(random_net))
        # layer 1 header starts at 4 (magic) + 1 (version) + 4 (count) + 12
        offset = 4 + 1 + 4 + 12
        data[offset + 4 : offset + 8] = (99).to_bytes(4, "little")  # in_dim
        with pytest.raises((FormatError, ValidationError)):
            deserialize_model(bytes(data))

    def test_trailing_bytes(self, random_net):
        with pytest.raises(FormatError, match="trailing"):
            deserialize_model(serialize_model(random_net) + b"\x00")


def test_zero_width_layer_file_rejected():
    # one softmax layer of out_dim 0 over 3 inputs: it used to load and then
    # fail inside batch_outputs with a bare numpy ValueError
    data = b"FCNN" + struct.pack("<BI", 1, 1) + struct.pack("<III", 0, 3, 1)
    with pytest.raises(ValidationError, match="^layer 0: layer dimensions must be positive"):
        deserialize_model(data)


# ---------------------------------------------------------------------------
# .fcnn properties, in memory: the encoding, round trips, every truncation.
# ---------------------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)


def stack_of(dims):
    """Strategy: a classifier with layer widths ``dims`` (input width first)."""
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        act = SOFTMAX if i == len(dims) - 2 else RELU
        layers.append(
            st.tuples(st.lists(finite, min_size=d_in * d_out, max_size=d_in * d_out),
                      st.lists(finite, min_size=d_out, max_size=d_out))
            .map(lambda wb, shape=(d_out, d_in), act=act:
                 DenseLayer(np.array(wb[0]).reshape(shape), np.array(wb[1]), act))
        )
    return st.tuples(*layers).map(FcnnClassifier)


models = st.lists(st.integers(1, 4), min_size=2, max_size=5).flatmap(stack_of)


def reference_model_bytes(model: FcnnClassifier) -> bytes:
    """Reference encoding, field by field, as the format describes it."""
    codes = {RELU: 0, SOFTMAX: 1}
    head = b"FCNN" + struct.pack("<BI", 1, len(model.layers))
    head += b"".join(struct.pack("<III", *layer.weights.shape, codes[layer.activation])
                     for layer in model.layers)
    return head + b"".join(
        struct.pack(f"<{layer.weights.size}d", *layer.weights.ravel())
        + struct.pack(f"<{layer.biases.size}d", *layer.biases)
        for layer in model.layers
    )


@settings(max_examples=100, deadline=None)
@given(model=models)
def test_model_round_trip_matches_reference_encoding(model):
    data = serialize_model(model)
    assert data == reference_model_bytes(model)
    loaded = deserialize_model(data)
    assert len(loaded.layers) == len(model.layers)
    for a, b in zip(loaded.layers, model.layers):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.biases.tobytes() == b.biases.tobytes()
        assert a.activation == b.activation
    assert serialize_model(loaded) == data


def first_missing_model_part(length: int, model: FcnnClassifier) -> tuple[str, int]:
    """Reference: walk the parts in file order; the first one cut short."""
    parts = [("magic", 4), ("version", 1), ("layer count", 4)]
    parts += [(f"layer {i} shape", 12) for i in range(len(model.layers))]
    for i, layer in enumerate(model.layers):
        parts += [(f"layer {i} weights", 8 * layer.weights.size),
                  (f"layer {i} biases", 8 * layer.biases.size)]
    offset = 0
    for what, size in parts:
        if offset + size > length:
            return what, offset
        offset += size
    raise AssertionError("nothing is missing")


def test_every_model_truncation_raises_format_error(random_net):
    assert len(random_net.layers) == 3
    data = serialize_model(random_net)
    for cut in range(len(data)):
        what, offset = first_missing_model_part(cut, random_net)
        with pytest.raises(FormatError) as err:
            deserialize_model(data[:cut])
        assert str(err.value) == f"truncated model file: need {what} at byte {offset}"
    with pytest.raises(FormatError) as err:
        deserialize_model(data + b"\x00")
    assert str(err.value) == f"trailing bytes at offset {len(data)}"


# ---------------------------------------------------------------------------
# batch_outputs works in place on one array per layer; these pin it against
# a forward pass that allocates a new array at every step (conftest's
# reference_outputs).
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed, hidden", [(0, ()), (1, (6,)), (2, (9, 7)), (3, (16, 16, 8))])
def test_batch_outputs_bitwise_matches_allocating_reference(seed, hidden):
    from conftest import small_stack

    net = small_stack(seed=seed, input_dim=5, hidden=hidden, outputs=4)
    rng = np.random.default_rng(seed)
    points = np.vstack([
        rng.normal(size=(20, 5)),
        rng.normal(size=(6, 5)) * 1e3,  # logits far beyond exp() range: needs the shift
        np.full((1, 5), np.inf),
        np.full((1, 5), np.nan),
        np.full((1, 5), 1e306),
    ])
    logits = points[20:26]
    for layer in net.layers:
        logits = logits @ layer.weights.T + layer.biases
        if layer.activation == RELU:
            logits = np.maximum(logits, 0.0)
    assert np.abs(logits).max() > 710  # exp() would overflow without the shift
    expected = reference_outputs(net, points)
    assert np.isfinite(expected[:26]).all() and not np.isfinite(expected[26:28]).any()
    assert batch_outputs(net, points).tobytes() == expected.tobytes()


def test_batch_outputs_never_writes_the_points(random_net):
    rng = np.random.default_rng(8)
    points = rng.normal(size=(12, random_net.input_dim)) * 50
    before = points.copy()
    batch_outputs(random_net, points)
    assert points.tobytes() == before.tobytes()
    dim = random_net.input_dim
    single = FcnnClassifier((DenseLayer(np.eye(dim), np.zeros(dim), SOFTMAX),))
    frozen = before.copy()
    frozen.flags.writeable = False  # a read-only input must not be written to either
    np.testing.assert_array_equal(batch_outputs(single, frozen), reference_outputs(single, before))
    assert frozen.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# The row-blocked walk.  Every model's class-major logits must equal the
# transposed test-side reference over all points at once, bit for bit, at
# the default block budget; CI runs these a second time with one BLAS thread.
# ---------------------------------------------------------------------------


@pytest.mark.one_blas_thread
class TestWalkOracle:
    @pytest.fixture(scope="class")
    def world(self):
        return walk_world()

    def test_first_changed_layer_of_each_mutant(self, world):
        original, records, depths = world
        assert [_first_change(original, r.model) for r in records] == depths

    @pytest.mark.parametrize("size", WALK_SIZES.values(), ids=WALK_SIZES.keys())
    def test_every_model_matches_the_full_product(self, world, size):
        original, records, depths = world
        rows_per_block = _block_rows(64)
        n = size(rows_per_block)
        points = np.random.default_rng(n).normal(size=(n, original.input_dim))
        models = [r.model for r in records]
        parts, covered = [[] for _ in range(len(models) + 1)], []
        with count_forward_passes() as counter:
            # the original runs as the first model, as vanilla_test runs it
            for rows, members, logits in forward_blocks(original, [original, *models], points):
                if not covered or covered[-1] != rows:
                    covered.append(rows)
                for k, out in zip(members, logits):
                    parts[k].append(out)
                    if k and depths[k - 1] == len(original.layers):
                        # nothing left to run: a read-only view of the original's rows
                        assert np.shares_memory(out, parts[0][-1])
                        assert not out.flags.writeable
        assert counter.count == (len(models) + 1) * n
        assert covered == _row_blocks(n, rows_per_block)
        assert len(covered) == -(-n // rows_per_block)
        for model, blocks in zip([original, *models], parts):
            got = np.concatenate(blocks, axis=1)  # class-major, one column per point
            assert got.tobytes() == reference_logits(model, points).T.tobytes()
            # the engine stops at logits; its softmax over them is the full product's
            class_softmax(got)
            assert got.T.tobytes() == reference_outputs(model, points).tobytes()
        exploded = [reference_outputs(m, points) for m in models[-3:-1]]
        assert not all(np.isfinite(out).all() for out in exploded)  # the inputs do explode

    def test_tiles_read_after_the_whole_walk_keep_their_logits(self, world):
        # two blocks of one size: a tile computed only when read would take
        # the other block's activations and still have the right shape
        original, records, _ = world
        models = [original, *(r.model for r in records)]
        n = 2 * _block_rows(64)
        points = np.random.default_rng(2).normal(size=(n, original.input_dim))
        walk = list(forward_blocks(original, models, points))
        spans = sorted({(rows.start, rows.stop) for rows, _, _ in walk})
        assert spans == [(0, n // 2), (n // 2, n)]
        parts = [[] for _ in models]
        for _, members, logits in walk:
            for k, out in zip(members, logits):
                parts[k].append(out)
        for model, blocks in zip(models, parts):
            got = np.concatenate(blocks, axis=1)
            assert got.tobytes() == reference_logits(model, points).T.tobytes()

    def test_batch_outputs_matches_the_full_product_across_blocks(self, world):
        original = world[0]
        n = 3 * _block_rows(64) + 1
        points = np.random.default_rng(1).normal(size=(n, original.input_dim))
        assert batch_outputs(original, points).tobytes() == \
            reference_outputs(original, points).tobytes()

    def test_budget_gives_the_documented_rows(self):
        assert _block_rows(64) == 1024
        assert _block_rows(16) >= 2000  # a 2k-point test set is one block


# ---------------------------------------------------------------------------
# Tiles.  Models that share their resume depth, that layer's shape and
# activation and every later layer object run as one stacked matmul per
# layer.  Every model's logits must equal the test-side reference bit for
# bit whatever its tile, which rests on numpy's stacked matmul making the
# 2-D product's BLAS call per model; CI runs these on one BLAS thread and on
# the lowest supported numpy as well.
# ---------------------------------------------------------------------------


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestTileOracle:
    """Tiles hold at most TILE_BYTES // (8 * width * rows) models, so a
    budget of 512 * n * t bytes walks n rows at width 64 in tiles of t.  A
    walk of more than one block always has tiles of one: a block longer than
    R / 8 rows fills the budget alone."""

    @pytest.fixture(scope="class")
    def world(self):
        return tile_world()

    @staticmethod
    def walk(original, models, points, per_tile):
        """Each model's logits, checking the tiles: at most ``per_tile``
        models each, members ascending, a block's tiles together, the first
        model first, every model once per block.  Returns the logits and the
        last block's tiles."""
        parts = [[] for _ in models]
        starts, blocks = [], []  # per block, its first row and its tiles' members
        with count_forward_passes() as counter:
            for rows, members, logits in forward_blocks(original, models, points):
                assert 1 <= len(members) <= per_tile and members == sorted(members)
                assert logits.shape == (len(members), 5, rows.stop - rows.start)
                for k, out in zip(members, logits):
                    parts[k].append(out)
                if not starts or starts[-1] != rows.start:
                    starts.append(rows.start)
                    blocks.append([])
                blocks[-1].append(members)
        assert starts == sorted(set(starts))
        for seen in blocks:
            assert seen[0][0] == 0
            assert sorted(k for members in seen for k in members) == list(range(len(models)))
        assert counter.count == len(models) * len(points)
        return [np.concatenate(blocks, axis=1) for blocks in parts], blocks[-1]

    @pytest.mark.parametrize("n", [1, 2, 5, 37])
    @pytest.mark.parametrize("tile", ["1", "2", "all"])
    def test_every_model_matches_the_reference(self, world, monkeypatch, n, tile):
        import mutspect.model as model_module

        original, models, alone = world
        per_tile = {"1": 1, "2": 2, "all": len(models)}[tile]
        monkeypatch.setattr(model_module, "TILE_BYTES", 512 * n * per_tile)
        points = np.random.default_rng(n).normal(size=(n, original.input_dim))
        got, tiles = self.walk(original, models, points, per_tile)
        if tile == "all":  # one tile per group: the odd models run alone
            assert all([k] in tiles for k in alone)
            assert len(tiles) < len(models) / 2
        for model, logits in zip(models, got):
            assert logits.tobytes() == reference_logits(model, points).T.tobytes()
        assert not np.isfinite(got[-1]).any()  # the exploding model

    def test_multi_block_walk_matches_the_reference(self, world):
        original, models, _ = world
        points = np.random.default_rng(4).normal(size=(3 * _block_rows(64) + 1, 12))
        got, _ = self.walk(original, models, points, 1)
        for model, logits in zip(models, got):
            assert logits.tobytes() == reference_logits(model, points).T.tobytes()

    def test_byte_duplicates_share_a_tile(self, world):
        original, models, _ = world
        points = np.zeros((5, original.input_dim))
        tiles = [members for rows, members, _ in forward_blocks(original, models, points)
                 if rows.start == 0]
        twins = [len(models) - 6, len(models) - 5]
        assert any(set(twins) <= set(members) for members in tiles)

    def test_spectra_equal_the_per_model_walk(self, world, monkeypatch):
        import mutspect.model as model_module
        from mutspect.dataset import LabeledDataset
        from mutspect.mutants import MutantRecord, MutantSet, MutatorKind
        from mutspect.spectra import mutant_spectra, stratified_sample

        original, models, _ = world
        records = [MutantRecord(i, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0, m)
                   for i, m in enumerate(models)]
        mutants = MutantSet(original, records, 0)
        rng = np.random.default_rng(3)
        ds = LabeledDataset(rng.normal(size=(400, original.input_dim)),
                            rng.integers(0, 5, 400), 5)
        for x in (1, 2, 8, 80):
            sample = stratified_sample(ds, x, x)
            tiled = mutant_spectra(mutants, ds, sample)
            with monkeypatch.context() as patch:
                patch.setattr(model_module, "TILE_BYTES", 0)  # tiles of one
                alone = mutant_spectra(mutants, ds, sample)
            assert tiled.failed and tiled.failed == alone.failed and tiled.ids == alone.ids
            assert tiled.values.tobytes() == alone.values.tobytes()

    def test_budget_gives_the_documented_tiles(self):
        from mutspect import mutants as mu

        original = small_stack(seed=1, input_dim=12, hidden=(16, 16), outputs=5)
        twins = [mu.gaussian_fuzz(original, 1, 2, 1.0, seed=3).model for _ in range(500)]
        for n, sizes in ((5, [102] * 4 + [92]), (2000, [1] * 500)):  # x = 1 signatures; a tester block
            walk = forward_blocks(original, twins, np.zeros((n, 12)))
            assert [len(members) for rows, members, _ in walk if rows.start == 0] == sizes


# the row split that every walk oracle runs on, rerun beside them
@pytest.mark.one_blas_thread
@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 100_000), rows=st.integers(1, 5_000))
def test_row_blocks_split_rule(n, rows):
    blocks = _row_blocks(n, rows)
    assert len(blocks) == -(-n // rows)
    assert blocks[0].start == 0 and blocks[-1].stop == n
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    sizes = [b.stop - b.start for b in blocks]
    assert max(sizes) <= rows and max(sizes) - min(sizes) <= 1
    if n > rows:
        # BLAS sends short products to other kernels, whose last bits differ
        assert min(sizes) >= rows / 2


# ---------------------------------------------------------------------------
# Softmax and predictions reduce over the class axis of class-major logits.  Below
# 8 classes its class sums must repeat numpy's own row-sum order, and from 8
# on they are numpy's row sums of a row-major copy, so these pin them against
# numpy's reductions over the row-major block, bit for bit.  CI runs them on
# the lowest supported numpy as well.
# ---------------------------------------------------------------------------


def class_major(rows: np.ndarray) -> np.ndarray:
    """A class-major (q, n) copy of row-major (n, q) logits, as the engine yields them."""
    return np.ascontiguousarray(rows.T)


def nan_blind_bytes(a: np.ndarray) -> bytes:
    """The bytes of ``a`` with every NaN replaced by one quiet NaN.  numpy's
    row maximum may return a NaN of its own rather than the operand's, so
    the sign bit of NaN entries is not pinned; a row holding a NaN is wholly
    NaN, and every caller flags or quarantines such a row."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.oldest_supported
class TestClassAxisOracle:
    CLASS_COUNTS = (1, 2, 7, 8, 9, 16, 127, 128, 129, 300)

    def test_class_sum_matches_numpy_row_sums(self):
        rng = np.random.default_rng(0)
        for q in range(1, 301):
            for rows in (1, 37):
                x = rng.normal(size=(rows, q)) * 10.0 ** rng.integers(-8, 8, size=(rows, q))
                x[rng.random(x.shape) < 0.1] = -0.0
                x[0, rng.random(q) < 0.1] = 0.0
                if rows > 1:
                    x[1] = -0.0  # sums to +0.0
                    x[2, -1] = np.inf
                    x[3, 0] = np.nan
                got = _class_sum(np.ascontiguousarray(x.T))
                assert got.tobytes() == np.sum(x, axis=-1).tobytes(), (q, rows)

    @staticmethod
    def softmax_layer(q: int, seed: int) -> FcnnClassifier:
        """One softmax layer on 3 inputs; for q >= 2 its first and middle
        classes are tied on every point, and for q >= 3 its last class has a
        weight of 0 on the first input (so inf * 0 makes a NaN logit)."""
        rng = np.random.default_rng(seed)
        w, b = rng.normal(size=(q, 3)), rng.normal(size=q)
        b[::3] = -0.0
        w[q // 2], b[q // 2] = w[0], b[0]
        if q >= 3:
            w[-1, 0] = 0.0
        return FcnnClassifier((DenseLayer(w, b, SOFTMAX),))

    @staticmethod
    def hard_points(seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        inf, nan = np.inf, np.nan
        return np.vstack([
            rng.normal(size=(40, 3)),
            rng.normal(size=(10, 3)) * 1e3,  # logits beyond exp() range
            [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 1.0]],
            [[nan, 0.0, 0.0], [0.0, 0.0, nan]],  # NaN logits
            [[inf, 0.0, 0.0], [-inf, 0.0, 0.0], [0.0, inf, -inf]],  # +inf and -inf logits
            [[1e306, 1e306, 1e306], [-1e306, 0.0, 1e306]],
        ])

    @pytest.mark.parametrize("q", CLASS_COUNTS)
    def test_softmax_rows_match_the_reference(self, q):
        model = self.softmax_layer(q, seed=q)
        points = self.hard_points(seed=q)
        expected = reference_outputs(model, points)
        got = batch_outputs(model, points)
        assert nan_blind_bytes(got) == nan_blind_bytes(expected)
        finite = np.isfinite(expected).all(axis=1)
        assert finite[:53].all() and not finite[53:58].any()  # the inputs are hard ones
        if q >= 2:
            assert (expected[finite, 0] == expected[finite, q // 2]).all()  # exact ties

    def test_all_equal_logits_give_uniform_rows(self):
        for q in self.CLASS_COUNTS:
            model = FcnnClassifier((DenseLayer(np.ones((q, 2)), np.full(q, -0.0), SOFTMAX),))
            points = np.array([[0.0, 0.0], [-0.0, -0.0], [2.5, -1.0], [1e308, 1e308]])
            expected = reference_outputs(model, points)
            assert nan_blind_bytes(batch_outputs(model, points)) == nan_blind_bytes(expected)
            assert (expected[:3] == expected[0, 0]).all()

    @pytest.mark.parametrize("q", CLASS_COUNTS)
    def test_predicted_classes_match_the_reference(self, q):
        model = self.softmax_layer(q, seed=q)
        points = self.hard_points(seed=q)
        got = predicted_classes(class_major(batch_outputs(model, points)))
        np.testing.assert_array_equal(got, reference_predictions(model, points))
        assert (got[53:58] == -1).all()
        if q >= 2:
            assert not (got == q // 2).any()  # ties go to the lower index


# ---------------------------------------------------------------------------
# The engine stops at logits, and predicted_classes reads the softmax argmax
# off them without computing the softmax.  These pin it against the argmax
# of the reference softmax on the inputs where the two could part: exact
# ties, entries a hair below or above the maximum, non-finite entries and
# shifts that overflow.  CI runs them on one BLAS thread and on the lowest
# supported numpy as well.
# ---------------------------------------------------------------------------

TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
# row maxima: ordinary, signed zeros, subnormal, huge, and where the spacing
# of floats passes 2**-41 and 2**-39
ANCHORS = (0.0, -0.0, 1.0, -3.25, 17.5, TINY, 1e-310, 1e308, -1e308, 2.0 ** 11, 2.0 ** 13,
           -(2.0 ** 13))
# an entry at the maximum, then 1 ulp, 2**-52, 2**-41 (inside the guard) and
# 2**-39 (outside it) below or above it
STEPS = ("tie", "ulp", 2.0 ** -52, 2.0 ** -41, 2.0 ** -39)
SPECIALS = (np.nan, np.inf, -np.inf, 1e308, -1e308, -0.0, 0.0, TINY, -TINY)


def near(anchor: float, step, sign: int) -> float:
    if step == "tie":
        return anchor
    if step == "ulp":
        return float(np.nextafter(anchor, sign * np.inf))
    return anchor + sign * step


@st.composite
def logit_blocks(draw, q=None, n=None):
    """Blocks of q = 1..300 logits per row (1..6 rows), unless given, each row
    built around a maximum with near-ties placed before and after it, some
    with special values."""
    q = draw(st.integers(1, 300)) if q is None else q
    n = draw(st.integers(1, 6)) if n is None else n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(n):
        anchor = draw(st.sampled_from(ANCHORS))
        spread = draw(st.sampled_from((1e-300, 1e-12, 1.0, 1e300)))
        with np.errstate(over="ignore"):
            row = anchor - np.abs(rng.normal(size=q)) * spread
        row[draw(st.integers(0, q - 1))] = anchor
        for step, sign, at in draw(st.lists(st.tuples(st.sampled_from(STEPS),
                                                      st.sampled_from((-1, 1)),
                                                      st.integers(0, q - 1)), max_size=4)):
            row[at] = near(anchor, step, sign)
        for value, at in draw(st.lists(st.tuples(st.sampled_from(SPECIALS),
                                                 st.integers(0, q - 1)), max_size=2)):
            row[at] = value
        rows.append(row)
    return np.array(rows)


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestPredictionOracle:
    @settings(max_examples=400, deadline=None)
    @given(logits=logit_blocks())
    def test_predicted_classes_match_the_reference_softmax(self, logits):
        t = class_major(logits)
        got = predicted_classes(t)
        assert t.tobytes() == class_major(logits).tobytes()  # the logits are not written
        np.testing.assert_array_equal(got, reference_classes(reference_softmax(logits)))

    def test_near_ties_need_the_softmax(self):
        # exp(-1e-20) rounds to 1, so the softmax ties the two classes and its
        # argmax is the lower index, although the logits' argmax is not
        logits = np.array([[-1e-20, 0.0], [0.0, -1e-20], [-(2.0 ** -39), 0.0]])
        assert logits.argmax(axis=1).tolist() == [1, 0, 1]
        assert reference_classes(reference_softmax(logits)).tolist() == [0, 0, 1]
        assert predicted_classes(class_major(logits)).tolist() == [0, 0, 1]

    def test_every_near_step_at_every_anchor(self):
        # each anchor with an entry one step below or above it, before and
        # after it, beside a filler class far below
        rows = []
        for anchor in ANCHORS:
            low = -1e308 if anchor > -1e300 else -np.inf
            for step in STEPS:
                for sign in (-1, 1):
                    other = near(anchor, step, sign)
                    rows += [[other, anchor, low], [anchor, other, low]]
        logits = np.array(rows)
        np.testing.assert_array_equal(predicted_classes(class_major(logits)),
                                      reference_classes(reference_softmax(logits)))

    def test_non_finite_rows_are_flagged(self):
        logits = np.array([[np.nan, 0.0], [0.0, np.inf], [-np.inf, -np.inf],
                           [1e308, -1e308], [-np.inf, 0.0], [-0.0, 0.0]])
        assert predicted_classes(class_major(logits)).tolist() == [-1, -1, -1, 0, 1, 0]
        np.testing.assert_array_equal(predicted_classes(class_major(logits)),
                                      reference_classes(reference_softmax(logits)))


@st.composite
def agreement_tiles(draw):
    """An original's row-major logits (n, q) with a finite maximum on every
    row, and 1..4 models' logits (models, n, q) beside it: copies of the
    original, copies with entries moved a near step off their row's maximum
    or set to special values, and blocks of their own."""
    q = draw(st.integers(1, 300))
    n = draw(st.integers(1, 6))
    original = draw(logit_blocks(q, n))
    original[~np.isfinite(original.max(axis=1))] = 0.0  # the tester refuses such an original
    models = []
    for kind in draw(st.lists(st.sampled_from(("copy", "moved", "own")), min_size=1, max_size=4)):
        if kind == "own":
            models.append(draw(logit_blocks(q, n)))
            continue
        model = original.copy()
        if kind == "moved":
            cells = st.tuples(st.integers(0, n - 1), st.integers(0, q - 1))
            for (r, at), step, sign in draw(st.lists(st.tuples(cells, st.sampled_from(STEPS),
                                                               st.sampled_from((-1, 1))),
                                                     min_size=1, max_size=4)):
                model[r, at] = near(original[r].max(), step, sign)
            for (r, at), value in draw(st.lists(st.tuples(cells, st.sampled_from(SPECIALS)),
                                                max_size=1)):
                model[r, at] = value
        models.append(model)
    return original, np.array(models)


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestAgreementOracle:
    """agrees, which the tester reads its kill facts from, against
    predicted_classes of each stacked model and of the original, row for
    row; CI runs these on one BLAS thread and on the lowest supported numpy
    as well, since they rest on the class-major maximum, argmax(axis=0) and
    the per-row count of entries near the maximum."""

    @settings(max_examples=400, deadline=None)
    @given(data=agreement_tiles())
    def test_agreement_equals_the_predicted_classes(self, data):
        original, models = data
        classes = predicted_classes(class_major(original))
        assert (classes >= 0).all()
        tile = np.ascontiguousarray(models.swapaxes(1, 2))  # (models, q, n), as the engine yields
        before = tile.tobytes()
        same, top = agrees(tile, classes)
        assert tile.tobytes() == before  # the logits are not written
        assert same.shape == top.shape == (len(tile), len(classes))
        for model, agree, peak in zip(tile, same, top):
            preds = predicted_classes(model)
            np.testing.assert_array_equal(agree, preds == classes)
            np.testing.assert_array_equal(np.isfinite(peak), preds != -1)
            assert nan_blind_bytes(peak) == nan_blind_bytes(model.max(axis=0))

    @pytest.mark.parametrize("q", [2, 127, 128, 129, 255, 256, 257, 300])
    def test_a_tie_across_every_class_is_never_read_as_unique(self, q):
        # q entries tie at the maximum: a count of 8 bits, signed or not,
        # wraps at 128 or 256 classes and would read the row as unique
        ramp = np.arange(q, dtype=np.float64)
        original = np.stack([ramp, -ramp], axis=1)  # (q, 2): classes q - 1 and 0
        classes = predicted_classes(original)
        assert classes.tolist() == [q - 1, 0]
        tied = np.zeros((2, q, 2))
        tied[1, :, 0] = -0.0  # a tie of signed zeros
        same, _ = agrees(tied, classes)
        assert same.tolist() == [[False, True]] * 2  # a tie goes to the lowest class


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestStackedClassAxisOracle:
    """_class_sum and class_softmax over a stack of class-major blocks (the class
    axis second to last, as mutant_spectra's chunks hold them) equal the
    same functions over each block alone, and numpy's row sums, bit for bit."""

    @staticmethod
    def stack(m: int, q: int, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        t = rng.normal(size=(m, q, n)) * 10.0 ** rng.integers(-8, 8, size=(m, q, n))
        t[rng.random(t.shape) < 0.1] = -0.0
        t[0, :, 0] = -0.0  # sums to +0.0
        if n > 1:
            t[-1, -1, 1] = np.inf
        if n > 2:
            t[-1, 0, 2] = np.nan
        return t

    @pytest.mark.parametrize("q", TestClassAxisOracle.CLASS_COUNTS)
    def test_class_sums_match_each_block(self, q):
        for m, n in ((1, 1), (3, 1), (1, 5), (4, 37), (2, 1500)):
            t = self.stack(m, q, n, seed=q + n)
            got = _class_sum(t)
            assert got.shape == (m, n)
            for block, sums in zip(t, got):
                assert sums.tobytes() == _class_sum(block).tobytes(), (q, m, n)
                rows = np.ascontiguousarray(block.T)  # numpy sums contiguous rows pairwise
                assert sums.tobytes() == np.sum(rows, axis=-1).tobytes(), (q, m, n)

    @pytest.mark.parametrize("q", TestClassAxisOracle.CLASS_COUNTS)
    def test_softmax_matches_each_block(self, q):
        for m, n in ((1, 1), (3, 1), (1, 5), (4, 37)):
            logits = self.stack(m, q, n, seed=q * n)
            logits[:, :, : n // 2] *= 1e300  # shifts that overflow
            stacked = logits.copy()
            top = class_softmax(stacked)
            for i, block in enumerate(logits):
                alone = block.copy()
                assert top[i].tobytes() == class_softmax(alone).tobytes()
                assert stacked[i].tobytes() == alone.tobytes(), (q, m, n)
                reference = reference_softmax(np.ascontiguousarray(block.T)).T
                assert nan_blind_bytes(stacked[i]) == nan_blind_bytes(reference), (q, m, n)
                # a column is finite iff its maximum logit is
                np.testing.assert_array_equal(np.isfinite(stacked[i]).all(axis=0),
                                              np.isfinite(top[i]))


# ---------------------------------------------------------------------------
# A hidden layer's step adds the bias and takes ReLU in place, as a maximum
# against the scalar 0.0, on one block and on a tile's stack alike; the
# output layer's step copies its product class-major and adds the bias along
# class rows.  These pin both against the allocating row-major steps byte for
# byte, signed zeros and NaN payloads included; CI runs them on one BLAS
# thread and on the lowest supported numpy as well.
# ---------------------------------------------------------------------------

# quiet NaNs of both signs, bare and with payload bits
QUIET_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF80000DEADBEEF,
                       0xFFFC000000000001], dtype=np.uint64).view(np.float64)
PRODUCT_EDGES = np.concatenate([[-0.0, 0.0, np.inf, -np.inf, 1e308, -1e308, TINY, -TINY],
                                QUIET_NANS])
BIAS_EDGES = np.array([-0.0, 0.0, 1e308, -1e308, TINY, -TINY])  # biases are finite


@st.composite
def products_and_biases(draw):
    """A layer product of 1..2000 rows by 1..300 columns and a bias row, or,
    as ``_tile_logits`` stacks them, ``(tiles, rows, width)`` products of at
    most 2000 rows in all and ``(tiles, width)`` biases; sprinkled with
    edge values: signed zeros, quiet NaNs of both signs with payloads,
    infinities, +-1e308 (sums that overflow) and the smallest subnormals.
    One entry is a -0.0 bias on a -0.0 product, so its pre-activation is
    exactly -0.0."""
    tiles = draw(st.one_of(st.none(), st.integers(1, 16)))
    width = draw(st.integers(1, 300))
    rows = draw(st.integers(1, 2000 // (tiles or 1)))
    share = draw(st.sampled_from((0.0, 0.01, 0.3, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lead = () if tiles is None else (tiles,)
    a = rng.normal(size=(*lead, rows, width))
    hit = rng.random(a.shape) < share
    a[hit] = rng.choice(PRODUCT_EDGES, size=hit.sum())
    b = rng.normal(size=(*lead, width))
    hit = rng.random(b.shape) < share
    b[hit] = rng.choice(BIAS_EDGES, size=hit.sum())
    at = (draw(st.integers(0, tiles - 1)),) if lead else ()
    col = draw(st.integers(0, width - 1))
    a[(*at, draw(st.integers(0, rows - 1)), col)] = b[(*at, col)] = -0.0
    return a, b


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestActivationOracle:
    @settings(max_examples=200, deadline=None)
    @given(data=products_and_biases())
    def test_relu_step_matches_the_scalar_maximum(self, data):
        a, b = data
        with np.errstate(over="ignore"):
            expected = np.maximum(a + b[..., None, :], 0.0)
            assert _activate(SimpleNamespace(biases=b, activation=RELU), a) is a  # as _tile_logits
        assert a.tobytes() == expected.tobytes()
        assert not np.signbit(a[~np.isnan(a)]).any()  # a -0.0 pre-activation gives +0.0

    @settings(max_examples=100, deadline=None)
    @given(data=products_and_biases())
    def test_output_step_adds_the_bias_only(self, data):
        a, b = data
        with np.errstate(over="ignore"):
            expected = (a + b[..., None, :]).swapaxes(-1, -2)  # the same sums, class-major
            got = _activate(SimpleNamespace(biases=b, activation=SOFTMAX), a)
        assert got.flags.c_contiguous and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=products_and_biases(), hidden=st.integers(1, 300), q=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_resume_matches_the_allocating_steps(self, data, hidden, q, seed):
        x, b = data
        rng = np.random.default_rng(seed)
        w1 = rng.normal(size=(hidden, x.shape[-1]))
        w1[rng.random(w1.shape) < 0.2] = 0.0
        b1 = np.resize(b, hidden)
        w2, b2 = rng.normal(size=(q, hidden)), rng.normal(size=q)
        layers = (DenseLayer(w1, b1, RELU), DenseLayer(w2, b2, SOFTMAX))
        before = x.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
        assert _resume(layers, x).tobytes() == expected.swapaxes(-1, -2).tobytes()
        assert x.tobytes() == before  # the activation resumed from is not written
