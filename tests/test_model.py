import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutspect.errors import FormatError, NumericError, ShapeError, ValidationError
from mutspect.model import (
    RELU,
    SOFTMAX,
    DenseLayer,
    FcnnClassifier,
    batch_outputs,
    count_forward_passes,
    deserialize_model,
    forward,
    load_model,
    model_hash,
    predictions_with_flags,
    save_model,
    serialize_model,
)

# Hand-computed oracle for the 2-2-2 fixture net on input [0.8, -0.4]:
#   z0 = [0.6, 0.36], relu keeps both
#   z1 = [0.086, 0.046]
#   softmax -> values below (independent scalar arithmetic)
HAND_INPUT = np.array([0.8, -0.4])
HAND_OUTPUT = np.array([0.5099986668799654, 0.4900013331200346])


def test_forward_zero_weights_uniform(zero_net):
    out = forward(zero_net, np.zeros(4))
    np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-12)


def test_forward_identity_symmetry():
    net = FcnnClassifier((DenseLayer(np.eye(2), np.zeros(2), SOFTMAX),))
    np.testing.assert_allclose(forward(net, [0.0, 0.0]), [0.5, 0.5], atol=1e-12)


def test_forward_matches_hand_computation(fixture_net):
    out = forward(fixture_net, HAND_INPUT)
    np.testing.assert_allclose(out, HAND_OUTPUT, atol=1e-9)


def test_forward_shape_error(fixture_net):
    with pytest.raises(ShapeError):
        forward(fixture_net, np.zeros(3))


def test_forward_overflow_names_layer():
    net = FcnnClassifier(
        (
            DenseLayer(np.full((2, 2), 1e300), np.zeros(2), RELU),
            DenseLayer(np.full((2, 2), 1e300), np.zeros(2), SOFTMAX),
        )
    )
    with pytest.raises(NumericError, match="layer 0"):
        forward(net, np.array([1e200, 1e200]))


def test_forward_pure(fixture_net):
    a = forward(fixture_net, HAND_INPUT)
    b = forward(fixture_net, HAND_INPUT)
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


def test_batch_outputs_single_point_matches_forward(random_net):
    x = np.linspace(-1, 1, random_net.input_dim)
    np.testing.assert_array_equal(batch_outputs(random_net, x[None, :])[0], forward(random_net, x))


def test_batch_outputs_matches_per_point_forward(fixture_net):
    rng = np.random.default_rng(5)
    points = rng.normal(size=(5, 2))
    out = batch_outputs(fixture_net, points)
    for i in range(5):
        np.testing.assert_allclose(out[i], forward(fixture_net, points[i]), atol=1e-12)


def test_batch_outputs_reports_point_index():
    net = FcnnClassifier((DenseLayer(np.full((2, 2), 1e300), np.zeros(2), SOFTMAX),))
    points = np.array([[0.0, 0.0], [1e200, 1e200]])
    with pytest.raises(NumericError, match="point 1"):
        batch_outputs(net, points)


def test_forward_pass_counter(random_net):
    points = np.zeros((7, random_net.input_dim))
    with count_forward_passes() as counter:
        forward(random_net, points[0])
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
# a forward pass that allocates a new array at every step.
# ---------------------------------------------------------------------------


def reference_outputs(model, points):
    """Allocate-per-step forward pass, test-side oracle."""
    a = np.asarray(points, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in model.layers:
            z = a @ layer.weights.T + layer.biases
            if layer.activation == SOFTMAX:
                e = np.exp(z - np.max(z, axis=-1, keepdims=True))
                a = e / np.sum(e, axis=-1, keepdims=True)
            else:
                a = np.maximum(z, 0.0)
    return a


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
    assert batch_outputs(net, points, check=False).tobytes() == expected.tobytes()


@pytest.mark.parametrize("layer, point", [(0, 3), (1, 2), (2, 0)])
def test_check_names_first_non_finite_layer_and_point(layer, point):
    # three layers of identity weights; a huge scale on ``layer`` overflows
    # only the chosen point, whose input is 1e200 (the others are 1)
    layers = []
    for i, act in enumerate((RELU, RELU, SOFTMAX)):
        scale = 1e200 if i == layer else 1.0
        layers.append(DenseLayer(np.eye(2) * scale, np.zeros(2), act))
    net = FcnnClassifier(tuple(layers))
    points = np.ones((5, 2))
    points[point] = 1e200
    message = f"^non-finite activation in layer {layer} for point {point}$"
    with pytest.raises(NumericError, match=message):
        batch_outputs(net, points)


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
