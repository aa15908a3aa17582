import numpy as np
import pytest

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
    predict,
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
    assert predict(net, [1.0, 2.0]) == 0


def test_predict_unique_max(fixture_net):
    assert predict(fixture_net, HAND_INPUT) == int(np.argmax(HAND_OUTPUT))


def test_predict_invariant_under_logit_rescaling(random_net):
    # scaling the final layer by c > 0 is a strictly monotone logit map
    rng = np.random.default_rng(11)
    last = random_net.layers[-1]
    for c in (0.5, 2.0, 7.5):
        scaled = FcnnClassifier(
            random_net.layers[:-1]
            + (DenseLayer(c * last.weights, c * last.biases, SOFTMAX),)
        )
        for _ in range(20):
            x = rng.normal(size=random_net.input_dim)
            assert predict(random_net, x) == predict(scaled, x)


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
