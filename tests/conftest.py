import numpy as np
import pytest

from mutspect.model import RELU, SOFTMAX, DenseLayer, FcnnClassifier


@pytest.fixture
def fixture_net() -> FcnnClassifier:
    """2-2-2 net with hand-picked small weights; see test_model for the
    hand-computed forward-pass oracle values."""
    return FcnnClassifier(
        (
            DenseLayer(np.array([[0.5, -0.25], [0.75, 0.1]]), np.array([0.1, -0.2]), RELU),
            DenseLayer(np.array([[0.3, -0.4], [-0.2, 0.6]]), np.array([0.05, -0.05]), SOFTMAX),
        )
    )


@pytest.fixture
def zero_net() -> FcnnClassifier:
    return FcnnClassifier(
        (DenseLayer(np.zeros((3, 4)), np.zeros(3), SOFTMAX),)
    )


def small_stack(seed: int = 0, input_dim: int = 4, hidden=(6, 5), outputs: int = 3):
    """Random small classifier used across mutation tests."""
    rng = np.random.Generator(np.random.Philox(seed))
    layers = []
    in_dim = input_dim
    for width in hidden:
        layers.append(
            DenseLayer(rng.normal(size=(width, in_dim)), rng.normal(size=width), RELU)
        )
        in_dim = width
    layers.append(
        DenseLayer(rng.normal(size=(outputs, in_dim)), rng.normal(size=outputs), SOFTMAX)
    )
    return FcnnClassifier(tuple(layers))


@pytest.fixture
def random_net() -> FcnnClassifier:
    return small_stack(seed=42)


def exploding_mutant(model: FcnnClassifier, mutant_id: int, scale: float = 1e200):
    """A mutant record of ``model`` (two or more layers) whose outputs are
    non-finite on every point: its first layer emits ``scale`` whatever the
    input, and its second multiplies that by ``scale`` again, overflowing."""
    from mutspect.mutants import MutantRecord, MutatorKind

    first, second, *rest = model.layers
    layers = (
        DenseLayer(np.zeros_like(first.weights), np.full_like(first.biases, scale), RELU),
        DenseLayer(np.full_like(second.weights, scale), second.biases, second.activation),
        *rest,
    )
    return MutantRecord(mutant_id, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0,
                        FcnnClassifier(layers))
