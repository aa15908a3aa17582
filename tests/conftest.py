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


def reference_logits(model, points):
    """Allocate-per-step forward pass over all points at once, up to the
    output layer's logits; test-side oracle."""
    a = np.asarray(points, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in model.layers:
            a = a @ layer.weights.T + layer.biases
            if layer.activation != SOFTMAX:
                a = np.maximum(a, 0.0)
    return a


def reference_softmax(z):
    """Row-major softmax of logits ``z``, shifted by the row maximum."""
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(z - np.max(z, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)


def reference_outputs(model, points):
    """Softmax outputs of the allocate-per-step forward pass, test-side oracle."""
    return reference_softmax(reference_logits(model, points))


def reference_classes(outputs):
    """Predicted classes read off softmax outputs, -1 on non-finite rows."""
    preds = np.argmax(outputs, axis=1)
    preds[~np.isfinite(outputs).all(axis=1)] = -1
    return preds


def reference_predictions(model, points):
    """Predicted classes read off reference_outputs, -1 on non-finite rows."""
    return reference_classes(reference_outputs(model, points))


def _replace_layer(model, depth, weights, biases):
    layers = list(model.layers)
    layers[depth] = DenseLayer(weights, biases, layers[depth].activation)
    return FcnnClassifier(tuple(layers))


# test-set sizes around R, the rows of one block: a single row, one block
# short of R, one full block, and the splits into 2 and 4 blocks
WALK_SIZES = {"1": lambda r: 1, "R-1": lambda r: r - 1, "R": lambda r: r,
              "R+1": lambda r: r + 1, "3R+1": lambda r: 3 * r + 1}


def walk_world(seed: int = 0):
    """A (12, 64, 64, 5) original and mutant records covering the row-blocked
    walk: every operator at every layer it applies to, a no-op, the original
    itself, a change of -0.0 for 0.0 only, a bias-only change, a wider hidden
    layer, explosions at the first and at the last layer, and an exact tie
    between two outputs (the last three records, in that order).  Returns
    ``(original, records, first changed layer of each record)``."""
    from mutspect import mutants as mu
    from mutspect.mutants import MutantRecord, MutatorKind

    base = small_stack(seed=seed, input_dim=12, hidden=(64, 64), outputs=5)
    w1 = base.layers[1].weights.copy()
    w1[3, 7] = 0.0  # the -0.0 mutant flips this entry's sign only
    original = _replace_layer(base, 1, w1, base.layers[1].biases)
    last = len(original.layers) - 1
    made = []  # (model, first changed layer)
    for depth in range(len(original.layers)):
        made.append((mu.gaussian_fuzz(original, depth, 1, 2.0, seed=depth).model, depth))
        made.append((mu.weight_shuffle(original, depth, 2, seed=depth).model, depth))
        if depth < last:
            made.append((mu.neuron_effect_block(original, depth, 3).model, depth + 1))
            made.append((mu.neuron_activation_inverse(original, depth, 4).model, depth + 1))
            made.append((mu.neuron_switch(original, depth, 5, 6).model, depth))
    made.append((mu.gaussian_fuzz(original, 1, 0, 0.0, seed=1).model, len(original.layers)))
    made.append((original, len(original.layers)))
    signed = w1.copy()
    signed[3, 7] = -0.0
    made.append((_replace_layer(original, 1, signed, original.layers[1].biases), 1))
    shifted = original.layers[1].biases.copy()
    shifted[9] += 0.5
    made.append((_replace_layer(original, 1, original.layers[1].weights, shifted), 1))
    first, second, *rest = original.layers
    rng = np.random.Generator(np.random.Philox(seed + 1))
    wider = (
        DenseLayer(np.vstack([first.weights, rng.normal(size=(1, 12))]),
                   np.append(first.biases, 0.5), RELU),
        DenseLayer(np.hstack([second.weights, rng.normal(size=(64, 1))]), second.biases, RELU),
        *rest,
    )
    made.append((FcnnClassifier(wider), 0))
    # products overflow at layer 0 on about half the rows of normal points,
    # and, for the second, at the output layer on about a third of them
    made.append((_replace_layer(original, 0, np.full_like(first.weights, 1.7e308),
                                first.biases), 0))
    out = original.layers[last]
    made.append((_replace_layer(original, last, out.weights * 1e306, out.biases), last))
    tied_w, tied_b = out.weights.copy(), out.biases.copy()
    tied_w[1], tied_b[1] = tied_w[0], tied_b[0]
    made.append((_replace_layer(original, last, tied_w, tied_b), last))
    records = [
        MutantRecord(i, MutatorKind.GAUSSIAN_FUZZING, 0, 0, None, {}, 0, model)
        for i, (model, _) in enumerate(made)
    ]
    return original, records, [depth for _, depth in made]


def tile_world():
    """walk_world's original and models, plus two byte-equal copies of one
    mutant, a model that differs in two layers, one with an extra hidden
    layer, one with a hidden layer fewer and one that explodes on every row.
    Returns ``(original, models, indices of the models that must run alone)``."""
    from mutspect import mutants as mu

    original, records, _ = walk_world()
    models = [r.model for r in records]
    first, second, last = original.layers
    rng = np.random.default_rng(7)
    twice = [mu.gaussian_fuzz(original, 1, 3, 2.0, seed=7).model for _ in range(2)]
    both = _replace_layer(_replace_layer(original, 0, first.weights * 1.5, first.biases), 1,
                          second.weights * 0.5, second.biases)
    deeper = FcnnClassifier((first, second, DenseLayer(rng.normal(size=(64, 64)),
                                                       rng.normal(size=64), RELU), last))
    shallower = FcnnClassifier((first, DenseLayer(rng.normal(size=(5, 64)), rng.normal(size=5),
                                                  SOFTMAX)))
    exploding = exploding_mutant(original, 0).model  # non-finite on every row
    models += [*twice, both, deeper, shallower, exploding]
    return original, models, list(range(len(models) - 4, len(models)))
