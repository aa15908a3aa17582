"""Dense softmax classifier: inference primitives and the model file format.

A model is a stack of fully-connected layers, ReLU activations on every
hidden layer and softmax on the last one.  All parameters are float64 and
arrays are frozen after construction, so every forward pass is a pure
function of (model, input).  There is one forward engine, forward_blocks: it
splits the points into row blocks sized so that the original's widest
activation fits BLOCK_BYTES, runs the original once per block as far as
some model needs it, keeping its activation only at the depths where a model
first differs from it, and resumes each model there.  A model equal to the
original (the original itself included) resumes after the last layer and
costs nothing more.  Each layer allocates one array (the product with the
weights) and applies the bias, ReLU and softmax to it in place.  The engine
never raises on overflow: rows may carry NaN/Inf, and each caller decides
what a non-finite row means.  batch_outputs is the engine over one model,
and predicted_classes reads predicted classes off any block of outputs.

Softmax and predicted_classes' finiteness test reduce over the class axis of
a class-major copy of the block: numpy runs one inner loop per row when it
reduces a row-major block over its classes, and one per class row over the
copy, which is faster for few classes in long blocks and slower for short
blocks or many classes (README, "Semantics worth knowing").  The class sums repeat numpy's own summation order, so the outputs
equal row-major reductions bit for bit, apart from the sign bit of NaN
entries (a row holding one is wholly NaN).
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError, ValidationError
from .util import ByteReader, open_fresh, readonly, sha256_bytes

RELU = "relu"
SOFTMAX = "softmax"

_MAGIC = b"FCNN"
_VERSION = 1
_ACT_CODE = {RELU: 0, SOFTMAX: 1}
_ACT_NAME = {0: RELU, 1: SOFTMAX}


@dataclass(frozen=True)
class DenseLayer:
    """One fully-connected layer: ``weights`` is (out_dim, in_dim)."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str

    def __post_init__(self):
        w = readonly(np.asarray(self.weights, dtype=np.float64))
        b = readonly(np.asarray(self.biases, dtype=np.float64))
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValidationError(
                f"layer shapes inconsistent: weights {w.shape}, biases {b.shape}"
            )
        if 0 in w.shape:
            raise ValidationError(f"layer dimensions must be positive, got weights {w.shape}")
        if self.activation not in (RELU, SOFTMAX):
            raise ValidationError(f"unknown activation {self.activation!r}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValidationError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class FcnnClassifier:
    """Immutable stack of DenseLayers ending in a softmax output layer."""

    layers: tuple[DenseLayer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValidationError("a classifier needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].out_dim != layers[i + 1].in_dim:
                raise ValidationError(
                    f"layer {i} out_dim {layers[i].out_dim} does not chain into "
                    f"layer {i + 1} in_dim {layers[i + 1].in_dim}"
                )
            if layers[i].activation != RELU:
                raise ValidationError(f"layer {i} must use relu (hidden layer)")
        if layers[-1].activation != SOFTMAX:
            raise ValidationError("final layer must use softmax")
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def num_outputs(self) -> int:
        return self.layers[-1].out_dim


# ---------------------------------------------------------------------------
# Forward-pass instrumentation.  A counter registered through
# count_forward_passes() is bumped once per (model, data point) application.
# One lock guards the registry and the counts, so that the counts stay exact
# when callers run the engine from threads of their own.
# ---------------------------------------------------------------------------

@dataclass
class ForwardPassCounter:
    count: int = 0


_ACTIVE_COUNTERS: list[ForwardPassCounter] = []
_COUNTER_LOCK = threading.Lock()


@contextmanager
def count_forward_passes():
    counter = ForwardPassCounter()
    with _COUNTER_LOCK:
        _ACTIVE_COUNTERS.append(counter)
    try:
        yield counter
    finally:
        with _COUNTER_LOCK:
            _ACTIVE_COUNTERS.remove(counter)


def _tally(n: int):
    with _COUNTER_LOCK:
        for counter in _ACTIVE_COUNTERS:
            counter.count += n


# Byte budget on one block's widest activation (rows x width float64).  At
# half of a 1 MiB per-core L2 cache, a layer's input block and its product
# fit in that cache together.  Rows are assumed not to depend on the block
# they are computed in.  That held for blocks of 255 rows or more on every
# shape tried, not for much shorter ones (BLAS sends small products to other
# kernels), so a block of |T| > R rows is never shorter than R/2.
BLOCK_BYTES = 512 * 1024


def _block_rows(width: int) -> int:
    """R: the rows of one block whose ``width``-wide activation fits BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * width))


def _row_blocks(n: int, rows: int) -> list[slice]:
    """ceil(n / rows) contiguous blocks covering range(n), sizes within one row."""
    k = -(-n // rows)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _class_sum(t: np.ndarray) -> np.ndarray:
    """Sums over the classes (axis 0) of a class-major block, bit-equal to
    numpy's ``sum(axis=-1)`` over the row-major block.

    numpy sums a contiguous row pairwise: fewer than 8 values left to right;
    up to 128 in 8 interleaved accumulators, combined as a fixed tree, then
    the tail in order; more in two halves split at a multiple of 8.  Here
    each step is one vector operation over all block rows: a reduction over
    axis 0 adds the class rows left to right, starting, as numpy's row sum
    does, from +0.0 (so a row of -0.0 sums to 0.0).
    """
    q = len(t)
    if q < 8:
        return t.sum(axis=0)
    if q > 128:
        half = q // 2 - q // 2 % 8
        return _class_sum(t[:half]) + _class_sum(t[half:])
    tail = q - q % 8
    r = t[:tail].reshape(-1, 8, t.shape[1]).sum(axis=0)
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in t[tail:]:
        s += row
    return s


def _activate(layer: DenseLayer, a: np.ndarray):
    """Bias and activation of ``layer``, applied to the product ``a`` in place."""
    a += layer.biases
    if layer.activation == SOFTMAX:
        t = np.ascontiguousarray(a.T)  # class-major: see the module docstring
        # max-subtraction: fuzzed weights can push logits beyond exp()
        t -= t.max(axis=0)
        np.exp(t, out=t)
        t /= _class_sum(t)
        a[...] = t.T
    else:
        np.maximum(a, 0.0, out=a)


def _resume(layers, a: np.ndarray) -> np.ndarray:
    """``layers`` applied to the activation ``a``, which is not written."""
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in layers:
            a = a @ layer.weights.T
            _activate(layer, a)
    return a


def _first_change(original: FcnnClassifier, model: FcnnClassifier) -> int:
    """Depth of the first layer of ``model`` that differs from the original's.

    A layer differs in its activation, its shape or the bytes of its weights
    or biases (so -0.0 differs from 0.0); a layer object shared by identity
    is equal.  Models with different layer counts differ within the shorter
    stack, where one has its softmax layer and the other a ReLU layer.
    """
    for depth, (mine, theirs) in enumerate(zip(original.layers, model.layers)):
        if theirs is mine:
            continue
        if (
            theirs.activation != mine.activation
            or theirs.weights.shape != mine.weights.shape
            or not np.array_equal(theirs.weights.view(np.int64), mine.weights.view(np.int64))
            or not np.array_equal(theirs.biases.view(np.int64), mine.biases.view(np.int64))
        ):
            return depth
    return len(original.layers)


def forward_blocks(original: FcnnClassifier, models, points):
    """Softmax outputs of each of ``models``, block by block.

    Yields ``(rows, model_outputs)`` per row block in order: ``rows`` is the
    block's slice of the points and ``model_outputs`` a generator of each
    model's rows, in the order of ``models``, each computed when it is
    drawn.  Each model resumes from the original's activation at its first
    changed layer, so a caller that needs the original's outputs passes the
    original as a model; a model equal to the original yields the original's
    array itself.  Every block counts |models| forward passes per row.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != original.input_dim:
        raise ShapeError(
            f"expected points of shape (n, {original.input_dim}), got {x.shape}"
        )
    models = tuple(models)
    starts = [_first_change(original, model) for model in models]
    # the original's activations are kept only at the depths a model resumes from
    depths = sorted({0, *starts})
    # blocks depend on the original alone, so its rows are batch_outputs' rows
    width = max(layer.out_dim for layer in original.layers)
    for rows in _row_blocks(x.shape[0], _block_rows(width)):
        _tally(len(models) * (rows.stop - rows.start))
        acts = {0: x[rows]}  # acts[d]: the original's input to layer d
        for lo, hi in zip(depths, depths[1:]):
            acts[hi] = _resume(original.layers[lo:hi], acts[lo])
        yield rows, (_resume(model.layers[d:], acts[d]) for model, d in zip(models, starts))


def batch_outputs(model: FcnnClassifier, points) -> np.ndarray:
    """Softmax outputs for an ordered batch of points, one row per point.

    Rows whose computation overflowed carry NaN/Inf; callers check
    ``np.isfinite`` themselves (quarantine, a -1 flag or ValidationError).
    """
    parts = [next(outputs) for _, outputs in forward_blocks(model, (model,), points)]
    if not parts:
        return np.empty((0, model.num_outputs))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def predicted_classes(outputs: np.ndarray) -> np.ndarray:
    """Predicted class per row of softmax outputs, ties to the lowest index;
    -1 marks rows with non-finite outputs."""
    preds = outputs.argmax(axis=1).astype(np.int64)
    preds[~np.isfinite(np.ascontiguousarray(outputs.T)).all(axis=0)] = -1
    return preds


def predictions_with_flags(model: FcnnClassifier, points) -> np.ndarray:
    """Predicted classes of ``model`` on ``points`` (see predicted_classes)."""
    return predicted_classes(batch_outputs(model, points))


# ---------------------------------------------------------------------------
# Model file format, version 1.  Little-endian throughout:
#   magic "FCNN" | version u8 | layer_count u32
#   per layer: out_dim u32 | in_dim u32 | activation u32 (0 relu, 1 softmax)
#   per layer: weights f64 row-major (out*in) | biases f64 (out)
# Round trips are bit-exact.
# ---------------------------------------------------------------------------


def serialize_model(model: FcnnClassifier) -> bytes:
    parts = [_MAGIC, struct.pack("<B", _VERSION), struct.pack("<I", len(model.layers))]
    for layer in model.layers:
        parts.append(
            struct.pack("<III", layer.out_dim, layer.in_dim, _ACT_CODE[layer.activation])
        )
    for layer in model.layers:
        parts.append(layer.weights.astype("<f8").tobytes())
        parts.append(layer.biases.astype("<f8").tobytes())
    return b"".join(parts)


def model_hash(model: FcnnClassifier) -> str:
    return sha256_bytes(serialize_model(model))


def deserialize_model(data: bytes) -> FcnnClassifier:
    reader = ByteReader(data, "model")
    take = reader.take
    if take(4, "magic") != _MAGIC:
        raise FormatError("bad magic at byte 0: not a model file")
    (version,) = struct.unpack("<B", take(1, "version"))
    if version != _VERSION:
        raise FormatError(f"unsupported model format version {version} at byte 4")
    (layer_count,) = struct.unpack("<I", take(4, "layer count"))
    if layer_count == 0:
        raise FormatError("layer count is zero at byte 5")
    shapes = []
    for i in range(layer_count):
        out_dim, in_dim, act = struct.unpack("<III", take(12, f"layer {i} shape"))
        if act not in _ACT_NAME:
            raise FormatError(f"unknown activation code {act} at byte {reader.offset - 4}")
        shapes.append((out_dim, in_dim, _ACT_NAME[act]))
    layers = []
    for i, (out_dim, in_dim, act) in enumerate(shapes):
        w = np.frombuffer(take(8 * out_dim * in_dim, f"layer {i} weights"), dtype="<f8")
        b = np.frombuffer(take(8 * out_dim, f"layer {i} biases"), dtype="<f8")
        try:
            layers.append(DenseLayer(w.reshape(out_dim, in_dim), b.copy(), act))
        except ValidationError as exc:
            raise ValidationError(f"layer {i}: {exc}") from exc
    if reader.offset != len(data):
        raise FormatError(f"trailing bytes at offset {reader.offset}")
    return FcnnClassifier(tuple(layers))


def save_model(model: FcnnClassifier, path) -> None:
    with open_fresh(path, "wb") as f:
        f.write(serialize_model(model))


def load_model(path) -> FcnnClassifier:
    with open(path, "rb") as f:
        return deserialize_model(f.read())
