"""Dense softmax classifier: inference primitives and the model file format.

A model is a stack of fully-connected layers, ReLU activations on every
hidden layer and softmax on the last one.  All parameters are float64 and
arrays are frozen after construction, so every forward pass is a pure
function of (model, input).  There is one forward engine, batch_outputs: it
allocates one array per layer (the product with the weights) and applies the
bias, ReLU and softmax to that array in place.  forward evaluates a single
point through it, and predictions_with_flags reads predicted classes off it.
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, NumericError, ShapeError, ValidationError
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


def forward(model: FcnnClassifier, features) -> np.ndarray:
    """Softmax output vector (length num_outputs) for one data point."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.input_dim:
        raise ShapeError(
            f"expected feature vector of length {model.input_dim}, got shape {x.shape}"
        )
    return batch_outputs(model, x[None, :])[0]


def batch_outputs(model: FcnnClassifier, points, check: bool = True) -> np.ndarray:
    """Softmax outputs for an ordered batch of points, one row per point.

    With ``check=True`` a non-finite intermediate raises NumericError naming
    the layer and the offending point index.  ``check=False`` returns the raw
    matrix (rows may carry NaN/Inf) so callers can quarantine bad mutants.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.size == 0:
        return np.empty((0, model.num_outputs))
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ShapeError(
            f"expected points of shape (n, {model.input_dim}), got {x.shape}"
        )
    _tally(x.shape[0])
    a = x
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(model.layers):
            # one new array per layer; bias and activation update it in place
            a = a @ layer.weights.T
            a += layer.biases
            if layer.activation == SOFTMAX:
                # max-subtraction: fuzzed weights can push logits beyond exp()
                a -= np.max(a, axis=-1, keepdims=True)
                np.exp(a, out=a)
                a /= np.sum(a, axis=-1, keepdims=True)
            else:
                np.maximum(a, 0.0, out=a)
            if check:
                finite = np.isfinite(a).all(axis=1)
                if not finite.all():
                    bad = int(np.argmin(finite))
                    raise NumericError(f"non-finite activation in layer {i} for point {bad}")
    return a


def predictions_with_flags(model: FcnnClassifier, points) -> np.ndarray:
    """Predicted class per point, ties to the lowest index; -1 marks rows
    with non-finite outputs."""
    out = batch_outputs(model, points, check=False)
    preds = np.argmax(out, axis=1).astype(np.int64)
    preds[~np.isfinite(out).all(axis=1)] = -1
    return preds


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
