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
weights) and applies the bias and ReLU to it in place, ReLU as a maximum
against a cached read-only row of zeros (see ``_activate``).  The engine
stops at the output layer's logits and never raises on overflow: rows may
carry NaN/Inf, and each caller decides what a non-finite row means.

Softmax runs only where its values are read: in batch_outputs (the engine
over one model, then softmax) and over chunks of signatures in
``spectra.mutant_spectra``.  predicted_classes reads the softmax argmax off
the logits without computing it, apart from the rare rows with a near-tie
within NEAR_TIE of their maximum.

Softmax and predicted_classes reduce over the class axis of a class-major
copy of the block: numpy runs one inner loop per row when it reduces a
row-major block over its classes, and one per class row over the copy,
which is faster for few classes in long blocks and slower for short blocks
or many classes (README, "Semantics worth knowing").  The class sums repeat
numpy's own summation order, so the outputs equal row-major reductions bit
for bit, apart from the sign bit of NaN entries (a row holding one is
wholly NaN).
"""

from __future__ import annotations

import functools
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
# fit in that cache together.  A row's values may depend on the block it is
# computed in, since BLAS picks its kernels by the product's shape: a
# 700-wide layer over 2,500 points gives logits up to 7.1e-15 away from the
# whole-set product in blocks of 250 to 1,250 rows.  Bit-equality with
# whole-set products holds on the shapes the walk oracles cover, and every
# result is deterministic for a given machine and BLOCK_BYTES.  Short blocks
# differ most often, so a block of |T| > R rows is never shorter than R/2.
BLOCK_BYTES = 512 * 1024


def _block_rows(width: int) -> int:
    """R: the rows of one block whose ``width``-wide activation fits BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (8 * width))


def _row_blocks(n: int, rows: int) -> list[slice]:
    """ceil(n / rows) contiguous blocks covering range(n), sizes within one row."""
    k = -(-n // rows)
    return [slice(n * i // k, n * (i + 1) // k) for i in range(k)]


def _class_sum(t: np.ndarray) -> np.ndarray:
    """Sums over the classes (axis -2) of class-major blocks, bit-equal to
    numpy's ``sum(axis=-1)`` over each row-major block.

    numpy sums a contiguous row pairwise: fewer than 8 values left to right;
    up to 128 in 8 interleaved accumulators, combined as a fixed tree, then
    the tail in order; more in two halves split at a multiple of 8.  Here
    each step is one vector operation over all block rows (of every block,
    for a stack of blocks): a reduction over the class axis adds the class
    rows left to right, starting, as numpy's row sum does, from +0.0 (so a
    row of -0.0 sums to 0.0).
    """
    q, n = t.shape[-2:]
    if q < 8:
        return t.sum(axis=-2)
    if q > 128:
        half = q // 2 - q // 2 % 8
        return _class_sum(t[..., :half, :]) + _class_sum(t[..., half:, :])
    tail = q - q % 8
    r = t[..., :tail, :].reshape(*t.shape[:-2], -1, 8, n).sum(axis=-3)
    r = [r[..., j, :] for j in range(8)]
    s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for k in range(tail, q):
        s += t[..., k, :]
    return s


def class_softmax(t: np.ndarray) -> np.ndarray:
    """Softmax over the classes (axis -2) of class-major logits, in place.

    Returns each row's maximum logit.  A row's outputs are all finite iff
    that maximum is: a finite maximum leaves shifted logits in [-inf, 0]
    with one 0, so the class sum lies in [1, q]; a NaN or infinite maximum
    makes every output of the row NaN.
    """
    top = t.max(axis=-2, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        # max-subtraction: fuzzed weights can push logits beyond exp()
        t -= top
        np.exp(t, out=t)
        t /= _class_sum(t)[..., None, :]
    return top[..., 0, :]


@functools.cache
def _zero_row(width: int) -> np.ndarray:
    """Read-only zeros of one row, ReLU's operand; one per layer width."""
    return readonly(np.zeros(width))


def _activate(layer: DenseLayer, a: np.ndarray):
    """Bias and ReLU of ``layer``, applied to the product ``a`` in place; the
    output layer adds its bias only, leaving logits.

    ReLU is ``maximum`` against a row of zeros broadcast down the block
    rather than against the scalar 0.0: numpy 2.4 has no vectorised loop for
    a scalar operand, and the output is the same bit for bit (README,
    "Semantics worth knowing").
    """
    a += layer.biases
    if layer.activation == RELU:
        np.maximum(a, _zero_row(layer.out_dim), out=a)


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
            or theirs.weights.tobytes() != mine.weights.tobytes()
            or theirs.biases.tobytes() != mine.biases.tobytes()
        ):
            return depth
    return len(original.layers)


def forward_blocks(original: FcnnClassifier, models, points):
    """Output-layer logits of each of ``models``, block by block.

    Yields ``(rows, model_logits)`` per row block in order: ``rows`` is the
    block's slice of the points and ``model_logits`` a generator of each
    model's rows, in the order of ``models``, each computed when it is
    drawn.  Each model resumes from the original's activation at its first
    changed layer, so a caller that needs the original's logits passes the
    original as a model; a model equal to the original yields the original's
    array itself, which callers must not write.  Every block counts
    |models| forward passes per row.
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


def _logits(model: FcnnClassifier, points) -> np.ndarray:
    """Output-layer logits of ``model``, one row per point."""
    parts = [next(logits) for _, logits in forward_blocks(model, (model,), points)]
    if not parts:
        return np.empty((0, model.num_outputs))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def batch_outputs(model: FcnnClassifier, points) -> np.ndarray:
    """Softmax outputs for an ordered batch of points, one row per point.

    Rows whose computation overflowed carry NaN/Inf; callers check
    ``np.isfinite`` themselves (quarantine, a -1 flag or ValidationError).
    """
    a = _logits(model, points)
    t = np.ascontiguousarray(a.T)  # class-major: see the module docstring
    class_softmax(t)
    a[...] = t.T
    return a


# Near-tie guard of predicted_classes: 2**-40, far above the rounding error
# of exp() near 0 and far below any logit gap a model shows in practice
NEAR_TIE = 2.0 ** -40


def predicted_classes(logits: np.ndarray) -> np.ndarray:
    """Predicted class per row of output-layer logits: the argmax of the
    row's softmax, ties to the lowest index, or -1 where that softmax is
    non-finite.  ``logits`` is not written.

    The softmax is not computed.  With m the row maximum and s the class
    sum of exp(z - m), each output is fl(e / s) with e = fl(exp(fl(z - m))):

    * the row's softmax is non-finite iff m is (see ``class_softmax``), so
      such rows are -1;
    * every entry with z = m has e = 1, so the output fl(1 / s), the
      largest; the first of them is the first index of the row maximum;
    * an entry with fl(z - m) <= -2**-40 has e <= 1 - 2**-41 (exp is
      accurate to a few ulps, 2**-53 each, and exp(-2**-40) < 1 - 2**-41),
      and s >= 1.  Rounding to nearest then gives fl(e / s) <=
      (e / s)(1 + 2**-53) < (1 / s)(1 - 2**-53) <= fl(1 / s), a strictly
      smaller output, so it cannot tie with the maximum.

    Only a row holding an entry with -2**-40 < fl(z - m) < 0 can have its
    softmax argmax elsewhere (exp may round to 1, or the division to the
    maximum's output); those rows, rare, get the real softmax, computed as
    ``batch_outputs`` computes it.
    """
    t = logits.T.copy()  # class-major: see the module docstring
    top = t.max(axis=0)
    preds = logits.argmax(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        t -= top  # the softmax's own shift: NaN on rows with a non-finite maximum
        near = np.flatnonzero(((t > -NEAR_TIE) & (t < 0)).any(axis=0))
    if near.size:
        near_t = np.ascontiguousarray(logits[near].T)
        class_softmax(near_t)
        preds[near] = near_t.argmax(axis=0)
    preds[~np.isfinite(top)] = -1
    return preds


def predictions_with_flags(model: FcnnClassifier, points) -> np.ndarray:
    """Predicted classes of ``model`` on ``points`` (see predicted_classes)."""
    return predicted_classes(_logits(model, points))


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
