"""Dense softmax classifier: inference primitives and the model file format.

A model is a stack of fully-connected layers, ReLU activations on every
hidden layer and softmax on the last one.  All parameters are float64 and
arrays are frozen after construction, so every forward pass is a pure
function of (model, input).  Layers are equal when their digests are (the
sha256 of their activation, shape and raw parameter bytes, cached on the
layer), and models when all their layers are.  There is one forward engine,
forward_blocks: it splits the points into row blocks sized so that the
original's widest activation fits BLOCK_BYTES, runs the original once per
block as far as some model needs it, keeping its activation only at the
depths where a model first differs from it, and resumes each model there.  A
model equal to the original (the original itself included) resumes after the
last layer and costs nothing more.  Each hidden layer allocates one array
(the product with the weights) and applies the bias and ReLU to it in place;
the output layer copies its product class-major and adds its bias there.  The
engine stops at the output layer's logits and never raises on overflow: rows
may carry NaN/Inf, and each caller decides what a non-finite row means.

Models sharing their resume depth, that layer's shape and activation, and
every later layer object run in tiles whose activations fit TILE_BYTES: one
stacked ``matmul`` per layer, the 2-D product's BLAS call per model.  Tester
tiles hold one model; short blocks cost a numpy call per layer, not model.

Softmax runs only where its values are read: in batch_outputs (the engine
over one model, then softmax) and over chunks of signatures in
``spectra.mutant_spectra``.  predicted_classes reads the softmax argmax off
the logits without computing it, apart from the rare rows with a near-tie
within NEAR_TIE of their maximum, and agrees tells where stacked models
predict given classes without computing theirs.

The engine's logits are class-major, (q, rows) per model: the output layer's
product is copied transposed once and takes its bias along class rows, the
same elementwise sums, and every consumer reduces over the class axis of
that layout: numpy runs one inner loop per row when it reduces a row-major
block over its classes, and one per class row over a class-major one,
which is faster for few classes in long blocks (README, "Semantics worth
knowing").  Below 8 classes the class sums repeat numpy's row-sum order;
from 8 on they are numpy's row sums of a row-major copy.  So the outputs
equal row-major reductions bit for bit, apart from the sign bit of NaN
entries (a row holding one is wholly NaN).
"""

from __future__ import annotations

import functools
import hashlib
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace

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

    @functools.cached_property
    def digest(self) -> bytes:
        """sha256 of the activation, the shape and the raw weight and bias
        bytes (so -0.0 differs from 0.0): equal digests stand for equal layers."""
        h = hashlib.sha256(f"{self.activation} {self.out_dim} {self.in_dim}".encode())
        h.update(self.weights)
        h.update(self.biases)
        return h.digest()


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

    @functools.cached_property
    def digests(self) -> tuple[bytes, ...]:
        """Each layer's digest: models are equal when these are."""
        return tuple(layer.digest for layer in self.layers)


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

# Byte budget on one tile's widest activation (R / 8 rows) and on one signature
# chunk, whose FFT allocates twice its input, so both stay well inside BLOCK_BYTES.
TILE_BYTES = BLOCK_BYTES // 8


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

    numpy sums fewer than 8 values of a contiguous row left to right from
    +0.0 (so a row of -0.0 sums to 0.0), which a reduction over the class
    axis repeats, one vector operation per class row over all block rows.
    Wider rows it sums pairwise, so those are summed as numpy's own rows.
    """
    if t.shape[-2] < 8:
        return t.sum(axis=-2)
    return np.ascontiguousarray(t.swapaxes(-1, -2)).sum(axis=-1)


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


def _activate(layer, a: np.ndarray) -> np.ndarray:
    """``layer``'s output from its product ``a`` (rows, out), or a stack of
    them: a hidden layer adds its bias and takes ReLU in place and returns
    ``a``; the output layer returns a class-major copy (out, rows) of ``a``
    with its bias added along class rows, which are its logits.
    """
    if layer.activation == RELU:
        a += layer.biases[..., None, :]
        np.maximum(a, 0.0, out=a)
        return a
    t = np.ascontiguousarray(a.swapaxes(-1, -2))  # class-major: see the module docstring
    t += layer.biases[..., None]
    return t


def _resume(layers, a: np.ndarray) -> np.ndarray:
    """``layers`` applied to the activation ``a``, which is not written."""
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in layers:
            a = a @ layer.weights.swapaxes(-1, -2)  # drops the input before the output's copy
            a = _activate(layer, a)
    return a


def _first_change(original: FcnnClassifier, model: FcnnClassifier) -> int:
    """Depth of the first layer of ``model`` that differs from the original's.

    A layer differs when its digest does (see DenseLayer.digest); a layer
    object shared by identity is equal.  Models with different layer counts
    differ within the shorter stack, where one has its softmax layer and the
    other a ReLU layer.
    """
    for depth, (mine, theirs) in enumerate(zip(original.layers, model.layers)):
        if theirs is not mine and theirs.digest != mine.digest:
            return depth
    return len(original.layers)


def _tile_logits(models, depth: int, acts: dict) -> np.ndarray:
    """Stacked logits of one tile, all resuming from ``acts[depth]``."""
    if depth == len(models[0].layers):  # equal to the original: nothing to run
        return np.broadcast_to(acts[depth], (len(models), *acts[depth].shape))
    heads = [model.layers[depth] for model in models]
    if len(heads) > 1:  # one layer of stacked weights (models, out, in) and biases
        heads = [SimpleNamespace(weights=np.array([h.weights for h in heads]),
                                 biases=np.array([h.biases for h in heads]),
                                 activation=heads[0].activation)]
    return _resume((*heads, *models[0].layers[depth + 1:]), acts[depth][None])


def forward_blocks(original: FcnnClassifier, models, points):
    """Output-layer logits of ``models``, block by block, in tiles of models.

    Yields one flat stream of ``(rows, members, logits)``: a row block's
    slice of the points, the ascending indices into ``models`` of one tile
    and their class-major ``(len(members), q, rows)`` logits, bit for bit
    the row-major ones transposed (see _activate).  A block's tiles come
    together, the first starting with the first model, and each tile is
    computed before it is yielded, so a caller may keep it past the next
    block.  Each model resumes from the original's activation at its first
    changed layer, so a caller that needs the original's logits passes it
    as a model; models equal to the original yield a read-only broadcast of
    its array.  Every block counts |models| forward passes per row.
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
    groups: dict[tuple, list[int]] = {}  # tiles never mix groups
    for k, (model, d) in enumerate(zip(models, starts)):
        later = model.layers[d:]  # a head, then layers that fix its activation
        key = (d, later[0].weights.shape if later else None, *map(id, later[1:]))
        groups.setdefault(key, []).append(k)
    for rows in _row_blocks(x.shape[0], _block_rows(width)):
        _tally(len(models) * (rows.stop - rows.start))
        per_tile = max(1, TILE_BYTES // (8 * width * (rows.stop - rows.start)))
        acts = {0: x[rows]}  # acts[d]: the original's input to layer d
        for lo, hi in zip(depths, depths[1:]):
            acts[hi] = _resume(original.layers[lo:hi], acts[lo])
        tiles = (g[i : i + per_tile] for g in groups.values() for i in range(0, len(g), per_tile))
        for tile in tiles:
            yield rows, tile, _tile_logits([models[k] for k in tile], starts[tile[0]], acts)


def _logits(model: FcnnClassifier, points) -> np.ndarray:
    """Class-major output-layer logits of ``model``, one column per point."""
    parts = [logits[0] for _, _, logits in forward_blocks(model, (model,), points)]
    return np.concatenate(parts, axis=1) if parts else np.empty((model.num_outputs, 0))


def batch_outputs(model: FcnnClassifier, points) -> np.ndarray:
    """Softmax outputs for an ordered batch of points, one row per point.

    Rows whose computation overflowed carry NaN/Inf; callers check
    ``np.isfinite`` themselves (quarantine, a -1 flag or ValidationError).
    """
    t = _logits(model, points)  # a new array: concatenate copies
    class_softmax(t)
    return np.ascontiguousarray(t.T)


# Near-tie guard of predicted_classes: 2**-40, far above the rounding error
# of exp() near 0 and far below any logit gap a model shows in practice
NEAR_TIE = 2.0 ** -40


def predicted_classes(logits: np.ndarray) -> np.ndarray:
    """Predicted class per row of class-major output-layer logits (q, rows):
    the argmax of the row's softmax, ties to the lowest index, or -1 where
    that softmax is non-finite.  ``logits`` is not written.

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
    top = logits.max(axis=0)
    preds = logits.argmax(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        t = logits - top  # the softmax's own shift: NaN on rows with a non-finite maximum
        near = np.flatnonzero(((t > -NEAR_TIE) & (t < 0)).any(axis=0))
    if near.size:
        near_t = logits[:, near]
        class_softmax(near_t)
        preds[near] = near_t.argmax(axis=0)
    preds[~np.isfinite(top)] = -1
    return preds


def agrees(logits: np.ndarray, classes: np.ndarray):
    """Where stacked class-major logits (models, q, rows) predict ``classes``
    (one class per row, none -1), as predicted_classes reads them, and the
    rows' maxima (models, rows).  ``logits`` is not written.

    With m a row's maximum and t = fl(z - m), every t is at most 0 when m is
    finite, and the maximum's is 0.  A row whose only t in (-NEAR_TIE, 0]
    is its maximum's has a unique maximum and no near-tie, so it predicts
    that class: class c iff t[c] == 0.  A row with more such entries (an
    exact tie or a near-tie) is read by predicted_classes.  A row with a
    non-finite maximum has none (each t is NaN or -inf) and predicts -1,
    which no class equals.
    """
    models, q, n = logits.shape
    top = logits.max(axis=-2)
    with np.errstate(over="ignore", invalid="ignore"):
        near = logits - top[:, None] > -NEAR_TIE
    same = near.reshape(models, -1).take(classes * n + np.arange(n), axis=1)
    # the count's dtype holds q, so it cannot wrap however many classes there are
    many = near.sum(axis=-2, dtype=np.min_scalar_type(q)) > 1
    if many.any():
        model, row = np.nonzero(many)
        same[model, row] = predicted_classes(logits[model, :, row].T) == classes[row]
    return same, top


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
