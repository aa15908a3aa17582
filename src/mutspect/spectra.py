"""Stratified sampling, DFT-magnitude signatures, and the mutant similarity graph.

Each mutant output, evaluated over a small stratified sample, is a short real
series; its unnormalized DFT magnitude vector (all |S| bins kept) is the
behavioural signature.  The distance between two mutants is the maximum over
outputs of the Euclidean distance between their signatures, and similarity is
exp(-distance), giving edge weights in [0, 1] for a complete graph.

Signatures come from one walk of the forward engine over the sample with
every mutant, each resuming from the original's activation at its first
changed layer.  The walk writes each block's outputs class-major into one
(|M|, q, |S|) array; one pass in id order then quarantines the mutants with
non-finite outputs, compacts the array in place and, under DFT, replaces
each mutant's outputs with their magnitude spectra, so ``SpectraSet.ids``
lists exactly the graph's nodes in id order.  The graph reads that array one
output at a time through views, so neither step copies the whole set, and
keeps its running maximum over outputs on condensed distances (``pdist``:
each of the n(n-1)/2 pairs once), expanding to the square table only at the
end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .dataset import LabeledDataset
from .errors import (
    DegenerateGraphError,
    MissingMutantError,
    NumericError,
    ParameterError,
    SpectraFailureError,
    ValidationError,
)
# perfbench's tracer wraps ``spectra.batch_outputs`` by name; keeping it bound
# here keeps that trace target resolvable, though the signatures use
# forward_blocks directly
from .model import batch_outputs  # noqa: F401
from .model import forward_blocks
from .mutants import MutantSet
from .util import philox_rng, readonly, sha256_bytes

TRANSFORM_DFT = "dft-magnitude"
TRANSFORM_RAW = "raw-output"


@dataclass(frozen=True)
class SampleSet:
    """Ordered stratified sample shared by all mutants in one analysis.

    Canonical order is ascending (class label, dataset index); the DFT is
    order-sensitive, so this order is fixed once and reused everywhere.
    """

    indices: np.ndarray  # dataset point indices, canonical order
    per_class_rate: int
    seed: int
    truncated_classes: tuple[int, ...] = ()  # classes with population < rate

    def __post_init__(self):
        indices = readonly(np.asarray(self.indices, dtype=np.int64))
        if indices.size == 0:
            raise ValidationError("a sample needs at least one point")
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.indices)

    def content_hash(self) -> str:
        head = f"{self.per_class_rate}:{self.seed}:".encode()
        return sha256_bytes(head + self.indices.tobytes())


def stratified_sample(dataset: LabeledDataset, per_class: int, seed: int) -> SampleSet:
    """min(per_class, population) points from every class present.

    Draws: iterate present labels in ascending order; for each, take the
    first k entries of ``philox_rng(seed).permutation(class_indices)`` and
    sort them.  Classes smaller than ``per_class`` are taken whole and
    recorded in ``truncated_classes``.
    """
    if per_class < 1:
        raise ParameterError("per-class sampling rate must be at least 1")
    rng = philox_rng(seed)
    chosen = []
    truncated = []
    for label in dataset.labels_present():
        pool = np.flatnonzero(dataset.labels == label)
        k = min(per_class, len(pool))
        if k < per_class:
            truncated.append(int(label))
        picked = rng.permutation(pool)[:k]
        chosen.append(np.sort(picked))
    return SampleSet(np.concatenate(chosen), per_class, seed, tuple(truncated))


def dft_magnitude(series) -> np.ndarray:
    """Length-n vector of |DFT| bins of a real series (unnormalized, all bins)."""
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ParameterError("series must be a nonempty 1-D vector")
    if not np.isfinite(x).all():
        raise NumericError("series contains non-finite values")
    return np.abs(np.fft.fft(x))


@dataclass(frozen=True)
class SpectraSet:
    """Per-mutant, per-output feature vectors of length |S|.

    ``values[i, k]`` is the signature of output k of mutant ``ids[i]``.
    Mutants whose sampled outputs were non-finite are quarantined in
    ``failed`` and carry no rows.
    """

    ids: tuple[int, ...]
    values: np.ndarray  # (n_mutants, num_outputs, |S|)
    sample: SampleSet
    transform: str
    failed: tuple[int, ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3 or vals.shape[::2] != (len(self.ids), len(self.sample)):
            raise ValidationError(f"spectra values {vals.shape} do not fit "
                                  f"({len(self.ids)}, q, {len(self.sample)})")
        object.__setattr__(self, "values", readonly(vals))

    def index_of(self, mutant_id: int) -> int:
        if mutant_id in self.failed:
            raise SpectraFailureError(f"mutant {mutant_id} was quarantined")
        try:
            return self.ids.index(mutant_id)
        except ValueError:
            raise MissingMutantError(f"mutant {mutant_id} has no spectra") from None

    def vectors(self, mutant_id: int) -> np.ndarray:
        return self.values[self.index_of(mutant_id)]


def mutant_spectra(
    mutants: MutantSet,
    dataset: LabeledDataset,
    sample: SampleSet,
    transform: str = TRANSFORM_DFT,
) -> SpectraSet:
    """Signatures for every mutant over the shared sample.

    One walk of the forward engine applies each mutant to each sampled point
    exactly once, resuming it at its first changed layer (a no-op mutant
    reuses the original's outputs), so the forward-pass count is |M| * |S|
    regardless of the number of outputs.  Each block's outputs land
    class-major in one preallocated (|M|, q, |S|) array.  One pass in id
    order then quarantines mutants producing non-finite outputs (they are
    not raised), moves each kept mutant down to the next free row and, under
    DFT, writes its magnitude spectra there.
    """
    if transform not in (TRANSFORM_DFT, TRANSFORM_RAW):
        raise ParameterError(f"unknown transform {transform!r}")
    records = sorted(mutants.mutants, key=lambda m: m.mutant_id)
    points = dataset.features[sample.indices]
    values = np.empty((len(records), mutants.original.num_outputs, len(sample)))
    walk = forward_blocks(mutants.original, [r.model for r in records], points)
    for rows, outputs in walk:
        for series, out in zip(values, outputs):
            series[:, rows] = out.T
    ids, failed = [], []
    for k, record in enumerate(records):
        if not np.isfinite(values[k]).all():
            failed.append(record.mutant_id)
            continue
        if transform == TRANSFORM_DFT:
            np.abs(np.fft.fft(values[k], axis=1), out=values[len(ids)])
        elif len(ids) < k:
            values[len(ids)] = values[k]
        ids.append(record.mutant_id)
    return SpectraSet(tuple(ids), values[: len(ids)], sample, transform, tuple(failed))


def mutant_distance(a: int, b: int, spectra: SpectraSet) -> float:
    """Max over outputs of the Euclidean distance between signature vectors."""
    va = spectra.vectors(a)
    vb = spectra.vectors(b)
    return float(np.max(np.linalg.norm(va - vb, axis=1)))


def mutant_similarity(a: int, b: int, spectra: SpectraSet) -> float:
    """exp(-distance); 1 exactly iff the signatures are identical."""
    return float(np.exp(-mutant_distance(a, b, spectra)))


@dataclass
class SimilarityGraph:
    """Complete weighted undirected simple graph over usable mutant ids.

    ``weights[i, j]`` is the edge between ``ids[i]`` and ``ids[j]``; it lies
    in [0, 1] (exp(-distance) may underflow to 0).  The diagonal is a 1.0
    placeholder, not a self-edge.  The table must be square, sized to
    ``ids``, finite, exactly symmetric and inside [0, 1]; anything else
    raises ValidationError.
    """

    ids: tuple[int, ...]
    weights: np.ndarray  # (n, n) symmetric, diagonal 1.0
    _trajectory: list | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.ids),) * 2:
            raise ValidationError(f"weight table {w.shape} does not fit {len(self.ids)} ids")
        # NaN fails both bounds, so this also rejects non-finite weights
        if not (((w >= 0) & (w <= 1)).all() and np.array_equal(w, w.T)):
            raise ValidationError("weights must be finite, symmetric and in [0, 1]")
        object.__setattr__(self, "weights", readonly(w))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)


def build_similarity_graph(spectra: SpectraSet) -> SimilarityGraph:
    """Pairwise similarities over every mutant with spectra, in ``spectra.ids`` order.

    Quarantined mutants have no rows, so they are not nodes.  Distances are
    condensed (each pair once, in a fixed reduction order) and the maximum
    over outputs is taken on them; the table mirrors them, so the result is
    exactly symmetric and scheduling-independent.
    """
    n, q = spectra.values.shape[:2]
    if n < 2:
        raise DegenerateGraphError(f"need at least 2 usable mutants, have {n}")
    delta = pdist(spectra.values[:, 0])  # (n, |S|) view: one output at a time
    for output in range(1, q):
        np.maximum(delta, pdist(spectra.values[:, output]), out=delta)
    weights = squareform(np.exp(-delta))
    np.fill_diagonal(weights, 1.0)
    return SimilarityGraph(spectra.ids, weights)
