"""Stratified sampling, DFT-magnitude signatures, and the mutant similarity graph.

Each mutant output, evaluated over a small stratified sample, is a short real
series; its unnormalized DFT magnitude vector (all |S| bins kept) is the
behavioural signature.  The distance between two mutants is the maximum over
outputs of the Euclidean distance between their signatures, and similarity is
exp(-distance), giving edge weights in [0, 1] for a complete graph.

Signatures come from one walk of the forward engine over the sample with
every mutant, each resuming from the original's activation at its first
changed layer.  The walk yields finished tiles of class-major logits, each
landing as it is in one (|M|, q, |S|) array; one pass in id order then takes
chunks of consecutive mutants (TILE_BYTES each), applies softmax over their
class axis, quarantines the mutants with non-finite outputs, compacts the
array in place and, under DFT, replaces each kept mutant's outputs with
their magnitude spectra, so ``SpectraSet.ids`` lists exactly the graph's
rows in id order.  Chunks make one numpy call serve many mutants, where a
call per mutant on a few sampled points costs mostly call overhead.  The
pipeline walks one record per distinct model and names each row's
byte-equal mutants in ``SpectraSet.members``, so twins cost no signature
pass and no row.  The graph reads that array one output at a time through
views, so neither step copies the whole set, and keeps its running maximum
over outputs on condensed distances (``pdist``: each of the d(d-1)/2 row
pairs once, each pair alone).  The graph's nodes are every member, and
its weights stay condensed in ``pdist`` order over them: each pair takes
its rows' weight and a pair of twins 1.0, the weights of a row per member
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .clustering import SimilarityGraph
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
from .model import TILE_BYTES, class_softmax, forward_blocks
from .mutants import MutantSet
from .util import is_integer, philox_rng, readonly, sha256_bytes

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
    if not is_integer(per_class) or per_class < 1:
        raise ParameterError("per-class sampling rate must be an integer of at least 1")
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
    ``failed`` and carry no rows.  ``members`` lists, per row, the mutant ids
    whose models equal the row's byte for byte, the row's own id first; left
    empty, each row is its own mutant's alone.
    """

    ids: tuple[int, ...]
    values: np.ndarray  # (n_mutants, num_outputs, |S|)
    sample: SampleSet
    transform: str
    failed: tuple[int, ...] = ()
    members: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3 or vals.shape[::2] != (len(self.ids), len(self.sample)):
            raise ValidationError(f"spectra values {vals.shape} do not fit "
                                  f"({len(self.ids)}, q, {len(self.sample)})")
        if self.members and [row[0] for row in self.members] != list(self.ids):
            raise ValidationError("spectra members must list each row's own id first")
        object.__setattr__(self, "values", readonly(vals))

    def vectors(self, mutant_id: int) -> np.ndarray:
        if mutant_id in self.failed:
            raise SpectraFailureError(f"mutant {mutant_id} was quarantined")
        try:
            return self.values[self.ids.index(mutant_id)]
        except ValueError:
            raise MissingMutantError(f"mutant {mutant_id} has no spectra") from None


def mutant_spectra(
    mutants: MutantSet,
    dataset: LabeledDataset,
    sample: SampleSet,
    transform: str = TRANSFORM_DFT,
) -> SpectraSet:
    """Signatures for every mutant over the shared sample.

    One walk of the forward engine applies each mutant to each sampled point
    exactly once, resuming it at its first changed layer (a no-op mutant
    reuses the original's logits), so the forward-pass count is |M| * |S|
    regardless of the number of outputs.  Each block's class-major logits
    land as they are in one preallocated (|M|, q, |S|) array.  One pass in
    id order then takes chunks of consecutive mutants, TILE_BYTES of values
    each (at least one mutant): softmax over their class axis, quarantine of
    those with a non-finite output (they are not raised; see
    ``model.class_softmax``: a row is non-finite iff its maximum logit is),
    a move of the kept ones down to the next free rows and, under DFT, their
    magnitude spectra written there.
    """
    if transform not in (TRANSFORM_DFT, TRANSFORM_RAW):
        raise ParameterError(f"unknown transform {transform!r}")
    records = sorted(mutants.mutants, key=lambda m: m.mutant_id)
    points = dataset.features[sample.indices]
    values = np.empty((len(records), mutants.original.num_outputs, len(sample)))
    walk = forward_blocks(mutants.original, [r.model for r in records], points)
    for rows, members, logits in walk:
        values[members, :, rows] = logits
    ids, failed = [], []
    step = max(1, TILE_BYTES // values[0].nbytes)  # a set has at least one mutant
    for lo in range(0, len(records), step):
        chunk = values[lo : lo + step]
        kept = np.isfinite(class_softmax(chunk)).all(axis=-1)
        for record, keep in zip(records[lo : lo + step], kept):
            (ids if keep else failed).append(record.mutant_id)
        if not kept.all():
            chunk = chunk[kept]  # a copy, so the move below may overlap it
        dest = values[len(ids) - len(chunk) : len(ids)]
        if transform == TRANSFORM_DFT:
            np.abs(np.fft.fft(chunk, axis=-1), out=dest)
        else:
            dest[...] = chunk
    return SpectraSet(tuple(ids), values[: len(ids)], sample, transform, tuple(failed))


def mutant_distance(a: int, b: int, spectra: SpectraSet) -> float:
    """Max over outputs of the Euclidean distance between signature vectors."""
    va = spectra.vectors(a)
    vb = spectra.vectors(b)
    return float(np.max(np.linalg.norm(va - vb, axis=1)))


def mutant_similarity(a: int, b: int, spectra: SpectraSet) -> float:
    """exp(-distance); 1 exactly iff the signatures are identical."""
    return float(np.exp(-mutant_distance(a, b, spectra)))


def build_similarity_graph(spectra: SpectraSet) -> SimilarityGraph:
    """Pairwise similarities over every mutant that ``spectra`` holds, in id order.

    Distances are taken once per pair of rows.  A pair of nodes takes its
    rows' weight and twins, sharing a row, 1.0: ``pdist`` computes each pair
    alone, so these are the weights of a row per mutant bit for bit.
    Quarantined mutants have no rows, so they are not nodes.  The maximum
    over outputs is taken on condensed distances (each pair once, in a fixed
    reduction order), so the condensed weights are scheduling-independent.
    """
    members = spectra.members or tuple(zip(spectra.ids))
    n = sum(map(len, members))
    if n < 2:
        raise DegenerateGraphError(f"need at least 2 usable mutants, have {n}")
    delta = pdist(spectra.values[:, 0])  # (rows, |S|) view: one output at a time
    for output in range(1, spectra.values.shape[1]):
        np.maximum(delta, pdist(spectra.values[:, output]), out=delta)
    weights = np.exp(-delta)
    if n == len(members):
        return SimilarityGraph(spectra.ids, weights)
    flat = np.fromiter(chain.from_iterable(members), np.intp, n)
    by_id = flat.argsort()
    row = np.repeat(np.arange(len(members)), [len(m) for m in members])[by_id]  # per node
    table = squareform(weights)
    np.fill_diagonal(table, 1.0)  # twins share a row
    return SimilarityGraph(tuple(flat[by_id].tolist()),
                           squareform(table.take(row, 0).take(row, 1), checks=False))
