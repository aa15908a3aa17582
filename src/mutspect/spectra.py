"""Stratified sampling, DFT-magnitude signatures, and the mutant similarity graph.

Each mutant output, evaluated over a small stratified sample, is a short real
series; its unnormalized DFT magnitude vector (all |S| bins kept) is the
behavioural signature.  The distance between two mutants is the maximum over
outputs of the Euclidean distance between their signatures, and similarity is
exp(-distance), giving edge weights in [0, 1] for a complete graph.

Signatures are written mutant by mutant into one (|M|, q, |S|) array, and the
graph reads them one output at a time, so neither step copies the whole set.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .dataset import LabeledDataset
from .errors import (
    DegenerateGraphError,
    FormatError,
    MissingMutantError,
    NumericError,
    ParameterError,
    SpectraFailureError,
    ValidationError,
)
from .model import batch_outputs
from .mutants import MutantSet
from .util import open_fresh, philox_rng, readonly, sha256_bytes

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
        object.__setattr__(self, "indices", readonly(np.asarray(self.indices, dtype=np.int64)))

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
    sample_hash: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 3 or vals.shape[::2] != (len(self.ids), len(self.sample)):
            raise ValidationError(f"spectra values {vals.shape} do not fit "
                                  f"({len(self.ids)}, q, {len(self.sample)})")
        object.__setattr__(self, "values", readonly(vals))
        if not self.sample_hash:
            object.__setattr__(self, "sample_hash", self.sample.content_hash())

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

    Each mutant is applied to each sampled point exactly once (one batched
    evaluation of |S| forward passes per mutant); the output matrix is then
    reused for all of the mutant's outputs, so the total forward-pass count
    is |M| * |S| regardless of the number of outputs.  Mutants producing
    non-finite outputs are quarantined, not raised.  Mutants are evaluated
    one at a time in id order, so only one output matrix is alive at once.
    """
    points = dataset.features[sample.indices]
    records = sorted(mutants.mutants, key=lambda m: m.mutant_id)
    outputs = ((r.mutant_id, batch_outputs(r.model, points, check=False)) for r in records)
    return _assemble(len(records), outputs, sample, transform)


def spectra_from_outputs(
    outputs_by_id: dict[int, np.ndarray],
    sample: SampleSet,
    transform: str = TRANSFORM_DFT,
) -> SpectraSet:
    """Build a SpectraSet from output matrices (|S| x q each), keyed by mutant id.

    Mutants whose matrix holds a non-finite value are quarantined in
    ``failed``; q comes from the matrices given, quarantined ones included.
    """
    outputs = ((m, outputs_by_id[m]) for m in sorted(outputs_by_id))
    return _assemble(len(outputs_by_id), outputs, sample, transform)


def _assemble(count: int, outputs, sample: SampleSet, transform: str) -> SpectraSet:
    # ``outputs`` yields (id, (|S|, q) matrix) in id order; each feature block
    # goes into one preallocated (count, q, |S|) array, trimmed at the end
    ids, failed, values = [], [], None
    for mutant_id, out in outputs:
        out = np.asarray(out, dtype=np.float64)
        if out.ndim != 2 or out.shape[0] != len(sample):
            raise ParameterError(
                f"mutant {mutant_id}: output matrix must be (|S|, q), got {out.shape}"
            )
        if values is None:
            values = np.empty((count, out.shape[1], len(sample)))
        elif out.shape[1] != values.shape[1]:
            raise ParameterError(
                f"mutant {mutant_id}: expected {values.shape[1]} outputs, got {out.shape[1]}"
            )
        if not np.isfinite(out).all():
            failed.append(mutant_id)
            continue
        block = values[len(ids)]
        if transform == TRANSFORM_DFT:
            np.abs(np.fft.fft(out, axis=0).T, out=block)
        elif transform == TRANSFORM_RAW:
            block[...] = out.T
        else:
            raise ParameterError(f"unknown transform {transform!r}")
        ids.append(mutant_id)
    if values is None:
        values = np.empty((0, 0, len(sample)))
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

    Weights live in [0, 1] (exp(-distance) may underflow to 0); exactly one
    weight per unordered distinct pair.  Self-edges are not stored (the
    diagonal of the internal table is a placeholder and not exposed).  The
    table must be square, sized to ``ids``, finite, exactly symmetric and
    inside [0, 1]; anything else raises ValidationError.
    """

    ids: tuple[int, ...]
    weights: np.ndarray  # (n, n) symmetric, diagonal 1.0
    sample_hash: str
    transform: str
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

    def weight(self, a: int, b: int) -> float:
        if a == b:
            raise ParameterError("self-edges are not stored")
        try:
            i, j = self.ids.index(a), self.ids.index(b)
        except ValueError as exc:
            raise MissingMutantError(str(exc)) from None
        return float(self.weights[i, j])

    def edges(self):
        for i in range(self.n_nodes):
            for j in range(i + 1, self.n_nodes):
                yield self.ids[i], self.ids[j], float(self.weights[i, j])


def build_similarity_graph(mutants: MutantSet, spectra: SpectraSet) -> SimilarityGraph:
    """Pairwise similarities for all usable mutants of the set.

    Quarantined mutants are excluded.  The distance matrix is computed per
    output with a fixed reduction order and mirrored from the upper triangle,
    so the result is exactly symmetric and scheduling-independent.
    """
    wanted = [m for m in sorted(mutants.ids()) if m not in spectra.failed]
    idx = [spectra.index_of(m) for m in wanted]
    if len(idx) < 2:
        raise DegenerateGraphError(
            f"need at least 2 usable mutants, have {len(idx)}"
        )
    n, q = len(idx), spectra.values.shape[1]
    delta = np.zeros((n, n))
    for output in range(q):
        feats = spectra.values[idx, output]  # (n, |S|): one output at a time
        np.maximum(delta, cdist(feats, feats), out=delta)
    upper = np.triu(np.exp(-delta), 1)
    weights = upper + upper.T
    np.fill_diagonal(weights, 1.0)
    return SimilarityGraph(tuple(wanted), weights, spectra.sample_hash, spectra.transform)


# ---------------------------------------------------------------------------
# Columnar export of a SpectraSet (npz), keyed by mutant id and output index,
# with the sample manifest embedded.  Enables the spectra-only workflow where
# a host framework supplies precomputed output matrices instead of models.
# ---------------------------------------------------------------------------

SPECTRA_FORMAT_VERSION = 1


def save_spectra(spectra: SpectraSet, path) -> None:
    path = os.fspath(path)  # np.savez appends ".npz" to a path, not to an open file
    with open_fresh(path if path.endswith(".npz") else path + ".npz", "wb") as f:
        np.savez(
            f,
            version=np.int64(SPECTRA_FORMAT_VERSION),
            ids=np.asarray(spectra.ids, dtype=np.int64),
            values=spectra.values,
            failed=np.asarray(spectra.failed, dtype=np.int64),
            transform=np.asarray(spectra.transform),
            sample_indices=spectra.sample.indices,
            sample_rate=np.int64(spectra.sample.per_class_rate),
            sample_seed=np.int64(spectra.sample.seed),
            sample_truncated=np.asarray(spectra.sample.truncated_classes, dtype=np.int64),
        )


def load_spectra(path) -> SpectraSet:
    """Read a file written by save_spectra.

    A file that is not an npz archive, or lacks a key, or holds a key of the
    wrong type or shape, raises FormatError.
    """
    try:
        with np.load(path) as data:
            if int(data["version"]) != SPECTRA_FORMAT_VERSION:
                raise ParameterError(
                    f"unsupported spectra format version {int(data['version'])}"
                )
            sample = SampleSet(
                data["sample_indices"],
                int(data["sample_rate"]),
                int(data["sample_seed"]),
                tuple(int(c) for c in data["sample_truncated"]),
            )
            return SpectraSet(
                tuple(int(i) for i in data["ids"]),
                data["values"],
                sample,
                str(data["transform"]),
                tuple(int(i) for i in data["failed"]),
            )
    except (KeyError, TypeError, ValueError, AttributeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a readable spectra file: {exc}") from None
