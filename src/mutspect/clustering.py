"""The similarity graph, threshold agglomerative clustering and the tau search on one graph.

Clustering is sequential average-linkage agglomeration over the similarity
graph: starting from singletons, repeatedly merge the cluster pair with the
greatest mean cross-pair similarity while that greatest linkage is at least
``tau``.  Average linkage is reducible (a merged cluster's linkage to any
third cluster never exceeds the linkage just consumed), so the greedy merge
sequence does not depend on ``tau``; the threshold only picks the stopping
point, and a clustering at any ``tau`` is a prefix cut of the sequence
(``tau_cuts``).  A cut at ``tau`` reads only the steps down to the first
linkage below it, so each graph builds its sequence lazily: a request for
``tau`` runs the build until that step, a later, lower request resumes it,
and the working tables are freed once the last step is taken.

The build expands the condensed weights once, into the cross-weight sums
between clusters, and picks each step's pair with one flat argmax over the
linkage table: O(n^2) per step, O(n^3) in total, two n x n float64 tables.
Up to about 350-400 nodes this is faster than caching each row's maximum.
Linkage is the sum divided by the size product, which is exact whenever the
sums are (e.g. dyadic weights), so equal linkages stay equal.  Ties go to
the first maximum in C order: the pair with the lowest smallest member, then
the lowest smallest member of the other cluster.

The tau search binary-searches ``tau`` on one graph until the mutant
reduction rate lands in the requested constraint interval; it cuts once, at
the tau it returns.  The walk over sampling rates, which builds one graph per
rate, belongs to the pipeline.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from numbers import Real

import numpy as np
from scipy.spatial.distance import squareform

from .errors import ParameterError, ValidationError
from .util import philox_rng, readonly

X_GRID = (1, 3, 5, 10, 20, 30, 40, 50, 100, 200, 300)
TAU_FLOOR = 1e-5
TAU_CEIL = 0.99999
WIDTH_CAP = 1e-6
NOT_SATISFIABLE_MESSAGE = "Mutant reduction goal not satisfiable"


@dataclass(frozen=True)
class ReductionConstraint:
    """Target interval [lo, hi] for the mutant reduction rate."""

    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ValidationError(
                f"constraint must satisfy 0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]"
            )


DEFAULT_REDUCTION = ReductionConstraint(0.26, 0.56)


@dataclass(frozen=True)
class ClusterSet:
    """Disjoint nonempty clusters covering the graph's mutant ids."""

    clusters: tuple[tuple[int, ...], ...]
    tau: float

    def __len__(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class RepresentativeMap:
    pairs: tuple[tuple[int, tuple[int, ...]], ...]  # (representative, members)
    seed: int

    def representatives(self) -> list[int]:
        return [rep for rep, _ in self.pairs]


def _merge_trajectory(weights: np.ndarray):
    """Greedy average-linkage merge steps, yielded one at a time: (linkage, survivor i,
    absorbed j > i).

    A cluster lives at its smallest member's position.  ``sums``, the condensed
    ``weights`` expanded by squareform into a new table, holds the cross-weight
    sums between clusters; ``link`` holds sum / (size product) over the upper
    triangle, -inf elsewhere and for absorbed clusters, so no live link reads
    the diagonal.  Each step takes the first argmax of the whole table, the
    first maximum in C order: the lowest (smallest member, other smallest
    member) pair among the greatest linkages, which is the documented tie
    rule.  A live link of 0.0 still beats the -inf cells.  Nothing is expanded
    before the first step is asked for, and a step's merge is applied only when
    the next one is.
    """
    sums = squareform(weights)
    n = sums.shape[0]
    sizes = np.ones(n)
    gone = np.zeros(n)  # 0.0 for live clusters, -inf once absorbed
    link = np.where(np.tri(n, dtype=bool), -np.inf, sums)
    for _ in range(n - 1):
        i, j = divmod(int(link.argmax()), n)
        yield link[i, j], i, j
        sums[i] += sums[j]
        sums[:, i] = sums[i]
        sizes[i] += sizes[j]
        gone[j] = -np.inf
        link[j] = link[:, j] = -np.inf
        row = sums[i] / (sizes[i] * sizes) + gone
        link[i, i + 1:] = row[i + 1:]
        link[:i, i] = row[:i]


class _MergeBuild:
    """One graph's merge sequence, built as deep as its readers have asked.

    ``prefix(tau)`` takes steps from ``_merge_trajectory`` until the first
    linkage below ``tau`` (or the last step), under the build's lock, and returns
    the steps taken so far; a later, lower ``tau`` resumes the same build.  The
    build's tables live in the trajectory's frame, which is closed once the last
    step is taken.  A step that raises ends the trajectory, so the next request
    starts it over.
    """

    def __init__(self, weights: np.ndarray, n: int):
        self.lock = threading.Lock()
        self.weights = weights
        self.steps = _merge_trajectory(weights)
        self.linkage, self.floor = np.empty((2, max(n - 1, 0)))
        self.left, self.right = np.empty((2, max(n - 1, 0)), dtype=np.intp)
        self.taken = 0

    def prefix(self, tau: float):
        with self.lock:
            k = start = self.taken
            if k < len(self.linkage) and (k == 0 or -self.floor[k - 1] >= tau):
                try:
                    for k, (link, i, j) in enumerate(self.steps, start + 1):
                        self.linkage[k - 1], self.left[k - 1], self.right[k - 1] = link, i, j
                        if link < tau:
                            break
                except BaseException:
                    self.steps, self.taken = _merge_trajectory(self.weights), 0
                    raise
                if k == len(self.linkage):
                    self.steps.close()
                self.floor[start:k] = -np.minimum.accumulate(self.linkage[:k])[start:]
                self.taken = k
        return self.floor[:k], self.left[:k], self.right[:k]


@dataclass(frozen=True)
class SimilarityGraph:
    """Complete weighted undirected simple graph over ascending mutant ids.

    ``weights`` holds each edge once, condensed in ``pdist`` order, each in
    [0, 1] (exp(-distance) may underflow to 0); a table of another length or
    outside [0, 1] raises ValidationError.  The graph is frozen, so its merge
    build always belongs to its weights; ``dataclasses.replace`` gives a graph
    with a build of its own.
    """

    ids: tuple[int, ...]
    weights: np.ndarray  # (n(n-1)/2,) condensed

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.ids, self.ids[1:])):
            raise ValidationError("graph ids must be strictly increasing")
        w = np.asarray(self.weights, dtype=np.float64)
        n = len(self.ids)
        if w.shape != (n * (n - 1) // 2,):
            raise ValidationError(f"weight table {w.shape} does not condense {n} ids")
        # NaN fails both bounds, so this also rejects non-finite weights
        if not ((w >= 0) & (w <= 1)).all():
            raise ValidationError("weights must be finite and in [0, 1]")
        object.__setattr__(self, "weights", readonly(w))
        object.__setattr__(self, "_build", _MergeBuild(self.weights, n))

    @property
    def n_nodes(self) -> int:
        return len(self.ids)

    def merge_prefix(self, tau: float):
        """``(floor, left, right)`` of the merge steps down to the first linkage below
        ``tau``, or all of them: the negated running minimum of the step linkages and the
        merged positions.  A cut at any tau' >= tau keeps the steps before the first
        linkage below tau', ``searchsorted(floor, -tau', side="right")``."""
        return self._build.prefix(tau)

    @property
    def merge_sequence(self):
        """The whole merge sequence, ``merge_prefix`` with no step left out."""
        return self.merge_prefix(-np.inf)


def tau_cuts(graph: SimilarityGraph, taus):
    """Yields ``(order, sizes)`` of ``hac_cluster(graph, tau)`` per tau in ``taus``: node
    positions grouped by cluster, clusters in smallest-member order and members ascending,
    and the cluster sizes.  The build runs down to the lowest tau, and every tau's cut
    comes from one pass over a taus x n table: a cut keeps the steps that the floor
    counts, and a survivor sits below what it absorbs, so pointer jumping along each
    row finds each node's cluster."""
    taus = np.asarray(taus, dtype=np.float64)
    if not taus.size:
        return
    (floor, left, right), n = graph.merge_prefix(taus.min()), graph.n_nodes
    kept = np.arange(len(floor)) < np.searchsorted(floor, -taus, side="right")[:, None]
    rows, steps = np.nonzero(kept)
    root = np.tile(np.arange(n), (len(taus), 1))
    root[rows, right[steps]] = left[steps]
    up = np.take_along_axis(root, root, axis=1)
    while (up != root).any():
        root, up = up, np.take_along_axis(up, up, axis=1)
    sizes = np.bincount((root + n * np.arange(len(taus))[:, None]).ravel(),
                        minlength=len(taus) * n).reshape(len(taus), n)
    for order, row in zip(np.argsort(root, axis=1, kind="stable"), sizes):
        yield order, row[row > 0]


def check_tau(tau: float) -> None:
    """ParameterError unless ``tau`` is a number in (0, 1), the thresholds hac_cluster accepts."""
    if not (isinstance(tau, Real) and 0.0 < tau < 1.0):
        raise ParameterError(f"tau must lie in (0, 1), got {tau}")


def hac_cluster(graph: SimilarityGraph, tau: float) -> ClusterSet:
    """Partition of the graph's mutants at linkage threshold ``tau``.

    Equivalent to merging the best pair while its average linkage >= tau;
    implemented as a prefix cut of the graph's merge sequence, built down to tau.
    """
    check_tau(tau)
    order, sizes = next(tau_cuts(graph, [tau]))
    members, ends = np.asarray(graph.ids, dtype=np.int64)[order].tolist(), np.cumsum(sizes).tolist()
    return ClusterSet(tuple(tuple(members[a:b]) for a, b in zip([0, *ends], ends)), tau)


def mutant_reduction_rate(n_mutants: int, n_clusters: int) -> float:
    """(N - |C|) / N: fraction of mutants spared full testing."""
    if n_mutants < 1 or not 0 <= n_clusters <= n_mutants:
        raise ValidationError(f"cannot reduce {n_mutants} mutants to {n_clusters} clusters")
    return (n_mutants - n_clusters) / n_mutants


@dataclass
class XRound:
    """Trace of one sampling-rate round of the parameter search."""

    per_class_rate: int
    taus: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)
    cluster_counts: list[int] = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def iterations(self) -> int:
        return len(self.taus)


def tau_search(graph: SimilarityGraph, constraint: ReductionConstraint,
               trace: XRound) -> ClusterSet | None:
    """Binary search over tau on one graph; ``None`` when the round gives up.

    tau starts at the midpoint of (0, 1); a rate below the constraint lowers
    the upper bound, a rate above it raises the lower bound, and a rate
    inside returns ``hac_cluster`` at that tau, the one cut; each midpoint's
    cluster count is read off the merge sequence, built down to that midpoint.
    The round gives up when the midpoint leaves [1e-5, 0.99999] or the interval
    width drops under 1e-6 (plateau guard; the plain midpoint test alone cannot
    terminate on an interior plateau).  Every visited tau and the stop reason
    are recorded in ``trace``.
    """
    n = graph.n_nodes
    tau_lo, tau_hi = 0.0, 1.0
    while True:
        tau = tau_lo + (tau_hi - tau_lo) / 2
        if not TAU_FLOOR <= tau <= TAU_CEIL:
            trace.stop_reason = "midpoint-out-of-range"
            return None
        if tau_hi - tau_lo < WIDTH_CAP:
            trace.stop_reason = "interval-collapsed"
            return None
        count = n - int(np.searchsorted(graph.merge_prefix(tau)[0], -tau, side="right"))
        rate = mutant_reduction_rate(n, count)
        trace.taus.append(tau)
        trace.rates.append(rate)
        trace.cluster_counts.append(count)
        if rate < constraint.lo:
            tau_hi = tau
        elif rate > constraint.hi:
            tau_lo = tau
        else:
            trace.stop_reason = "satisfied"
            return hac_cluster(graph, tau)


def select_representatives(clusters: ClusterSet, seed: int) -> RepresentativeMap:
    """One representative per cluster.

    Clusters are visited sorted by smallest member id; the picks are uniform,
    drawn by ``draw_picks`` over the visited clusters' sizes.
    """
    ordered = sorted(clusters.clusters, key=lambda c: c[0])
    picks = draw_picks(np.array([len(c) for c in ordered], dtype=np.int64), seed)
    pairs = tuple((cluster[pick], tuple(cluster)) for cluster, pick in zip(ordered, picks.tolist()))
    return RepresentativeMap(pairs, seed)


def draw_picks(sizes: np.ndarray, seed: int) -> np.ndarray:
    """A uniform pick in each of clusters of ``sizes``: ``philox_rng(seed).integers(sizes)``,
    the picks of one ``integers(size)`` call per cluster in that order."""
    return philox_rng(seed).integers(sizes)
