"""Threshold agglomerative clustering and the coupled x/tau parameter search.

Clustering is sequential average-linkage agglomeration over the similarity
graph: starting from singletons, repeatedly merge the cluster pair with the
greatest mean cross-pair similarity while that greatest linkage is at least
``tau``.  Average linkage is reducible (a merged cluster's linkage to any
third cluster never exceeds the linkage just consumed), so the greedy merge
sequence does not depend on ``tau``; the threshold only picks the stopping
point.  The sequence is therefore computed once per graph and cached, and a
clustering at any ``tau`` is a prefix cut of it.

The build keeps the cross-weight sums between clusters and a cached best
partner per row (row maxima), so each of the n - 1 steps costs O(n) plus
O(n) per row whose cached best it invalidates; memory is a few n x n float64
tables.  Linkage is the sum divided by the size product, which is exact
whenever the sums are (e.g. dyadic weights), so equal linkages stay equal.
Ties go to the pair with the lowest smallest member, then the lowest
smallest member of the other cluster.

The parameter search walks the sampling-rate grid linearly and binary-searches
``tau`` inside each round until the mutant reduction rate lands in the
requested constraint interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ValidationError
from .spectra import SampleSet, SimilarityGraph
from .util import phase_timer, philox_rng

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

    def contains(self, rate: float) -> bool:
        return self.lo <= rate <= self.hi


DEFAULT_REDUCTION = ReductionConstraint(0.26, 0.56)


@dataclass(frozen=True)
class ClusterSet:
    """Disjoint nonempty clusters covering the graph's mutant ids."""

    clusters: tuple[tuple[int, ...], ...]
    tau: float
    per_class_rate: int | None = None

    def __len__(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class RepresentativeMap:
    pairs: tuple[tuple[int, tuple[int, ...]], ...]  # (representative, members)
    seed: int

    def representatives(self) -> list[int]:
        return [rep for rep, _ in self.pairs]


class MergeStep(NamedTuple):
    linkage: float
    i: int  # surviving graph position: the merged cluster's smallest member
    j: int  # absorbed graph position, j > i


def _merge_trajectory(weights: np.ndarray) -> list[MergeStep]:
    """Full greedy average-linkage merge sequence for a dense weight table.

    A cluster lives at its smallest member's position.  ``sums`` holds the
    cross-weight sums between clusters; ``link`` holds sum / (size product)
    over the upper triangle, -inf elsewhere and for absorbed clusters.
    ``best`` and ``top`` cache each row's first argmax and its value, so the
    first argmax of ``top`` and then of that row is the lowest (smallest
    member, other smallest member) pair among the greatest linkages: the
    documented tie rule.  Each step refreshes only the rows whose cached
    best can change.
    """
    n = weights.shape[0]
    if n < 2:
        return []
    sums = np.array(weights, dtype=np.float64)
    sizes = np.ones(n)
    gone = np.zeros(n)  # 0.0 for live clusters, -inf once absorbed
    link = np.where(np.triu(np.ones((n, n), dtype=bool), 1), sums, -np.inf)
    best = link.argmax(axis=1)
    top = link[np.arange(n), best]
    steps: list[MergeStep] = []
    for _ in range(n - 1):
        i = int(top.argmax())
        j = int(best[i])
        steps.append(MergeStep(float(top[i]), i, j))
        sums[i] += sums[j]
        sums[:, i] = sums[i]
        sizes[i] += sizes[j]
        gone[j] = -np.inf
        link[j] = link[:, j] = top[j] = -np.inf
        row = sums[i] / (sizes[i] * sizes) + gone
        link[i, i + 1:] = row[i + 1:]
        link[:i, i] = row[:i]
        stale = (best == i) | (best == j)  # row i included: best[i] was j
        beats = (row[:i] > top[:i]) | ((row[:i] == top[:i]) & (best[:i] > i))
        best[:i][beats], top[:i][beats] = i, row[:i][beats]
        rows = np.flatnonzero(stale)
        best[rows] = link[rows].argmax(axis=1)
        top[rows] = link[rows, best[rows]]
    return steps


def hac_cluster(graph: SimilarityGraph, tau: float) -> ClusterSet:
    """Partition of the graph's mutants at linkage threshold ``tau``.

    Equivalent to merging the best pair while its average linkage >= tau;
    implemented as a prefix cut of the cached merge trajectory.
    """
    if not 0.0 < tau < 1.0:
        raise ParameterError(f"tau must lie in (0, 1), got {tau}")
    if graph._trajectory is None:
        graph._trajectory = _merge_trajectory(graph.weights)
    parent = list(range(graph.n_nodes))
    for step in graph._trajectory:
        if step.linkage < tau:
            break
        parent[step.j] = step.i
    groups: dict[int, list[int]] = {}
    for pos, mutant_id in enumerate(graph.ids):
        parent[pos] = parent[parent[pos]]  # parents sit lower: already roots
        groups.setdefault(parent[pos], []).append(mutant_id)
    clusters = sorted(map(tuple, groups.values()), key=lambda c: c[0])
    return ClusterSet(tuple(clusters), tau)


def mutant_reduction_rate(n_mutants: int, clusters: ClusterSet) -> float:
    """(N - |C|) / N: fraction of mutants spared full testing."""
    if len(clusters) > n_mutants:
        raise ValidationError("more clusters than mutants")
    return (n_mutants - len(clusters)) / n_mutants


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


@dataclass
class SearchResult:
    found: bool
    clusters: ClusterSet | None = None
    sample: SampleSet | None = None
    per_class_rate: int | None = None
    tau: float | None = None
    rounds: list[XRound] = field(default_factory=list)

    @property
    def message(self) -> str:
        return "satisfied" if self.found else NOT_SATISFIABLE_MESSAGE


def parameter_search(
    build,
    constraint: ReductionConstraint,
    x_grid=X_GRID,
    n_mutants: int | None = None,
    phases: dict | None = None,
) -> SearchResult:
    """Linear search over sampling rates, binary search over tau per rate.

    ``build(x)`` must return ``(SampleSet, SimilarityGraph)`` for sampling
    rate ``x``.  Per round, tau starts at the midpoint of (0, 1); a rate
    below the constraint lowers the upper bound, a rate above it raises the
    lower bound, and a rate inside returns immediately.  A round ends when
    the midpoint leaves [1e-5, 0.99999] or the interval width drops under
    1e-6 (plateau guard; the plain midpoint test alone cannot terminate on
    an interior plateau).  Not satisfiable is a value, not an exception.
    ``phases`` accumulates wall-clock seconds spent in clustering calls.
    """
    phases = {} if phases is None else phases
    rounds: list[XRound] = []
    for x in x_grid:
        sample, graph = build(x)
        n = n_mutants if n_mutants is not None else graph.n_nodes
        round_trace = XRound(per_class_rate=x)
        rounds.append(round_trace)
        tau_lo, tau_hi = 0.0, 1.0
        while True:
            tau = tau_lo + (tau_hi - tau_lo) / 2
            if not TAU_FLOOR <= tau <= TAU_CEIL:
                round_trace.stop_reason = "midpoint-out-of-range"
                break
            if tau_hi - tau_lo < WIDTH_CAP:
                round_trace.stop_reason = "interval-collapsed"
                break
            with phase_timer(phases, "clustering"):
                clusters = hac_cluster(graph, tau)
            rate = mutant_reduction_rate(n, clusters)
            round_trace.taus.append(tau)
            round_trace.rates.append(rate)
            round_trace.cluster_counts.append(len(clusters))
            if rate < constraint.lo:
                tau_hi = tau
            elif rate > constraint.hi:
                tau_lo = tau
            else:
                round_trace.stop_reason = "satisfied"
                clusters = ClusterSet(clusters.clusters, tau, per_class_rate=x)
                return SearchResult(
                    found=True,
                    clusters=clusters,
                    sample=sample,
                    per_class_rate=x,
                    tau=tau,
                    rounds=rounds,
                )
    return SearchResult(found=False, rounds=rounds)


def select_representatives(
    clusters: ClusterSet, seed: int, deterministic: bool = False
) -> RepresentativeMap:
    """One representative per cluster.

    Clusters are visited sorted by smallest member id; the pick is uniform
    via one ``integers(len(cluster))`` draw per cluster from
    ``philox_rng(seed)``, or the lowest member id in deterministic mode.
    """
    rng = philox_rng(seed)
    pairs = []
    for cluster in sorted(clusters.clusters, key=lambda c: c[0]):
        if deterministic:
            rep = cluster[0]
        else:
            rep = cluster[int(rng.integers(len(cluster)))]
        pairs.append((rep, tuple(cluster)))
    return RepresentativeMap(tuple(pairs), seed)
