import numpy as np
import pytest

from mutspect.clustering import (
    DEFAULT_REDUCTION,
    NOT_SATISFIABLE_MESSAGE,
    ClusterSet,
    ReductionConstraint,
    _merge_trajectory,
    hac_cluster,
    mutant_reduction_rate,
    parameter_search,
    select_representatives,
)
from mutspect.errors import ParameterError, ValidationError
from mutspect.pipeline import TAU_SWEEP_GRID
from mutspect.spectra import SimilarityGraph


def graph_from_weights(weights, ids=None):
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    ids = tuple(range(n)) if ids is None else tuple(ids)
    return SimilarityGraph(ids, w, sample_hash="test", transform="dft-magnitude")


def random_weight_table(n, rng):
    upper = np.triu(rng.uniform(0.01, 1.0, size=(n, n)), 1)
    w = upper + upper.T
    np.fill_diagonal(w, 1.0)
    return w


def oracle_agglomerate(weights, tau):
    """Exhaustive merge-while-linkage>=tau loop; independent of the library's
    trajectory/prefix implementation.  Linkage is np.mean over the cross
    block; ties resolve to the pair with the lowest (min member, other min)."""
    n = weights.shape[0]
    clusters = [[i] for i in range(n)]
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                link = float(np.mean(weights[np.ix_(clusters[a], clusters[b])]))
                lo = min(clusters[a][0], clusters[b][0])
                hi = max(clusters[a][0], clusters[b][0])
                key = (-link, lo, hi)
                if best is None or key < best[0]:
                    best = (key, a, b)
        (neg_link, _, _), a, b = best
        if -neg_link < tau:
            break
        merged = sorted(clusters[a] + clusters[b])
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)] + [merged]
    return sorted(tuple(c) for c in clusters)


def as_partition(cluster_set):
    return sorted(tuple(c) for c in cluster_set.clusters)


DYADIC_LEVELS = np.arange(1, 8) / 8  # 0.125 .. 0.875: sums and means are exact


def symmetric(upper):
    upper = np.triu(upper, 1)
    w = upper + upper.T
    np.fill_diagonal(w, 1.0)
    return w


def with_duplicates(w, pairs):
    """Make each ``dup`` a twin of ``src``: same row and column, weight 1.0."""
    w = w.copy()
    for src, dup in pairs:
        w[dup], w[:, dup] = w[src], w[:, src]
        w[src, dup] = w[dup, src] = 1.0
    np.fill_diagonal(w, 1.0)
    return w


def rescan_trajectory(weights):
    """Merge steps from a full argmax over the sum-based linkage table at every
    step: the library's arithmetic without its cached row maxima."""
    n = weights.shape[0]
    sums, sizes, alive = weights.astype(np.float64), np.ones(n), np.ones(n, bool)
    steps = []
    for _ in range(n - 1):
        link = sums / np.outer(sizes, sizes)
        link[~np.triu(alive[:, None] & alive[None, :], 1)] = -np.inf
        i, j = np.unravel_index(int(link.argmax()), link.shape)
        steps.append((float(link[i, j]), int(i), int(j)))
        sums[i] += sums[j]
        sums[:, i] = sums[i]
        sizes[i] += sizes[j]
        alive[j] = False
    return steps


def assert_matches_oracle(w, taus):
    graph = graph_from_weights(w)
    for tau in taus:
        got = as_partition(hac_cluster(graph, float(tau)))
        assert got == oracle_agglomerate(w, float(tau)), (w.shape[0], tau)


class TestHacCluster:
    def test_tau_above_all_weights_gives_singletons(self):
        rng = np.random.default_rng(0)
        w = random_weight_table(6, rng) * 0.5
        np.fill_diagonal(w, 1.0)
        graph = graph_from_weights(w)
        cs = hac_cluster(graph, 0.95)
        assert len(cs) == 6
        assert all(len(c) == 1 for c in cs.clusters)

    def test_tau_below_min_weight_gives_one_cluster(self):
        rng = np.random.default_rng(1)
        graph = graph_from_weights(random_weight_table(5, rng))
        cs = hac_cluster(graph, 0.005)
        assert len(cs) == 1
        assert cs.clusters[0] == (0, 1, 2, 3, 4)

    def test_planted_two_blocks(self):
        # within-block ~0.9, across ~0.1; tau = 0.5 recovers the blocks
        rng = np.random.default_rng(2)
        n = 5
        blocks = [(0, 1, 2), (3, 4)]
        w = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                same = any(i in blk and j in blk for blk in blocks)
                w[i, j] = 0.9 if same else 0.1
        w += np.triu(rng.uniform(-0.02, 0.02, (n, n)), 1)
        w = np.triu(w, 1) + np.triu(w, 1).T
        np.fill_diagonal(w, 1.0)
        graph = graph_from_weights(w)
        cs = hac_cluster(graph, 0.5)
        assert as_partition(cs) == [(0, 1, 2), (3, 4)]
        assert as_partition(cs) == oracle_agglomerate(w, 0.5)

    def test_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            w = random_weight_table(n, rng)
            graph = graph_from_weights(w)
            for tau in np.arange(0.05, 1.0, 0.05):
                got = as_partition(hac_cluster(graph, float(tau)))
                want = oracle_agglomerate(w, float(tau))
                assert got == want, (n, tau)

    def test_matches_oracle_on_dyadic_tie_tables(self):
        rng = np.random.default_rng(123)
        taus = sorted(set(TAU_SWEEP_GRID) | set(DYADIC_LEVELS))
        for _ in range(30):
            n = int(rng.integers(2, 9))
            assert_matches_oracle(symmetric(rng.choice(DYADIC_LEVELS, (n, n))), taus)

    def test_matches_oracle_with_duplicate_rows(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            w = symmetric(rng.choice(DYADIC_LEVELS, (n, n)))
            src = int(rng.integers(n))
            dups = rng.choice([k for k in range(n) if k != src], int(rng.integers(1, n)))
            w = with_duplicates(w, [(src, int(d)) for d in dups])
            assert_matches_oracle(w, TAU_SWEEP_GRID)

    @pytest.mark.parametrize("value", [0.125, 0.25, 0.5, 0.75, 1.0])
    def test_constant_tables(self, value):
        for n in range(2, 11):
            w = np.full((n, n), value)
            assert_matches_oracle(w, TAU_SWEEP_GRID)
            if value < 1.0:  # every linkage equals tau: all merge into one
                assert hac_cluster(graph_from_weights(w), value).clusters == (
                    tuple(range(n)),
                )

    def test_chain_at_tau_equal_to_weight(self):
        # w(0,1) = w(1,2) = tau: (0, 1) wins the tie, then 2 links at 0.5
        w = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.9], [0.1, 0.9, 1.0]])
        cs = hac_cluster(graph_from_weights(w), 0.9)
        assert as_partition(cs) == [(0, 1), (2,)] == oracle_agglomerate(w, 0.9)

    def test_tie_resolves_to_lowest_smallest_member_pair(self):
        w = np.full((4, 4), 0.25)
        w[1, 2] = w[2, 1] = w[2, 3] = w[3, 2] = 0.75
        np.fill_diagonal(w, 1.0)
        cs = hac_cluster(graph_from_weights(w), 0.75)
        assert as_partition(cs) == [(0,), (1, 2), (3,)] == oracle_agglomerate(w, 0.75)

    def test_planted_blocks_with_duplicates_all_sweep_taus(self):
        rng = np.random.default_rng(40)
        block = np.arange(40) // 10
        same = block[:, None] == block[None, :]
        w = symmetric(
            np.where(
                same,
                rng.choice(DYADIC_LEVELS[4:], (40, 40)),
                rng.choice(DYADIC_LEVELS[:2], (40, 40)),
            )
        )
        w = with_duplicates(w, [(0, 5), (0, 17), (12, 13), (21, 38), (30, 39)])
        assert_matches_oracle(w, TAU_SWEEP_GRID)

    def test_cached_build_matches_full_rescan_under_rounding(self):
        # with non-dyadic weights a merged row can round up to (or past) its
        # cached maximum; the cache must follow the computed values exactly
        levels = ((0.1, 0.3), (0.1, 0.3), (0.1, 0.2, 0.3, 0.6, 0.7, 0.9))
        rng = np.random.default_rng(2)
        block = np.full((5, 5), 0.1)
        block[2:, 2:] = 0.3
        tables = [
            symmetric(block),
            symmetric(
                np.array(
                    [
                        [1, 0.3, 0.1, 0.3, 0.3, 0.1, 0.1],
                        [0, 1, 0.3, 0.3, 0.3, 0.3, 0.3],
                        [0, 0, 1, 0.3, 0.1, 0.1, 0.3],
                        [0, 0, 0, 1, 0.3, 0.1, 0.1],
                        [0, 0, 0, 0, 1, 0.3, 0.3],
                        [0, 0, 0, 0, 0, 1, 0.1],
                        [0, 0, 0, 0, 0, 0, 1],
                    ]
                )
            ),
        ]
        for k in range(300):
            n = int(rng.integers(3, 10))
            tables.append(symmetric(rng.choice(levels[k % 3], (n, n))))
        for w in tables:
            got = [(s.linkage, s.i, s.j) for s in _merge_trajectory(w)]
            assert got == rescan_trajectory(w)

    def test_nan_weight_rejected_before_clustering(self):
        w = np.full((3, 3), 0.5)
        w[0, 1] = w[1, 0] = np.nan
        with pytest.raises(ValidationError):
            hac_cluster(graph_from_weights(w), 0.5)

    def test_monotone_cluster_count_in_tau(self):
        rng = np.random.default_rng(7)
        graph = graph_from_weights(random_weight_table(12, rng))
        sizes = [len(hac_cluster(graph, t)) for t in np.linspace(0.01, 0.99, 33)]
        assert sizes == sorted(sizes)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        graph = graph_from_weights(random_weight_table(9, rng))
        for tau in (0.2, 0.5, 0.8):
            cs = hac_cluster(graph, tau)
            members = [m for c in cs.clusters for m in c]
            assert sorted(members) == list(range(9))

    def test_ids_are_mutant_ids_not_positions(self):
        rng = np.random.default_rng(4)
        graph = graph_from_weights(random_weight_table(3, rng), ids=(10, 20, 30))
        cs = hac_cluster(graph, 0.001)
        assert cs.clusters[0] == (10, 20, 30)

    def test_tau_out_of_range(self):
        graph = graph_from_weights(np.eye(2) + 0.5 - 0.5 * np.eye(2))
        for tau in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ParameterError):
                hac_cluster(graph, tau)


class TestReductionRate:
    @pytest.mark.parametrize(
        "n,c,expected", [(10, 10, 0.0), (10, 1, 0.9), (7, 4, 3 / 7)]
    )
    def test_formula(self, n, c, expected):
        cs = ClusterSet(tuple((i,) for i in range(c)), tau=0.5)
        assert mutant_reduction_rate(n, cs) == pytest.approx(expected)

    def test_more_clusters_than_mutants(self):
        cs = ClusterSet(((0,), (1,)), tau=0.5)
        with pytest.raises(ValidationError):
            mutant_reduction_rate(1, cs)


class TestConstraint:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ReductionConstraint(0.6, 0.4)
        with pytest.raises(ValidationError):
            ReductionConstraint(-0.1, 0.5)
        assert DEFAULT_REDUCTION.lo == 0.26 and DEFAULT_REDUCTION.hi == 0.56


class TestParameterSearch:
    def build_for(self, weights):
        graph = graph_from_weights(weights)

        def build(x):
            return None, graph

        return build

    def test_uniform_graph_first_midpoint(self):
        n = 10
        w = np.ones((n, n))
        build = self.build_for(w)
        # (N - 1) / N = 0.9 inside [0.85, 0.95]: returned at tau = 0.5
        res = parameter_search(build, ReductionConstraint(0.85, 0.95), x_grid=(1,))
        assert res.found and res.tau == 0.5
        assert len(res.clusters) == 1
        assert res.rounds[0].iterations == 1

    def test_uniform_graph_out_of_band_not_satisfiable(self):
        n = 10
        w = np.ones((n, n))
        build = self.build_for(w)
        res = parameter_search(build, ReductionConstraint(0.2, 0.5), x_grid=(1, 3))
        assert not res.found
        assert res.message == NOT_SATISFIABLE_MESSAGE
        assert [r.per_class_rate for r in res.rounds] == [1, 3]
        for r in res.rounds:
            assert r.iterations <= 25

    def test_all_distinct_low_similarity_not_satisfiable(self):
        rng = np.random.default_rng(11)
        n = 8
        w = random_weight_table(n, rng) * 1e-6
        np.fill_diagonal(w, 1.0)
        res = parameter_search(self.build_for(w), ReductionConstraint(0.5, 0.6))
        assert not res.found
        assert len(res.rounds) == 11

    def test_planted_blocks_found_and_matches_oracle_trajectory(self):
        rng = np.random.default_rng(21)
        n = 10
        w = np.where(
            (np.arange(n)[:, None] < 5) == (np.arange(n)[None, :] < 5),
            rng.uniform(0.85, 0.95, (n, n)),
            rng.uniform(0.05, 0.15, (n, n)),
        )
        w = np.triu(w, 1) + np.triu(w, 1).T
        np.fill_diagonal(w, 1.0)
        res = parameter_search(self.build_for(w), DEFAULT_REDUCTION, x_grid=(1,))
        assert res.found
        assert DEFAULT_REDUCTION.contains(mutant_reduction_rate(n, res.clusters))
        trace = res.rounds[0]
        assert trace.iterations <= 25
        # every tau the search visited must agree with the exhaustive oracle
        for tau, count in zip(trace.taus, trace.cluster_counts):
            assert len(oracle_agglomerate(w, tau)) == count

    def test_iteration_bound(self):
        rng = np.random.default_rng(5)
        w = random_weight_table(20, rng)
        res = parameter_search(
            self.build_for(w), ReductionConstraint(0.399999, 0.4), x_grid=(1,)
        )
        assert res.rounds[0].iterations <= 25


class TestRepresentatives:
    def test_singletons_represent_themselves(self):
        cs = ClusterSet(((0,), (1,), (2,)), tau=0.9)
        reps = select_representatives(cs, seed=1)
        assert [pair for pair in reps.pairs] == [(0, (0,)), (1, (1,)), (2, (2,))]

    def test_same_seed_same_map(self):
        cs = ClusterSet(((0, 1, 2, 3), (4, 5)), tau=0.5)
        a = select_representatives(cs, seed=9)
        b = select_representatives(cs, seed=9)
        assert a == b

    def test_deterministic_mode(self):
        cs = ClusterSet(((3, 7, 9), (1, 2)), tau=0.5)
        reps = select_representatives(cs, seed=0, deterministic=True)
        assert reps.representatives() == [1, 3]

    def test_uniform_pick_frequencies(self):
        cs = ClusterSet(((0, 1, 2, 3),), tau=0.5)
        counts = {m: 0 for m in range(4)}
        for seed in range(1000):
            rep = select_representatives(cs, seed=seed).representatives()[0]
            counts[rep] += 1
        # binomial(1000, 1/4): 3 sigma ~= 41
        for m in range(4):
            assert abs(counts[m] - 250) <= 41
