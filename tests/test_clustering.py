import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from mutspect.clustering import (
    DEFAULT_REDUCTION,
    NOT_SATISFIABLE_MESSAGE,
    X_GRID,
    ClusterSet,
    ReductionConstraint,
    SimilarityGraph,
    XRound,
    _merge_trajectory,
    hac_cluster,
    mutant_reduction_rate,
    draw_picks,
    select_representatives,
    tau_cuts,
    tau_search,
)
from mutspect.errors import ParameterError, ValidationError
from mutspect.pipeline import TAU_SWEEP_GRID, parameter_search
from mutspect.reports import run_report_payload
from mutspect.spectra import TRANSFORM_DFT, SampleSet, SpectraSet, build_similarity_graph
from mutspect.synth import fitted_classifier, gaussian_blobs
from mutspect.util import philox_rng


def graph_from_weights(weights, ids=None):
    """The graph of a square table: its upper triangle, condensed row by row."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    ids = tuple(range(n)) if ids is None else tuple(ids)
    return SimilarityGraph(ids, squareform(w, checks=False))


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


def trajectory(weights):
    """The whole merge sequence of condensed ``weights`` as arrays: the step
    linkages, the survivors and the absorbed positions."""
    steps = list(_merge_trajectory(weights))
    linkage = np.array([link for link, _, _ in steps], dtype=np.float64)
    left, right = np.array([(i, j) for _, i, j in steps], dtype=np.intp).reshape(-1, 2).T
    return linkage, left, right


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


# the merge build rests on ndarray.argmax returning the first maximum of a
# table holding -inf, a property of the installed numpy, and writes into the
# new table scipy's squareform expands the condensed graph into
@pytest.mark.oldest_supported
class TestHacCluster:
    def test_merge_build_holds_two_square_tables(self):
        # the expanded sums and the linkage table, plus a boolean mask; a
        # copy of an expanded graph would make three float64 tables
        n = 300
        graph = graph_from_weights(random_weight_table(n, np.random.default_rng(5)))
        tracemalloc.start()
        try:
            graph.merge_sequence
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8

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
        # with non-dyadic weights a merged row can round up to (or past) the
        # old maximum; the incrementally updated table must pick exactly what
        # a full recomputation of every linkage picks
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
            steps = trajectory(squareform(w, checks=False))
            got = list(zip(*(column.tolist() for column in steps)))
            assert got == rescan_trajectory(w)

    @pytest.mark.parametrize("n", [50, 100, 200])
    @pytest.mark.parametrize("kind", ["dyadic", "duplicates", "zeros"])
    def test_build_matches_full_rescan_at_benchmark_scale(self, n, kind):
        # zeros: exp(-distance) can underflow to 0.0, and a live 0.0 link
        # must still beat the -inf cells of absorbed clusters
        rng = np.random.default_rng(n)
        if kind == "zeros":
            w = symmetric(np.zeros((n, n)))
        else:
            w = symmetric(rng.choice(DYADIC_LEVELS, (n, n)))
        if kind == "duplicates":
            srcs = rng.choice(n, n // 5, replace=False)
            dups = rng.choice(np.setdiff1d(np.arange(n), srcs), n // 5, replace=False)
            w = with_duplicates(w, [(int(a), int(b)) for a, b in zip(srcs, dups)])
        steps = trajectory(squareform(w, checks=False))
        got = list(zip(*(column.tolist() for column in steps)))
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
        for tau in (0.0, 1.0, -0.3, 2.0, float("nan"), "0.5", None):
            with pytest.raises(ParameterError):
                hac_cluster(graph, tau)


class TestReductionRate:
    @pytest.mark.parametrize(
        "n,c,expected", [(10, 10, 0.0), (10, 1, 0.9), (7, 4, 3 / 7)]
    )
    def test_formula(self, n, c, expected):
        assert mutant_reduction_rate(n, c) == pytest.approx(expected)

    def test_more_clusters_than_mutants(self):
        # no mutants, negative counts and an empty graph are impossible too
        for n, c in [(1, 2), (0, 0), (0, 1), (5, -1), (-1, -1)]:
            with pytest.raises(ValidationError):
                mutant_reduction_rate(n, c)
        with pytest.raises(ValidationError):
            tau_search(SimilarityGraph((), np.empty(0)), DEFAULT_REDUCTION,
                       XRound(per_class_rate=1))


class TestConstraint:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ReductionConstraint(0.6, 0.4)
        with pytest.raises(ValidationError):
            ReductionConstraint(-0.1, 0.5)
        assert DEFAULT_REDUCTION.lo == 0.26 and DEFAULT_REDUCTION.hi == 0.56


# the search reads each midpoint's cluster count off np.minimum.accumulate of
# the step linkages with np.searchsorted, properties of the installed numpy
@pytest.mark.oldest_supported
class TestTauSearch:
    def test_uniform_graph_first_midpoint(self):
        n = 10
        trace = XRound(per_class_rate=1)
        # (N - 1) / N = 0.9 inside [0.85, 0.95]: returned at tau = 0.5
        clusters = tau_search(graph_from_weights(np.ones((n, n))),
                              ReductionConstraint(0.85, 0.95), trace)
        assert clusters.tau == 0.5
        assert len(clusters) == 1
        assert trace.iterations == 1 and trace.stop_reason == "satisfied"

    def test_uniform_graph_out_of_band_not_satisfiable(self):
        n = 10
        trace = XRound(per_class_rate=1)
        clusters = tau_search(graph_from_weights(np.ones((n, n))),
                              ReductionConstraint(0.2, 0.5), trace)
        assert clusters is None
        assert trace.stop_reason in ("midpoint-out-of-range", "interval-collapsed")
        assert trace.iterations <= 25

    def test_all_distinct_low_similarity_not_satisfiable(self):
        rng = np.random.default_rng(11)
        n = 8
        w = random_weight_table(n, rng) * 1e-6
        np.fill_diagonal(w, 1.0)
        trace = XRound(per_class_rate=1)
        assert tau_search(graph_from_weights(w), ReductionConstraint(0.5, 0.6), trace) is None
        assert trace.stop_reason in ("midpoint-out-of-range", "interval-collapsed")

    @staticmethod
    def search_table(kind):
        rng = np.random.default_rng(21)
        if kind == "planted":
            n = 10
            w = np.where(
                (np.arange(n)[:, None] < 5) == (np.arange(n)[None, :] < 5),
                rng.uniform(0.85, 0.95, (n, n)),
                rng.uniform(0.05, 0.15, (n, n)),
            )
            return symmetric(w)
        if kind == "dyadic-ties":
            return symmetric(rng.choice(DYADIC_LEVELS, (12, 12)))
        if kind == "duplicate-rows":
            w = symmetric(rng.choice(DYADIC_LEVELS, (12, 12)))
            return with_duplicates(w, [(0, 3), (0, 7), (5, 9), (10, 11)])
        # step linkages 0.7, 0.1, 0.10000000000000002: no rate lands in the
        # goal, so the midpoints close in on 0.1 from both sides
        return symmetric(np.array([[1, 0.7, 0.1, 0.1], [0, 1, 0.1, 0.1],
                                   [0, 0, 1, 0.1], [0, 0, 0, 1]]))

    @pytest.mark.parametrize("kind", ["planted", "dyadic-ties", "duplicate-rows", "non-monotone"])
    def test_planted_blocks_found_and_matches_oracle_trajectory(self, kind):
        w = self.search_table(kind)
        n = w.shape[0]
        trace = XRound(per_class_rate=1)
        clusters = tau_search(graph_from_weights(w), DEFAULT_REDUCTION, trace)
        assert (clusters is None) == (kind == "non-monotone")
        if clusters is not None:
            rate = mutant_reduction_rate(n, len(clusters))
            assert DEFAULT_REDUCTION.lo <= rate <= DEFAULT_REDUCTION.hi
            assert clusters.tau == trace.taus[-1]
            assert as_partition(clusters) == oracle_agglomerate(w, clusters.tau)
        assert trace.iterations <= 25
        # every tau the search visited must agree with the exhaustive oracle
        for tau, count in zip(trace.taus, trace.cluster_counts):
            assert len(oracle_agglomerate(w, tau)) == count

    def test_iteration_bound(self):
        rng = np.random.default_rng(5)
        w = random_weight_table(20, rng)
        trace = XRound(per_class_rate=1)
        tau_search(graph_from_weights(w), ReductionConstraint(0.399999, 0.4), trace)
        assert trace.iterations <= 25

    def test_cuts_go_through_the_module_global(self, monkeypatch):
        # call tracers wrap clustering.hac_cluster and must see every cut: the
        # midpoints' counts come off the merge sequence, so a satisfied search
        # cuts once, at the tau it returns, and an unsatisfiable one never
        import mutspect.clustering as clustering

        cuts = []
        real = clustering.hac_cluster

        def counted(graph, tau):
            cuts.append(tau)
            return real(graph, tau)

        monkeypatch.setattr(clustering, "hac_cluster", counted)
        trace = XRound(per_class_rate=1)
        clusters = tau_search(
            graph_from_weights(random_weight_table(12, np.random.default_rng(3))),
            DEFAULT_REDUCTION, trace)
        assert cuts == [clusters.tau] == trace.taus[-1:] and trace.stop_reason == "satisfied"
        cuts.clear()
        trace = XRound(per_class_rate=1)
        assert tau_search(graph_from_weights(np.ones((10, 10))),
                          ReductionConstraint(0.2, 0.5), trace) is None
        assert cuts == [] and trace.iterations > 1


class TestParameterSearch:
    """The pipeline's walk over sampling rates, on fake graphs."""

    @staticmethod
    def build_for(weights):
        graph = graph_from_weights(weights)

        def build(x):
            return f"sample-{x}", graph

        return build

    def test_first_satisfying_round_ends_the_search(self):
        phases = {}
        rounds, sample, clusters = parameter_search(
            self.build_for(np.ones((10, 10))), ReductionConstraint(0.85, 0.95), (1, 3), phases
        )
        assert [r.per_class_rate for r in rounds] == [1]
        assert sample == "sample-1" and clusters.tau == 0.5
        assert set(phases) == {"clustering"}

    def test_rounds_follow_the_grid(self):
        rounds, sample, clusters = parameter_search(
            self.build_for(np.ones((10, 10))), ReductionConstraint(0.2, 0.5), (1, 3), {}
        )
        assert sample is None and clusters is None
        assert [r.per_class_rate for r in rounds] == [1, 3]
        for r in rounds:
            assert r.iterations <= 25

    def test_exhausted_grid_is_not_satisfiable(self, monkeypatch):
        import mutspect.pipeline as pipeline

        rng = np.random.default_rng(11)
        w = random_weight_table(8, rng) * 1e-6
        np.fill_diagonal(w, 1.0)
        constraint = ReductionConstraint(0.5, 0.6)
        rounds, _, clusters = parameter_search(self.build_for(w), constraint, X_GRID, {})
        assert clusters is None and len(rounds) == 11
        # the run reports the exhausted search as a value with the goal message;
        # the faked graphs never read the mutants or their models
        build = self.build_for(w)
        monkeypatch.setattr(pipeline, "_graph_at", lambda *args: build(args[-1]))
        monkeypatch.setattr(pipeline, "_distinct_models", lambda mutants: (None, {}))
        dataset = gaussian_blobs(20, 2, 3, seed=0)
        original = fitted_classifier(dataset, hidden=(4,), seed=0)
        res = pipeline.run_accelerated(original, None, dataset, constraint=constraint)
        assert not res.found and res.table is None
        assert run_report_payload(res, {}, {})["message"] == NOT_SATISFIABLE_MESSAGE
        assert len(res.search_rounds) == 11


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

    def test_uniform_pick_frequencies(self):
        cs = ClusterSet(((0, 1, 2, 3),), tau=0.5)
        counts = {m: 0 for m in range(4)}
        for seed in range(1000):
            rep = select_representatives(cs, seed=seed).representatives()[0]
            counts[rep] += 1
        # binomial(1000, 1/4): 3 sigma ~= 41
        for m in range(4):
            assert abs(counts[m] - 250) <= 41


def sequential_representatives(clusters, seed):
    """One ``integers(len(cluster))`` draw per cluster, in order of smallest
    member, on one generator: test-side reference for the single draw."""
    rng = philox_rng(seed)
    ordered = sorted(clusters.clusters, key=lambda c: c[0])
    return tuple((c[int(rng.integers(len(c)))], tuple(c)) for c in ordered)


@pytest.mark.oldest_supported
class TestDrawOracle:
    """select_representatives draws every pick in one call over the cluster
    sizes; it must give the picks of one draw per cluster.  This rests on
    numpy's broadcast path of ``integers``, so CI also runs it on the lowest
    supported numpy."""

    @settings(max_examples=300, deadline=None)
    @given(
        sizes=st.lists(st.one_of(st.just(1), st.integers(1, 9), st.integers(1, 3000)),
                       min_size=1, max_size=48),
        order=st.randoms(use_true_random=False),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_single_draw_equals_sequential_draws(self, sizes, order, seed):
        bounds = np.cumsum([0, *sizes])
        clusters = [tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]
        order.shuffle(clusters)  # the function sorts them itself
        cs = ClusterSet(tuple(clusters), tau=0.5)
        reps = select_representatives(cs, seed)
        assert reps.pairs == sequential_representatives(cs, seed)

    def test_no_clusters_no_picks(self):
        assert select_representatives(ClusterSet((), tau=0.5), seed=3).pairs == ()


def loop_cut(graph, tau):
    """Clusters at ``tau`` by a union loop over the merge steps, independent
    of tau_cuts: each step joins its right node to its left one until the
    first linkage below tau; clusters in smallest-member order, members
    ascending."""
    linkage, left, right = trajectory(graph.weights)
    parent = list(range(graph.n_nodes))
    for link, i, j in zip(linkage.tolist(), left.tolist(), right.tolist()):
        if link < tau:
            break
        parent[j] = i
    groups = {}
    for pos, mutant_id in enumerate(graph.ids):
        parent[pos] = parent[parent[pos]]  # a left node sits lower: already a root
        groups.setdefault(parent[pos], []).append(mutant_id)
    return sorted(map(tuple, groups.values()), key=lambda c: c[0])


def row_and_member_graphs(rows, counts, rng):
    """Graphs of the same mutants at shuffled ids, built from two spectra: one with a
    row per model of ``rows`` and ``counts`` byte-equal members each, and one with a
    row per mutant, where each member repeats its model's row."""
    owner = rng.permutation(np.repeat(np.arange(len(rows)), counts))  # model per node
    ids = np.arange(len(owner)) * 3 + 5
    models = np.argsort(np.unique(owner, return_index=True)[1])  # by smallest member
    members = tuple(tuple(ids[owner == k].tolist()) for k in models)
    sample = SampleSet(np.arange(rows.shape[2]), 1, 0)
    by_row = SpectraSet(tuple(m[0] for m in members), rows[models], sample, TRANSFORM_DFT,
                        members=members)
    by_member = SpectraSet(tuple(ids.tolist()), rows[owner], sample, TRANSFORM_DFT)
    return build_similarity_graph(by_row), build_similarity_graph(by_member)


# the graph from a row per model must hold the weights of the graph from a row
# per member bit for bit, which rests on pdist computing each pair alone: a
# pair's distance depends neither on the other rows nor on which row leads
@pytest.mark.oldest_supported
class TestTwinRowOracle:
    """Spectra with one row per distinct model and member counts 1-6 give the
    weights, bit for bit, the floor and the cuts of spectra with a row per mutant."""

    TAUS = np.linspace(0.02, 0.98, 49)

    def assert_same_graph(self, rows, counts, rng):
        by_row, by_member = row_and_member_graphs(rows, counts, rng)
        assert by_row.ids == by_member.ids and by_row.n_nodes == int(np.sum(counts))
        assert by_row.weights.tobytes() == by_member.weights.tobytes()
        assert by_row.merge_sequence[0].tobytes() == by_member.merge_sequence[0].tobytes()
        for got, want in zip(tau_cuts(by_row, self.TAUS), tau_cuts(by_member, self.TAUS),
                             strict=True):
            assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()

    def test_gaussian_rows(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            d = int(rng.integers(2, 30))
            rows = rng.normal(scale=float(rng.uniform(0.1, 0.6)), size=(d, 2, 3))
            self.assert_same_graph(rows, rng.integers(1, 7, d), rng)

    def test_tie_heavy_integer_grid_rows(self):
        # few distinct distances, so most steps are decided by the tie rule;
        # rows repeat, so distinct models also sit at a weight of exactly 1.0
        rng = np.random.default_rng(32)
        equal_rows = 0
        for _ in range(60):
            rows = rng.integers(0, 3, size=(int(rng.integers(2, 30)), 2, 2)) * 0.5
            equal_rows += len(np.unique(rows, axis=0)) < len(rows)
            self.assert_same_graph(rows, rng.integers(1, 7, len(rows)), rng)
        assert equal_rows > 20

    def test_twins_sit_at_weight_one(self):
        sample = SampleSet(np.arange(2), 1, 0)
        rows = np.array([[[0.0, 0.0]], [[3.0, 4.0]]])  # distance 5
        graph = build_similarity_graph(SpectraSet((2, 4), rows, sample, TRANSFORM_DFT,
                                                  members=((2, 6, 9), (4,))))
        w = float(np.exp(-5.0))
        assert graph.ids == (2, 4, 6, 9)
        assert graph.weights.tolist() == [w, 1.0, 1.0, w, w, 1.0]
        assert hac_cluster(graph, 0.5).clusters == ((2, 6, 9), (4,))


@pytest.mark.one_blas_thread
@pytest.mark.oldest_supported
class TestCutPassOracle:
    """tau_cuts, with draw_picks, gives for every tau what a union loop over
    the merge steps and one ``integers(size)`` draw per cluster give: the
    cluster count, the sizes, the clusters and members in order and the
    drawn representatives; hac_cluster and select_representatives agree.
    Its prefix lookup reads the running minimum of the step linkages and its
    draws go through numpy's broadcast ``integers``, so CI also runs these on
    one BLAS thread and on the lowest supported numpy."""

    @staticmethod
    def assert_cuts_match(graph, taus, seed=0):
        ids = np.asarray(graph.ids)
        cuts = list(tau_cuts(graph, taus))
        assert len(cuts) == len(taus)
        for k, (tau, (order, sizes)) in enumerate(zip(taus, cuts)):
            expected = loop_cut(graph, tau)
            assert sizes.tolist() == [len(c) for c in expected], tau
            assert ids[order].tolist() == [m for c in expected for m in c], tau
            clusters = hac_cluster(graph, tau)
            assert clusters.clusters == tuple(expected), tau
            rng = philox_rng(seed + k)
            drawn = [c[int(rng.integers(len(c)))] for c in expected]
            # the sweep's representatives: each cluster's drawn member, by position
            reps = order[np.cumsum(sizes) - sizes + draw_picks(sizes, seed + k)]
            assert ids[reps].tolist() == drawn, tau
            assert select_representatives(clusters, seed + k).representatives() == drawn, tau

    def test_random_tables_with_an_unsorted_grid(self):
        rng = np.random.default_rng(17)
        taus = list(TAU_SWEEP_GRID)
        for k in range(30):
            rng.shuffle(taus)
            w = random_weight_table(int(rng.integers(2, 40)), rng)
            self.assert_cuts_match(graph_from_weights(w), taus, seed=k)

    def test_exact_ties_and_duplicate_rows(self):
        rng = np.random.default_rng(18)
        for k in range(30):
            n = int(rng.integers(3, 30))
            w = symmetric(rng.choice(DYADIC_LEVELS, (n, n)))
            dups = rng.choice(np.arange(1, n), int(rng.integers(1, n)))
            w = with_duplicates(w, [(0, int(d)) for d in dups])
            taus = [*TAU_SWEEP_GRID, *DYADIC_LEVELS[::-1]]
            self.assert_cuts_match(graph_from_weights(w, ids=range(5, 5 + 3 * n, 3)), taus, k)
        for value in (0.125, 0.5, 0.9):
            self.assert_cuts_match(graph_from_weights(np.full((12, 12), value)),
                                   [value, 0.05, 0.95])

    def test_taus_equal_to_step_linkages(self):
        rng = np.random.default_rng(19)
        for k in range(20):
            w = random_weight_table(int(rng.integers(2, 30)), rng)
            linkage = trajectory(squareform(w, checks=False))[0]
            taus = [float(t) for t in np.unique(linkage) if 0 < t < 1]
            taus += [float(np.nextafter(t, side)) for side in (0, 1) for t in taus]
            self.assert_cuts_match(graph_from_weights(w), taus, seed=k)

    def test_step_linkages_not_monotone_in_floating_point(self):
        # merging 0 and 1 (0.7) leaves linkages 0.1 to {0, 1} and 0.1 between
        # 2 and 3; the last step's mean of 0.1s rounds above the step before
        w = symmetric(np.array([[1, 0.7, 0.1, 0.1], [0, 1, 0.1, 0.1],
                                [0, 0, 1, 0.1], [0, 0, 0, 1]]))
        linkage = trajectory(squareform(w, checks=False))[0]
        assert linkage.tolist() == [0.7, 0.1, 0.10000000000000002]
        taus = [0.1, 0.10000000000000002, float(np.nextafter(0.1, 0)), 0.7, 0.5]
        self.assert_cuts_match(graph_from_weights(w), taus)
        # hac_cluster stops at the first step below tau, whatever follows it
        assert len(hac_cluster(graph_from_weights(w), 0.10000000000000002)) == 3
        assert len(hac_cluster(graph_from_weights(w), 0.1)) == 1

    def test_graph_is_frozen(self):
        # a cut reads the merge sequence cached on the graph, so its weights
        # and ids may not change under it
        graph = graph_from_weights(np.eye(3))
        assert len(hac_cluster(graph, 0.5)) == 3
        for name, value in (("weights", np.ones(3)), ("ids", (0, 1, 3))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(graph, name, value)
        assert len(hac_cluster(graph, 0.5)) == 3

    @staticmethod
    def counted_builds(monkeypatch):
        """Per merge build started: its weights' shape and the steps taken from it."""
        import mutspect.clustering as clustering

        built = []
        real = clustering._merge_trajectory

        def counted(weights):
            build = [weights.shape, 0]
            built.append(build)

            def steps():
                for step in real(weights):
                    build[1] += 1
                    yield step
            return steps()

        monkeypatch.setattr(clustering, "_merge_trajectory", counted)
        return built

    def test_one_merge_build_per_graph(self, monkeypatch):
        # the search, its cut, further cuts and the sweep's cuts all extend the
        # one build of their graph in place, never past the steps they read; a
        # second graph builds its own
        built = self.counted_builds(monkeypatch)
        rng = np.random.default_rng(3)
        graphs = [graph_from_weights(random_weight_table(n, rng)) for n in (12, 7)]
        for build, graph in zip(built, graphs):
            trace = XRound(per_class_rate=1)
            clusters = tau_search(graph, DEFAULT_REDUCTION, trace)
            assert trace.iterations > 1 and clusters is not None
            # down to the first step below the lowest midpoint, and no further
            floor = -np.minimum.accumulate(trajectory(graph.weights)[0])
            reach = int(np.searchsorted(floor, -min(trace.taus), side="right")) + 1
            assert build[1] == min(reach, graph.n_nodes - 1)
            hac_cluster(graph, 0.3)
            assert len(list(tau_cuts(graph, TAU_SWEEP_GRID))) == len(TAU_SWEEP_GRID)
            assert graph.merge_sequence[0].tobytes() == floor.tobytes()
            assert build[1] == graph.n_nodes - 1
        assert built == [[(66,), 11], [(21,), 6]]

    def test_replace_gives_a_graph_without_the_cached_sequence(self, monkeypatch):
        built = self.counted_builds(monkeypatch)
        graph = graph_from_weights(random_weight_table(6, np.random.default_rng(4)))
        singletons = hac_cluster(graph, 0.999).clusters
        copy = dataclasses.replace(graph)
        assert len(built) == 2 and built[0][1] > 0 and built[1][1] == 0
        assert hac_cluster(copy, 0.999).clusters == singletons and built[1][1] == built[0][1]
        joined = dataclasses.replace(graph, weights=np.ones(15))
        assert hac_cluster(joined, 0.999).clusters == (tuple(range(6)),) and len(built) == 3

    def test_graph_ids_must_ascend(self):
        with pytest.raises(ValidationError, match="increasing"):
            graph_from_weights(np.eye(3), ids=(2, 1, 3))
        with pytest.raises(ValidationError, match="increasing"):
            graph_from_weights(np.eye(2), ids=(4, 4))


def full_floor(weights):
    """The floor of the whole merge sequence of condensed ``weights``."""
    return -np.minimum.accumulate(trajectory(weights)[0])


def lazy_graphs():
    """Random tables, tie-heavy dyadic tables with twins at 1.0, all-zero and
    constant tables, and the smallest graphs."""
    rng = np.random.default_rng(41)
    tables = [random_weight_table(int(rng.integers(2, 40)), rng) for _ in range(12)]
    for _ in range(12):
        n = int(rng.integers(3, 40))
        w = symmetric(rng.choice(DYADIC_LEVELS, (n, n)))
        dups = rng.choice(np.arange(1, n), int(rng.integers(1, n)))
        tables.append(with_duplicates(w, [(int(rng.integers(n)), int(d)) for d in dups]))
    tables += [symmetric(np.zeros((n, n))) for n in (2, 3, 17)]
    tables += [np.full((n, n), value) for n, value in ((12, 0.5), (10, 0.9), (2, 0.3))]
    return [graph_from_weights(w) for w in tables]


# the lazy build's prefixes must be the same-length prefixes of the whole
# build bit for bit, which rests on np.minimum.accumulate over a prefix
# equalling the prefix of the accumulation over the whole sequence
@pytest.mark.oldest_supported
class TestLazyPrefixOracle:
    """Requests for taus ascending, descending and repeated take the build
    exactly to the first step below the lowest tau asked for, never further;
    every prefix is the whole sequence's, and every cut count is the one the
    whole sequence gives."""

    TAUS = np.linspace(0.02, 0.98, 25)

    def assert_requests(self, graph, taus):
        floor_all = full_floor(graph.weights)
        left_all, right_all = trajectory(graph.weights)[1:]
        lowest = np.inf
        for tau in taus:
            lowest = min(lowest, tau)
            floor, left, right = graph.merge_prefix(tau)
            reach = min(int(np.searchsorted(floor_all, -lowest, side="right")) + 1,
                        len(floor_all))
            assert len(floor) == reach, (graph.n_nodes, tau)
            assert floor.tobytes() == floor_all[:reach].tobytes()
            assert left.tolist() == left_all[:reach].tolist()
            assert right.tolist() == right_all[:reach].tolist()
            for t in self.TAUS[self.TAUS >= lowest]:
                assert (np.searchsorted(floor, -t, side="right")
                        == np.searchsorted(floor_all, -t, side="right")), (graph.n_nodes, t)
            # the working tables live exactly as long as steps are left to take
            assert (graph._build.steps.gi_frame is None) == (reach == len(floor_all))
        floor, left, right = graph.merge_sequence
        assert floor.tobytes() == floor_all.tobytes() and left.tolist() == left_all.tolist()
        assert right.tolist() == right_all.tolist()
        assert graph._build.steps.gi_frame is None

    @pytest.mark.parametrize("order", ["ascending", "descending", "repeated"])
    def test_request_orders(self, order):
        rng = np.random.default_rng(42)
        for graph in lazy_graphs():
            taus = rng.choice(self.TAUS, 6).tolist()
            if order == "ascending":
                taus.sort()
            elif order == "descending":
                taus.sort(reverse=True)
            else:
                taus = [taus[0], taus[0], *taus[1:3], taus[1], taus[0]]
            self.assert_requests(graph, taus)

    def test_taus_equal_to_step_linkages(self):
        for graph in lazy_graphs():
            linkage = trajectory(graph.weights)[0]
            taus = [float(t) for t in np.unique(linkage)[::-1] if 0 < t < 1]
            self.assert_requests(graph, [*taus, *(np.nextafter(t, 0) for t in taus)])

    def test_a_last_step_below_tau_frees_the_tables(self):
        # the one step of a two-node graph is taken and is below tau: nothing
        # is left to take, so the build's frame is closed at once
        graph = graph_from_weights(np.full((2, 2), 0.3))
        assert graph.merge_prefix(0.5)[0].tolist() == [-0.3]
        assert graph._build.steps.gi_frame is None
        assert len(hac_cluster(graph, 0.5)) == 2 and len(hac_cluster(graph, 0.3)) == 1

    def test_no_request_takes_no_step(self):
        graph = graph_from_weights(random_weight_table(9, np.random.default_rng(43)))
        assert list(tau_cuts(graph, [])) == [] and graph._build.taken == 0
        empty = SimilarityGraph((), np.empty(0))
        assert [len(part) for part in empty.merge_sequence] == [0, 0, 0]
        assert list(hac_cluster(empty, 0.5).clusters) == []

    def test_concurrent_requests_share_one_build(self):
        # threads asking for taus in different orders extend one build under
        # its lock; a lost or doubled step would break a prefix
        import sys
        import threading

        w = symmetric(np.random.default_rng(44).choice(DYADIC_LEVELS, (80, 80)))
        floor_all = full_floor(squareform(w, checks=False))
        failures = []

        def reader(seed):
            rng = np.random.default_rng(seed)
            for tau in rng.choice(self.TAUS, 12):
                try:
                    floor = graph.merge_prefix(tau)[0]
                except ValueError as exc:  # a generator entered by two threads at once
                    failures.append((seed, tau, exc))
                    return
                if floor.tobytes() != floor_all[:len(floor)].tobytes():
                    failures.append((seed, tau))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                graph = graph_from_weights(w)
                threads = [threading.Thread(target=reader, args=(10 * round_ + k,))
                           for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert graph.merge_sequence[0].tobytes() == floor_all.tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


def per_tau_cuts(graph, taus):
    """Each tau's cut on its own, from the whole sequence: its own root table,
    pointer jumping, a stable argsort and a bincount."""
    (floor, left, right), n = graph.merge_sequence, graph.n_nodes
    for p in np.searchsorted(floor, -np.asarray(taus, dtype=np.float64), side="right").tolist():
        root = np.arange(n)
        root[right[:p]] = left[:p]
        up = root[root]
        while (up != root).any():
            root, up = up, up[up]
        sizes = np.bincount(root, minlength=n)
        yield np.argsort(root, kind="stable"), sizes[sizes > 0]


# one pass over a taus x n table must give each tau's cut exactly as a pass of
# its own does, which rests on np.take_along_axis and on a stable argsort
# along axis 1 ordering every row as a 1-D stable argsort would
@pytest.mark.oldest_supported
class TestOnePassCutOracle:
    """tau_cuts' one 2-D pass gives, bit for bit and dtype for dtype, each
    tau's order and sizes from a cut of its own."""

    @staticmethod
    def assert_same_cuts(graph, taus):
        got = list(tau_cuts(graph, taus))
        want = list(per_tau_cuts(graph, taus))
        assert len(got) == len(want) == len(taus)
        for (order, sizes), (order_want, sizes_want) in zip(got, want):
            assert order.dtype == order_want.dtype and sizes.dtype == sizes_want.dtype
            assert order.tolist() == order_want.tolist()
            assert sizes.tolist() == sizes_want.tolist()

    def test_random_and_tie_heavy_graphs(self):
        rng = np.random.default_rng(45)
        for graph in lazy_graphs():
            taus = [*TAU_SWEEP_GRID, *rng.choice(TAU_SWEEP_GRID, 5), *DYADIC_LEVELS]
            rng.shuffle(taus)
            self.assert_same_cuts(graph, taus)

    def test_small_graphs_and_empty_tau_lists(self):
        for n in (0, 1, 2):
            graph = graph_from_weights(np.full((n, n), 0.5))
            self.assert_same_cuts(graph, [0.3, 0.5, 0.7, 0.5])
            self.assert_same_cuts(graph, [])
        two = graph_from_weights(np.full((2, 2), 0.5))
        assert [sizes.tolist() for _, sizes in tau_cuts(two, [0.7, 0.5])] == [[1, 1], [2]]


def test_a_build_interrupted_mid_step_starts_over(monkeypatch):
    # an exception inside a step ends the trajectory; the next request must
    # not read the dead build as complete
    import mutspect.clustering as clustering

    w = squareform(random_weight_table(12, np.random.default_rng(46)), checks=False)
    real, calls = clustering._merge_trajectory, []

    def failing(weights):
        calls.append(len(calls))
        for k, step in enumerate(real(weights)):
            if k == 4 and len(calls) == 1:
                raise KeyboardInterrupt
            yield step

    monkeypatch.setattr(clustering, "_merge_trajectory", failing)
    graph = SimilarityGraph(tuple(range(12)), w)
    with pytest.raises(KeyboardInterrupt):
        graph.merge_sequence
    assert graph.merge_sequence[0].tobytes() == full_floor(w).tobytes() and calls == [0, 1]
