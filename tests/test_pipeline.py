import time
import weakref

import numpy as np
import pytest

from mutspect.baselines import rms_test
from mutspect.clustering import (
    X_GRID,
    ReductionConstraint,
    hac_cluster,
    mutant_reduction_rate,
    select_representatives,
)
from mutspect.errors import ParameterError, ValidationError
from mutspect.metrics import measures, score_error, spearman_rho
from mutspect.model import count_forward_passes
from mutspect.mutants import MutantSet, gaussian_fuzz, neuron_effect_block
from mutspect.pipeline import Seeds, SweepSpec, run_accelerated, run_sweep, run_vanilla
from mutspect.reports import run_report_payload
from mutspect.spectra import (
    TRANSFORM_DFT,
    build_similarity_graph,
    mutant_spectra,
    stratified_sample,
)
from mutspect.synth import diverse_mutant_set, fitted_classifier, gaussian_blobs
from mutspect.testing import TESTED, mutation_score, vanilla_test
from mutspect.util import derived_seed

from conftest import exploding_mutant


@pytest.fixture(scope="module")
def world():
    ds = gaussian_blobs(120, 4, 8, seed=3, spread=0.3)
    model = fitted_classifier(ds, hidden=(12,), seed=6, margin=5.0, bias_shift=2.5)
    mutants = diverse_mutant_set(model, 40, seed=29)
    return ds, model, mutants


def test_vanilla_result(world):
    ds, model, mutants = world
    res = run_vanilla(model, mutants, ds)
    assert res.found and res.mode == "vanilla"
    assert res.table.timing.tested_count == 40


def test_accelerated_run_satisfies_constraint(world):
    ds, model, mutants = world
    start = time.perf_counter()
    res = run_accelerated(model, mutants, ds, seeds=Seeds(1, 2))
    wall = time.perf_counter() - start
    assert res.found
    usable = len(mutants) - len(res.quarantined)
    rate = (usable - len(res.clusters)) / usable
    assert 0.26 <= rate <= 0.56
    # timing phases itemised, each measured directly: disjoint, no residual
    phases = res.table.timing.phases
    assert set(phases) == {"sampling", "spectra", "graph", "clustering", "testing"}
    assert sum(phases.values()) <= wall


def test_sample_shared_across_mutants(world):
    from mutspect.spectra import stratified_sample

    ds, model, mutants = world
    res = run_accelerated(model, mutants, ds, seeds=Seeds(1, 2))
    # one canonical sample per run: re-deriving it from the seed gives the
    # same hash every mutant's spectra were computed against
    fresh = stratified_sample(ds, res.sample.per_class_rate, 1)
    assert res.sample.content_hash() == fresh.content_hash()


def test_fixed_tau_requires_fixed_x(world):
    ds, model, mutants = world
    with pytest.raises(ParameterError):
        run_accelerated(model, mutants, ds, fixed_tau=0.5)


@pytest.mark.parametrize("call", [
    lambda ds, model, mutants: stratified_sample(ds, 2.5, 0),
    lambda ds, model, mutants: run_accelerated(model, mutants, ds, fixed_per_class=2.5),
    lambda ds, model, mutants: run_accelerated(model, mutants, ds, fixed_per_class=2.5,
                                               fixed_tau=0.5),
    lambda ds, model, mutants: SweepSpec(x_grid=(1.5,)),
    lambda ds, model, mutants: SweepSpec(repeats=1.5),
    lambda ds, model, mutants: stratified_sample(ds, True, 0),
    lambda ds, model, mutants: run_accelerated(model, mutants, ds, fixed_per_class=True),
], ids=["sample", "searched", "fixed-tau", "sweep-x", "sweep-repeats", "sample-bool",
        "searched-bool"])
def test_non_integer_rate_is_a_parameter_error(world, call):
    with pytest.raises(ParameterError, match="integer"):
        call(*world)


@pytest.mark.parametrize("kwargs", [
    {"tau_grid": ("0.5",)}, {"tau_grid": (None,)}, {"tau_grid": (0.5, "0.7")},
    {"x_grid": (True,)}, {"x_grid": (1, False)}, {"repeats": True},
], ids=["tau-str", "tau-none", "tau-mixed", "x-true", "x-false", "repeats-true"])
def test_sweep_spec_rejects_non_numbers_and_booleans(kwargs):
    with pytest.raises(ParameterError):
        SweepSpec(**kwargs)


def test_numpy_integer_rates_are_accepted(world):
    ds, _, _ = world
    sample = stratified_sample(ds, np.int64(2), 0)
    assert sample.content_hash() == stratified_sample(ds, 2, 0).content_hash()
    spec = SweepSpec(x_grid=(np.int32(1), np.int64(3)), repeats=np.int64(2))
    assert spec.x_grid == (1, 3) and spec.repeats == 2


@pytest.mark.parametrize("table", ["rms", "other-set"])
def test_sweep_rejects_a_vanilla_table_missing_a_mutant(world, table):
    ds, model, mutants = world
    if table == "rms":  # untested mutants carry no count
        vanilla = rms_test(model, mutants, ds, 0.5, seed=0)
    else:
        vanilla = vanilla_test(model, MutantSet(model, mutants.mutants[:10], 0), ds)
    with pytest.raises(ValidationError, match="vanilla table"):
        run_sweep(model, mutants, ds, SweepSpec((1,), (0.5,), 1), vanilla=vanilla)


def test_fixed_tau_near_one_reproduces_vanilla(world):
    from mutspect.mutants import MutatorKind, generate_mutant_set

    ds, model, mutants = world
    # gaussian-fuzz-only pool: every mutant perturbs visibly, so all
    # pairwise similarities sit below the singleton-forcing threshold
    distinct = generate_mutant_set(
        model, 30, (MutatorKind.GAUSSIAN_FUZZING,), seed=41
    )
    vanilla = vanilla_test(model, distinct, ds)
    res = run_accelerated(
        model, distinct, ds, seeds=Seeds(1, 2), fixed_per_class=2, fixed_tau=0.99999
    )
    rep = measures(res.table, vanilla)
    assert rep.score_error == 0.0
    assert rep.mutant_reduction == 0.0


def test_not_satisfiable_is_a_value(world):
    ds, model, mutants = world
    # the reduction rate can never exceed (N - 1) / N = 0.975 for 40 mutants
    res = run_accelerated(
        model, mutants, ds, constraint=ReductionConstraint(0.99, 0.999), seeds=Seeds(1, 2)
    )
    assert not res.found
    assert res.table is None
    report = run_report_payload(res, {}, {})
    assert report["message"] == "Mutant reduction goal not satisfiable"
    assert len(res.search_rounds) == 11


def test_sweep_shapes_and_rho(world):
    ds, model, mutants = world
    spec = SweepSpec(x_grid=(1, 3), tau_grid=(0.2, 0.5, 0.8), repeats=2)
    sweep = run_sweep(model, mutants, ds, spec, Seeds(5, 6))
    assert len(sweep.cells) == 2 * 3 * 2
    assert set(sweep.rho_per_repeat) == {(1, 0), (1, 1), (3, 0), (3, 1)}
    assert set(sweep.rho_pooled) == {1, 3}
    for cell in sweep.cells:
        assert 0.0 <= cell.reduction_rate <= 1.0


def test_sweep_identical_mutants_constant_rate(world):
    ds, model, _ = world
    recs = [gaussian_fuzz(model, 0, 0, 0.0, seed=s, mutant_id=i) for i, s in enumerate(range(8))]
    identical = MutantSet(model, recs, 0)
    spec = SweepSpec(x_grid=(1,), tau_grid=(0.1, 0.5, 0.9), repeats=2)
    sweep = run_sweep(model, identical, ds, spec, Seeds(0, 0))
    for rho in sweep.rho_per_repeat.values():
        assert rho is None  # constant reduction rate -> undefined correlation
    for cell in sweep.cells:
        assert cell.reduction_rate == pytest.approx(7 / 8)
        assert cell.score_error in (0.0, None)


@pytest.fixture(scope="module")
def exploding_world(world):
    """The world's pool plus two mutants whose outputs are non-finite on
    every point (ids 40 and 41, listed out of id order)."""
    ds, model, mutants = world
    records = [exploding_mutant(model, 41, 1e250), *mutants.mutants, exploding_mutant(model, 40)]
    pool = MutantSet(model, records, 0)
    return ds, model, pool, vanilla_test(model, pool, ds)


@pytest.mark.parametrize("fixed", [False, True], ids=["searched", "fixed-tau"])
@pytest.mark.parametrize("seed", [0, 1])
def test_quarantine_equals_failed_spectra(exploding_world, fixed, seed):
    ds, model, pool, vanilla = exploding_world
    fixed_args = {"fixed_per_class": 3, "fixed_tau": 0.5} if fixed else {}
    res = run_accelerated(model, pool, ds, seeds=Seeds(seed, seed + 7), **fixed_args)
    assert res.found
    spectra = mutant_spectra(pool, ds, stratified_sample(ds, res.sample.per_class_rate, seed))
    assert spectra.failed == (40, 41)
    assert res.quarantined == spectra.failed
    clustered = sorted(m for cluster in res.clusters.clusters for m in cluster)
    assert clustered == list(spectra.ids)
    for m in res.quarantined:
        verdict = res.table.verdict(m)
        assert verdict.provenance == TESTED
        assert verdict.killing_count == vanilla.verdict(m).killing_count


@pytest.fixture(scope="module")
def twin_world(exploding_world):
    """The exploding pool plus byte-equal twins: a repeated NEB target, a fuzz
    repeated from one seed, two no-ops and a twin of exploding mutant 40."""
    ds, model, pool, _ = exploding_world
    twins = [
        neuron_effect_block(model, 0, 3, mutant_id=42),
        gaussian_fuzz(model, 0, 5, 0.5, seed=11, mutant_id=43),
        gaussian_fuzz(model, 0, 0, 0.0, seed=1, mutant_id=44),
        neuron_effect_block(model, 0, 3, mutant_id=45),
        exploding_mutant(model, 46),
        gaussian_fuzz(model, 0, 0, 0.0, seed=2, mutant_id=47),
        gaussian_fuzz(model, 0, 5, 0.5, seed=11, mutant_id=48),
    ]
    twin_pool = MutantSet(model, [*pool.mutants, *twins], 0)
    return ds, model, twin_pool, vanilla_test(model, twin_pool, ds)


@pytest.mark.parametrize("pool_world,failed", [("exploding_world", (40, 41)),
                                               ("twin_world", (40, 41, 46))],
                         ids=["exploding", "twins"])
def test_sweep_cell_scores_match_direct_propagation(pool_world, failed, request):
    # each cell recomputed test-side from a graph with a row per mutant: its
    # sample, graph and clusters, the representatives drawn from the cell's
    # seed, each member scored with its representative's vanilla count and
    # each quarantined mutant with its own
    ds, model, pool, vanilla = request.getfixturevalue(pool_world)
    spec = SweepSpec(x_grid=(1, 3), tau_grid=(0.3, 0.6, 0.9), repeats=2)
    seeds = Seeds(9, 10)
    sweep = run_sweep(model, pool, ds, spec, seeds, vanilla=vanilla)
    counts = vanilla.counts()
    ms_vanilla = mutation_score(vanilla)
    cells = iter(sweep.cells)
    for repeat in range(spec.repeats):
        for x in spec.x_grid:
            sample = stratified_sample(ds, x, derived_seed(seeds.sampling, repeat))
            spectra = mutant_spectra(pool, ds, sample)
            assert spectra.failed == failed
            graph = build_similarity_graph(spectra)
            for k, tau in enumerate(spec.tau_grid):
                clusters = hac_cluster(graph, tau)
                reps = select_representatives(
                    clusters, derived_seed(seeds.representative, repeat, x, k)
                )
                killed = sum(counts[m] for m in spectra.failed)
                killed += sum(counts[rep] for rep, members in reps.pairs for _ in members)
                ms_cell = killed / (len(pool) * len(vanilla.labels))
                cell = next(cells)
                assert (cell.per_class_rate, cell.tau, cell.repeat) == (x, tau, repeat)
                assert cell.n_clusters == len(clusters)
                assert cell.score_error == abs(ms_vanilla - ms_cell) / ms_vanilla
    assert next(cells, None) is None


@pytest.fixture(scope="module")
def one_count_world(world):
    """The world's mutants that kill no label: every cell holds one vanilla count."""
    ds, model, mutants = world
    vanilla = vanilla_test(model, mutants, ds)
    pool = mutants.subset([m for m, count in vanilla.counts().items() if count == 0])
    return ds, model, pool, vanilla_test(model, pool, ds)


def sweep_with_every_draw(model, pool, ds, spec, seeds, vanilla):
    """Each cell's (x, tau, repeat, rate, clusters, error) from a graph with a row
    per mutant and a representative drawn in every cell, and whether any of the
    cell's clusters holds two vanilla counts, so that a pick could change it."""
    counts, ms_vanilla = vanilla.counts(), mutation_score(vanilla)
    cells = []
    for repeat in range(spec.repeats):
        for x in spec.x_grid:
            sample = stratified_sample(ds, x, derived_seed(seeds.sampling, repeat))
            spectra = mutant_spectra(pool, ds, sample)
            graph = build_similarity_graph(spectra)
            for k, tau in enumerate(spec.tau_grid):
                clusters = hac_cluster(graph, tau)
                reps = select_representatives(
                    clusters, derived_seed(seeds.representative, repeat, x, k))
                killed = sum(counts[m] for m in spectra.failed)
                killed += sum(counts[rep] * len(members) for rep, members in reps.pairs)
                err = score_error(ms_vanilla, killed / (len(pool) * len(vanilla.labels)))
                rate = mutant_reduction_rate(graph.n_nodes, len(clusters))
                mixed = any(len({counts[m] for m in c}) > 1 for c in clusters.clusters)
                cells.append(((x, tau, repeat, rate, len(clusters), err), mixed))
    return cells


@pytest.mark.parametrize("pool_world", ["exploding_world", "twin_world", "one_count_world"])
@pytest.mark.parametrize("repeats", [1, 2])
def test_sweep_draws_only_where_a_pick_can_change_the_score(pool_world, repeats, request,
                                                            monkeypatch):
    # cells, rho and draws against a sweep that draws in every cell: a cell
    # whose clusters each hold one vanilla count makes no draw
    import mutspect.pipeline as pipeline

    ds, model, pool, vanilla = request.getfixturevalue(pool_world)
    spec = SweepSpec(x_grid=(1, 3), tau_grid=(0.05, 0.3, 0.6, 0.9, 0.99), repeats=repeats)
    seeds = Seeds(9, 10)
    draws = []
    real = pipeline.draw_picks

    def counted(sizes, seed):
        draws.append(seed)
        return real(sizes, seed)

    monkeypatch.setattr(pipeline, "draw_picks", counted)
    sweep = run_sweep(model, pool, ds, spec, seeds, vanilla=vanilla)
    want = sweep_with_every_draw(model, pool, ds, spec, seeds, vanilla)
    got = [(c.per_class_rate, c.tau, c.repeat, c.reduction_rate, c.n_clusters, c.score_error)
           for c in sweep.cells]
    assert got == [cell for cell, _ in want]
    assert len(draws) == sum(mixed for _, mixed in want)
    assert 0 < len(draws) < len(want) or pool_world == "one_count_world" and not draws
    groups = {}
    for (x, tau, repeat, rate, *_), _ in want:
        groups.setdefault((x, repeat), []).append((tau, rate))
    assert sweep.rho_per_repeat == {key: spearman_rho(*zip(*g)) for key, g in groups.items()}
    assert sweep.rho_pooled == {
        x: spearman_rho(*zip(*[p for (gx, _), g in groups.items() if gx == x for p in g]))
        for x in spec.x_grid}


def test_each_graph_is_dropped_before_the_next_signature_pass(exploding_world, monkeypatch):
    # no rate's graph, nor its partial merge build, outlives its rate: in the
    # sweep, and in a search that walks the whole grid
    import mutspect.pipeline as pipeline

    ds, model, pool, vanilla = exploding_world
    graphs, alive = [], []
    real_graph, real_spectra = pipeline.build_similarity_graph, pipeline.mutant_spectra

    def built(spectra):
        graph = real_graph(spectra)
        graphs.append(weakref.ref(graph))
        return graph

    def spectra_of(mutants, dataset, sample, transform):
        alive.append(sum(ref() is not None for ref in graphs))
        return real_spectra(mutants, dataset, sample, transform)

    monkeypatch.setattr(pipeline, "build_similarity_graph", built)
    monkeypatch.setattr(pipeline, "mutant_spectra", spectra_of)
    spec = SweepSpec(x_grid=(1, 3, 5), tau_grid=(0.05, 0.5), repeats=2)
    run_sweep(model, pool, ds, spec, Seeds(5, 6), vanilla=vanilla)
    assert alive == [0] * 6 and len(graphs) == 6
    graphs.clear()
    alive.clear()
    res = run_accelerated(model, pool, ds, constraint=ReductionConstraint(0.99, 0.999))
    assert not res.found and alive == [0] * len(X_GRID) == [0] * len(graphs)


def test_one_graph_per_round_and_per_sweep_rate(exploding_world, monkeypatch):
    import mutspect.pipeline as pipeline

    ds, model, pool, vanilla = exploding_world
    calls = []
    real = pipeline.build_similarity_graph

    def counted(spectra):
        calls.append(spectra.sample.per_class_rate)
        return real(spectra)

    monkeypatch.setattr(pipeline, "build_similarity_graph", counted)
    res = run_accelerated(model, pool, ds, seeds=Seeds(1, 2))
    assert calls == [r.per_class_rate for r in res.search_rounds]
    calls.clear()
    # unsatisfiable: every rate of the grid gets its round and its one graph
    res = run_accelerated(model, pool, ds, constraint=ReductionConstraint(0.99, 0.999))
    assert not res.found and calls == list(X_GRID)
    calls.clear()
    run_accelerated(model, pool, ds, seeds=Seeds(1, 2), fixed_per_class=3, fixed_tau=0.5)
    assert calls == [3]
    calls.clear()
    spec = SweepSpec(x_grid=(1, 3, 5), tau_grid=(0.3, 0.6), repeats=2)
    run_sweep(model, pool, ds, spec, Seeds(5, 6), vanilla=vanilla)
    assert calls == list(spec.x_grid) * spec.repeats


def test_signature_pass_runs_each_distinct_model_once(twin_world, monkeypatch):
    # distinct(M) * |S| forward passes per round, where every mutant's own
    # walk would take |M| * |S|; the clusters are those of the graph with a
    # row per mutant, and a twin of a quarantined model is quarantined with it
    import mutspect.pipeline as pipeline

    ds, model, pool, _ = twin_world
    passes = []
    real = pipeline.mutant_spectra

    def counted(mutants, dataset, sample, transform):
        with count_forward_passes() as counter:
            spectra = real(mutants, dataset, sample, transform)
        passes.append((counter.count, len(sample)))
        return spectra

    monkeypatch.setattr(pipeline, "mutant_spectra", counted)
    res = run_accelerated(model, pool, ds, seeds=Seeds(1, 2))
    distinct = len({m.model.digests for m in pool.mutants})
    assert distinct == len(pool) - 4  # 45 and 46-48 are twins of lower ids
    assert passes and all(count == distinct * size for count, size in passes)
    assert res.quarantined == (40, 41, 46)
    sample = stratified_sample(ds, res.sample.per_class_rate, 1)
    graph = build_similarity_graph(real(pool, ds, sample, TRANSFORM_DFT))
    assert res.clusters == hac_cluster(graph, res.clusters.tau)
