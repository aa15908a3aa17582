import pytest

from mutspect.clustering import ReductionConstraint
from mutspect.errors import ParameterError
from mutspect.metrics import measures
from mutspect.mutants import MutantSet, gaussian_fuzz
from mutspect.pipeline import Seeds, SweepSpec, run_accelerated, run_sweep, run_vanilla
from mutspect.synth import diverse_mutant_set, fitted_classifier, gaussian_blobs
from mutspect.testing import vanilla_test


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
    res = run_accelerated(model, mutants, ds, seeds=Seeds(1, 2))
    assert res.found
    usable = len(mutants) - len(res.quarantined)
    rate = (usable - len(res.clusters)) / usable
    assert 0.26 <= rate <= 0.56
    # timing phases itemised
    for phase in ("sampling", "spectra", "graph", "search", "testing"):
        assert phase in res.table.timing.phases


def test_sample_shared_across_mutants(world):
    from mutspect.spectra import stratified_sample

    ds, model, mutants = world
    res = run_accelerated(model, mutants, ds, seeds=Seeds(1, 2))
    # one canonical sample per run: re-deriving it from the seed gives the
    # same hash every mutant's spectra were computed against
    fresh = stratified_sample(ds, res.per_class_rate, 1)
    assert res.sample.content_hash() == fresh.content_hash()


def test_fixed_tau_requires_fixed_x(world):
    ds, model, mutants = world
    with pytest.raises(ParameterError):
        run_accelerated(model, mutants, ds, fixed_tau=0.5)


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
    assert res.message == "Mutant reduction goal not satisfiable"
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


def test_sweep_cell_scores_match_direct_propagation(world):
    ds, model, mutants = world
    vanilla = vanilla_test(model, mutants, ds)
    spec = SweepSpec(x_grid=(2,), tau_grid=(0.4,), repeats=1)
    sweep = run_sweep(model, mutants, ds, spec, Seeds(9, 10), vanilla=vanilla)
    cell = sweep.cells[0]
    if cell.score_error is not None:
        assert 0.0 <= cell.score_error
    assert cell.n_clusters >= 1


def test_spectra_family_keeps_graphs_not_spectra(world):
    from mutspect.pipeline import SpectraFamily
    from mutspect.spectra import SimilarityGraph, SpectraSet, mutant_spectra

    ds, _, mutants = world
    family = SpectraFamily(mutants, ds, sampling_seed=4)
    sample, failed, graph = family.entry(3)
    assert not any(isinstance(part, SpectraSet) for part in family.entry(3))
    assert isinstance(graph, SimilarityGraph)
    assert failed == family.quarantined(3) == mutant_spectra(mutants, ds, sample).failed
    assert family.build(3) == (sample, graph)
