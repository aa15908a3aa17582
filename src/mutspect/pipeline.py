"""End-to-end runs: vanilla, spectral acceleration, and the sweep experiment.

The accelerated run owns the walk over sampling rates: per rate it builds the
sample, signatures and similarity graph once and runs the clustering layer's
tau search on that graph, until one rate's search lands in the reduction
goal.  The signature pass walks one record per distinct model, and the
graph holds every mutant as a node.  Representative selection and
propagated testing follow.  Each phase (sampling, spectra, graph,
clustering, testing) is timed where it runs, so the phases are disjoint
and sum to no more than the run's wall clock.
Nothing is cached across rates.  The no-transform variant ("raw" mode) is
the same call with ``transform=TRANSFORM_RAW``: raw sampled output columns
as features.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import partial
from numbers import Real

import numpy as np

from .clustering import (
    DEFAULT_REDUCTION,
    X_GRID,
    ClusterSet,
    ReductionConstraint,
    RepresentativeMap,
    SimilarityGraph,
    XRound,
    check_tau,
    draw_picks,
    hac_cluster,
    mutant_reduction_rate,
    select_representatives,
    tau_cuts,
    tau_search,
)
from .dataset import LabeledDataset
from .errors import ParameterError, ValidationError
from .metrics import score_error, spearman_rho
from .model import FcnnClassifier
from .mutants import MutantRecord, MutantSet
from .spectra import (
    TRANSFORM_DFT,
    SampleSet,
    build_similarity_graph,
    mutant_spectra,
    stratified_sample,
)
from .testing import (
    VerdictTable,
    accelerated_test,
    check_labels,
    mutation_score,
    vanilla_test,
)
from .util import check_seed, derived_seed, is_integer, phase_timer


@dataclass(frozen=True)
class Seeds:
    sampling: int = 0
    representative: int = 0

    def __post_init__(self):
        check_seed(self.sampling)
        check_seed(self.representative)


def _distinct_models(mutants: MutantSet) -> tuple[MutantSet, dict[int, tuple[int, ...]]]:
    """The lowest-id record of each distinct model, and the ids of each one's mutants by
    that lowest id, empty when no two mutants share a model.  Models are equal when
    their ``digests`` are, the vanilla tester's key, so a -0.0 parameter makes a
    model of its own."""
    groups: dict[tuple[bytes, ...], list[MutantRecord]] = {}
    for record in sorted(mutants.mutants, key=lambda m: m.mutant_id):
        groups.setdefault(record.model.digests, []).append(record)
    if len(groups) == len(mutants):
        return mutants, {}
    members = {g[0].mutant_id: tuple(r.mutant_id for r in g) for g in groups.values()}
    return mutants.part([g[0] for g in groups.values()]), members


def _graph_at(distinct: MutantSet, members: dict[int, tuple[int, ...]], dataset: LabeledDataset,
              transform: str, sampling_seed: int, phases: dict,
              per_class: int) -> tuple[SampleSet, SimilarityGraph]:
    """Sample, signatures and graph at one rate, timed into ``phases``: one signature row
    per record of ``distinct``, holding its ``members`` (``_distinct_models``' pair)."""
    with phase_timer(phases, "sampling"):
        sample = stratified_sample(dataset, per_class, sampling_seed)
    with phase_timer(phases, "spectra"):
        spectra = mutant_spectra(distinct, dataset, sample, transform)
        if members:
            spectra = replace(spectra, members=tuple([members[m] for m in spectra.ids]))
    with phase_timer(phases, "graph"):
        graph = build_similarity_graph(spectra)
    return sample, graph


def parameter_search(
    build, constraint: ReductionConstraint, x_grid, phases: dict
) -> tuple[list[XRound], SampleSet | None, ClusterSet | None]:
    """Linear search over sampling rates, one tau search per rate's graph.

    ``build(x)`` returns ``(SampleSet, SimilarityGraph)`` for sampling rate
    ``x``.  Each rate gets one round and each round's whole tau search is
    timed into ``phases["clustering"]``.  Returns the rounds with the first
    satisfying round's sample and clusters, or ``None`` for both when every
    round gives up.
    """
    rounds: list[XRound] = []
    for x in x_grid:
        sample, graph = build(x)
        rounds.append(XRound(per_class_rate=x))
        with phase_timer(phases, "clustering"):
            clusters = tau_search(graph, constraint, rounds[-1])
        del graph  # with any partial merge build, before the next rate's signatures
        if clusters is not None:
            return rounds, sample, clusters
    return rounds, None, None


def _quarantined(mutants: MutantSet, held) -> tuple[int, ...]:
    """Mutant ids, in id order, outside ``held``: exactly the quarantined ones a graph lacks."""
    held = set(held)
    return tuple(m for m in sorted(mutants.ids()) if m not in held)


@dataclass
class PipelineResult:
    """One run's verdicts; an accelerated run adds its sample, clusters and search.

    ``table`` is ``None`` exactly when the reduction goal was not
    satisfiable; the chosen x and tau are ``sample.per_class_rate`` and
    ``clusters.tau``.
    """

    mode: str
    table: VerdictTable | None
    clusters: ClusterSet | None = None
    representatives: RepresentativeMap | None = None
    sample: SampleSet | None = None
    quarantined: tuple[int, ...] = ()
    search_rounds: list[XRound] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.table is not None

    @property
    def score(self) -> float:
        return mutation_score(self.table)


def run_vanilla(
    original: FcnnClassifier, mutants: MutantSet, dataset: LabeledDataset
) -> PipelineResult:
    table = vanilla_test(original, mutants, dataset)
    return PipelineResult(mode="vanilla", table=table)


def run_accelerated(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    constraint: ReductionConstraint = DEFAULT_REDUCTION,
    seeds: Seeds = Seeds(),
    transform: str = TRANSFORM_DFT,
    fixed_per_class: int | None = None,
    fixed_tau: float | None = None,
) -> PipelineResult:
    """Spectral-clustering acceleration of mutation testing.

    With ``fixed_tau`` the parameter search is skipped entirely (requires
    ``fixed_per_class``); with only ``fixed_per_class`` the x-search loop is
    disabled but tau is still searched.  A search that exhausts the grid
    yields a result with no table (``found`` is false); no testing runs.
    The phase times (sampling, spectra, graph, clustering) are folded into
    the table's timing beside the tester's, so its total covers the run.
    """
    check_labels(original, dataset)
    mode = "spectral" if transform == TRANSFORM_DFT else "raw"
    phases: dict[str, float] = {}
    with phase_timer(phases, "spectra"):
        distinct, members = _distinct_models(mutants)
    build = partial(_graph_at, distinct, members, dataset, transform, seeds.sampling, phases)
    search_rounds: list[XRound] = []
    if fixed_tau is not None:
        if fixed_per_class is None:
            raise ParameterError("a fixed tau requires a fixed sampling rate")
        check_tau(fixed_tau)
        sample, graph = build(fixed_per_class)
        with phase_timer(phases, "clustering"):
            clusters = hac_cluster(graph, fixed_tau)
        del graph  # with its partial merge build, before testing
    else:
        grid = X_GRID if fixed_per_class is None else (fixed_per_class,)
        search_rounds, sample, clusters = parameter_search(build, constraint, grid, phases)
        if clusters is None:
            return PipelineResult(mode=mode, table=None, search_rounds=search_rounds)
    representatives = select_representatives(clusters, seeds.representative)
    quarantined = _quarantined(mutants, (m for cluster in clusters.clusters for m in cluster))
    table = accelerated_test(original, mutants, dataset, representatives, quarantined, mode)
    table.timing.phases.update(phases)
    return PipelineResult(
        mode=mode,
        table=table,
        clusters=clusters,
        representatives=representatives,
        sample=sample,
        quarantined=quarantined,
        search_rounds=search_rounds,
    )


# ---------------------------------------------------------------------------
# Sweep: reduction rate, score error and timing over a (x, tau, repeat) grid.
# ---------------------------------------------------------------------------

TAU_SWEEP_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))  # 0.05 .. 0.95


@dataclass(frozen=True)
class SweepSpec:
    x_grid: tuple[int, ...] = X_GRID
    tau_grid: tuple[float, ...] = TAU_SWEEP_GRID
    repeats: int = 5

    def __post_init__(self):
        if not all(map(is_integer, (*self.x_grid, self.repeats))):
            raise ParameterError("x grid values and repeats must be integers")
        if not self.x_grid or not self.tau_grid or self.repeats < 1:
            raise ParameterError("sweep grids must be nonempty and repeats >= 1")
        if any(x < 1 for x in self.x_grid):
            raise ParameterError("x grid values must be at least 1")
        if any(not (isinstance(t, Real) and 0 < t < 1) for t in self.tau_grid):
            raise ParameterError("tau grid values must be numbers in (0, 1)")
        if any(len(set(grid)) < len(grid) for grid in (self.x_grid, self.tau_grid)):
            raise ParameterError("sweep grid values must not repeat")


@dataclass(frozen=True)
class SweepCell:
    per_class_rate: int
    tau: float
    repeat: int
    reduction_rate: float
    n_clusters: int
    score_error: float | None
    seconds: float


@dataclass
class SweepResult:
    cells: list[SweepCell]
    rho_per_repeat: dict[tuple[int, int], float | None]  # (x, repeat) -> rho
    rho_pooled: dict[int, float | None]  # x -> rho over all repeats
    vanilla_score: float


def run_sweep(
    original: FcnnClassifier,
    mutants: MutantSet,
    dataset: LabeledDataset,
    spec: SweepSpec = SweepSpec(),
    seeds: Seeds = Seeds(),
    vanilla: VerdictTable | None = None,
) -> SweepResult:
    """Reduction-rate / score-error measurements over the full grid.

    A representative tested on the full dataset reproduces its vanilla
    verdict bit for bit, so each cell's accelerated score is assembled from
    the cached vanilla verdicts.  Per graph, ``tau_cuts`` builds the merge
    sequence down to the lowest tau and gives each cell's sizes; the killed
    count is the representatives' vanilla counts dotted with the sizes, the
    representatives ``select_representatives``' draw (``draw_picks``).  A cut
    whose steps each join mutants of one vanilla count holds one count per
    cluster, so any pick gives the same score and no draw is made.  Per-cell
    seconds cover that (the first, the merge build and the cuts too).  Each
    rate's graph is dropped before the next rate's signature pass.  A given
    ``vanilla`` table must hold a tested count for every mutant and for no
    other, over the dataset's label set.  Reduction rate against tau is
    rank-correlated per (x, repeat), pooled per x; with one repeat the pooled
    cells are that repeat's, and so is rho.
    """
    check_labels(original, dataset)
    vanilla = vanilla or vanilla_test(original, mutants, dataset)
    counts = vanilla.counts()
    if set(counts) != set(mutants.ids()):
        raise ValidationError("the vanilla table must hold a tested verdict for each mutant")
    if vanilla.labels != tuple(dataset.labels_present().tolist()):
        raise ValidationError("the vanilla table must be over the dataset's label set")
    ms_vanilla = mutation_score(vanilla)
    n_total = len(mutants)
    cells: list[SweepCell] = []
    distinct, members = _distinct_models(mutants)

    for repeat in range(spec.repeats):
        sampling_seed = derived_seed(seeds.sampling, repeat)
        for x in spec.x_grid:
            _, graph = _graph_at(distinct, members, dataset, TRANSFORM_DFT, sampling_seed, {}, x)
            q_total = sum(counts[m] for m in _quarantined(mutants, graph.ids))
            held, n = np.array([counts[m] for m in graph.ids]), graph.n_nodes
            any_pick = q_total + int(held.sum())
            start = time.perf_counter()
            _, left, right = graph.merge_prefix(min(spec.tau_grid))
            # cuts of at most this many steps hold one vanilla count per cluster
            one_count = np.flatnonzero(np.append(held[left] != held[right], True))[0]
            cuts = zip(spec.tau_grid, tau_cuts(graph, spec.tau_grid))
            for k, (tau, (order, sizes)) in enumerate(cuts):
                if n - len(sizes) <= one_count:
                    killed = any_pick
                else:
                    picks = draw_picks(sizes, derived_seed(seeds.representative, repeat, x, k))
                    killed = q_total + int(held[order[np.cumsum(sizes) - sizes + picks]] @ sizes)
                err = score_error(ms_vanilla, killed / (n_total * len(vanilla.labels)))
                rate, now = mutant_reduction_rate(n, len(sizes)), time.perf_counter()
                cells.append(SweepCell(x, tau, repeat, rate, len(sizes), err, now - start))
                start = now
            del graph, cuts

    per_repeat: dict[tuple[int, int], list[SweepCell]] = {}
    pooled: dict[int, list[SweepCell]] = {}
    for cell in cells:
        per_repeat.setdefault((cell.per_class_rate, cell.repeat), []).append(cell)
        pooled.setdefault(cell.per_class_rate, []).append(cell)
    rho_per_repeat = {key: _rho(group) for key, group in per_repeat.items()}
    rho_pooled = {x: rho_per_repeat[x, 0] if spec.repeats == 1 else _rho(group)
                  for x, group in pooled.items()}
    return SweepResult(cells, rho_per_repeat, rho_pooled, ms_vanilla)


def _rho(cells: list[SweepCell]) -> float | None:
    """Spearman rho of reduction rate against tau; None for a single cell."""
    if len(cells) < 2:
        return None
    return spearman_rho([c.tau for c in cells], [c.reduction_rate for c in cells])
