"""End-to-end runs: vanilla, spectral acceleration, and the sweep experiment.

The accelerated run wires together sampling, signature computation, graph
construction, clustering with the x/tau parameter search, representative
selection and propagated testing, accumulating per-phase wall-clock times
along the way.  The no-transform variant reuses the identical pipeline with
raw sampled output columns as features.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .clustering import (
    DEFAULT_REDUCTION,
    X_GRID,
    ClusterSet,
    ReductionConstraint,
    RepresentativeMap,
    SearchResult,
    XRound,
    hac_cluster,
    mutant_reduction_rate,
    parameter_search,
    select_representatives,
)
from .dataset import LabeledDataset
from .errors import ParameterError
from .metrics import spearman_rho
from .model import FcnnClassifier
from .mutants import MutantSet
from .spectra import (
    TRANSFORM_DFT,
    SampleSet,
    SimilarityGraph,
    build_similarity_graph,
    mutant_spectra,
    stratified_sample,
)
from .testing import (
    VerdictTable,
    accelerated_test,
    mutation_score,
    vanilla_test,
)
from .util import derived_seed, phase_timer


@dataclass(frozen=True)
class Seeds:
    sampling: int = 0
    representative: int = 0


class SpectraFamily:
    """Per-sampling-rate caches of (sample, spectra, graph) with phase timing."""

    def __init__(
        self,
        mutants: MutantSet,
        dataset: LabeledDataset,
        transform: str = TRANSFORM_DFT,
        sampling_seed: int = 0,
    ):
        self.mutants = mutants
        self.dataset = dataset
        self.transform = transform
        self.sampling_seed = sampling_seed
        self.phases: dict[str, float] = {}
        self._cache: dict[int, tuple] = {}

    def entry(self, per_class: int):
        if per_class not in self._cache:
            with phase_timer(self.phases, "sampling"):
                sample = stratified_sample(self.dataset, per_class, self.sampling_seed)
            with phase_timer(self.phases, "spectra"):
                spectra = mutant_spectra(self.mutants, self.dataset, sample, self.transform)
            with phase_timer(self.phases, "graph"):
                graph = build_similarity_graph(self.mutants, spectra)
            self._cache[per_class] = (sample, spectra, graph)
        return self._cache[per_class]

    def build(self, per_class: int) -> tuple[SampleSet, SimilarityGraph]:
        sample, _, graph = self.entry(per_class)
        return sample, graph

    def quarantined(self, per_class: int) -> tuple[int, ...]:
        return self.entry(per_class)[1].failed


@dataclass
class PipelineResult:
    mode: str
    found: bool
    table: VerdictTable | None
    clusters: ClusterSet | None = None
    representatives: RepresentativeMap | None = None
    sample: SampleSet | None = None
    per_class_rate: int | None = None
    tau: float | None = None
    quarantined: tuple[int, ...] = ()
    search_rounds: list[XRound] = field(default_factory=list)
    message: str = ""

    @property
    def score(self) -> float:
        return mutation_score(self.table)


def run_vanilla(
    original: FcnnClassifier, mutants: MutantSet, dataset: LabeledDataset
) -> PipelineResult:
    table = vanilla_test(original, mutants, dataset)
    return PipelineResult(mode="vanilla", found=True, table=table)


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
    yields ``found=False`` with the not-satisfiable message; no testing runs.
    """
    mode = "spectral" if transform == TRANSFORM_DFT else "raw"
    family = SpectraFamily(mutants, dataset, transform, seeds.sampling)
    search_rounds: list[XRound] = []
    if fixed_tau is not None:
        if fixed_per_class is None:
            raise ParameterError("a fixed tau requires a fixed sampling rate")
        sample, graph = family.build(fixed_per_class)
        with phase_timer(family.phases, "clustering"):
            clusters = hac_cluster(graph, fixed_tau)
        clusters = ClusterSet(clusters.clusters, fixed_tau, fixed_per_class)
        per_class, tau = fixed_per_class, fixed_tau
    else:
        grid = X_GRID if fixed_per_class is None else (fixed_per_class,)
        # the builds and clustering calls inside the search time themselves
        # into their own phases; "search" keeps only the residual so the
        # phase breakdown stays disjoint and sums to the true wall clock
        start = time.perf_counter()
        inner_before = sum(family.phases.values())
        result: SearchResult = parameter_search(
            family.build, constraint, grid, phases=family.phases
        )
        wall = time.perf_counter() - start
        inner = sum(family.phases.values()) - inner_before
        family.phases["search"] = family.phases.get("search", 0.0) + max(wall - inner, 0.0)
        search_rounds = result.rounds
        if not result.found:
            return PipelineResult(
                mode=mode,
                found=False,
                table=None,
                search_rounds=search_rounds,
                message=result.message,
            )
        sample = result.sample
        clusters = result.clusters
        per_class, tau = result.per_class_rate, result.tau
    representatives = select_representatives(clusters, seeds.representative)
    quarantined = family.quarantined(per_class)
    table = accelerated_test(
        original,
        mutants,
        dataset,
        representatives,
        quarantined,
        overhead=family.phases,
        mode=mode,
    )
    return PipelineResult(
        mode=mode,
        found=True,
        table=table,
        clusters=clusters,
        representatives=representatives,
        sample=sample,
        per_class_rate=per_class,
        tau=tau,
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
        if not self.x_grid or not self.tau_grid or self.repeats < 1:
            raise ParameterError("sweep grids must be nonempty and repeats >= 1")
        if any(not 0 < t < 1 for t in self.tau_grid):
            raise ParameterError("tau grid values must lie in (0, 1)")


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
    the cached vanilla verdicts instead of re-running the tester; per-cell
    seconds therefore cover clustering, selection and propagation only.
    """
    vanilla = vanilla or vanilla_test(original, mutants, dataset)
    ms_vanilla = mutation_score(vanilla)
    counts = vanilla.counts()
    n_total = len(mutants)
    labels = vanilla.labels
    cells: list[SweepCell] = []
    rho_per_repeat: dict[tuple[int, int], float | None] = {}
    rate_by_x: dict[int, list[tuple[float, float]]] = {x: [] for x in spec.x_grid}

    for repeat in range(spec.repeats):
        sampling_seed = derived_seed(seeds.sampling, repeat)
        family = SpectraFamily(mutants, dataset, TRANSFORM_DFT, sampling_seed)
        for x in spec.x_grid:
            _, graph = family.build(x)
            quarantined = family.quarantined(x)
            usable = graph.n_nodes
            rates = []
            for k, tau in enumerate(spec.tau_grid):
                start = time.perf_counter()
                clusters = hac_cluster(graph, tau)
                rate = mutant_reduction_rate(usable, clusters)
                rep_seed = derived_seed(seeds.representative, repeat, x, k)
                reps = select_representatives(clusters, rep_seed)
                propagated = {}
                for rep, members in reps.pairs:
                    for member in members:
                        propagated[member] = counts[rep]
                for q_id in quarantined:
                    propagated[q_id] = counts[q_id]
                ms_cell = sum(propagated.values()) / (n_total * len(labels))
                err = None if ms_vanilla == 0 else abs(ms_vanilla - ms_cell) / ms_vanilla
                seconds = time.perf_counter() - start
                cells.append(
                    SweepCell(x, tau, repeat, rate, len(clusters), err, seconds)
                )
                rates.append(rate)
                rate_by_x[x].append((tau, rate))
            rho_per_repeat[(x, repeat)] = (
                spearman_rho(spec.tau_grid, rates) if len(rates) > 1 else None
            )

    rho_pooled = {}
    for x, pairs in rate_by_x.items():
        taus = [t for t, _ in pairs]
        rates = [r for _, r in pairs]
        rho_pooled[x] = spearman_rho(taus, rates) if len(rates) > 1 else None
    return SweepResult(cells, rho_per_repeat, rho_pooled, ms_vanilla)
