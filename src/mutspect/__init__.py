"""mutspect: accelerated mutation testing for dense softmax classifiers.

Mutant outputs over a small stratified sample are turned into DFT-magnitude
signatures; behaviourally similar mutants are clustered on an exp(-distance)
similarity graph, and only one representative per cluster is fully tested,
with its verdict propagated to the rest.
"""

__version__ = "0.1.0"

from .baselines import (
    bss_select,
    bss_test,
    rms_test,
    rss_test,
)
from .clustering import (
    DEFAULT_REDUCTION,
    NOT_SATISFIABLE_MESSAGE,
    X_GRID,
    ClusterSet,
    ReductionConstraint,
    RepresentativeMap,
    SimilarityGraph,
    XRound,
    hac_cluster,
    mutant_reduction_rate,
    select_representatives,
    tau_search,
)
from .dataset import LabeledDataset, load_dataset, save_dataset
from .metrics import MeasureReport, PredictiveReport, measures, predictive_metrics, spearman_rho
from .model import (
    DenseLayer,
    FcnnClassifier,
    batch_outputs,
    count_forward_passes,
    load_model,
    model_hash,
    save_model,
)
from .mutants import (
    ALL_KINDS,
    MutantRecord,
    MutantSet,
    MutatorKind,
    gaussian_fuzz,
    generate_mutant_set,
    load_manifest,
    neuron_activation_inverse,
    neuron_effect_block,
    neuron_switch,
    save_manifest,
    weight_shuffle,
)
from .pipeline import (
    PipelineResult,
    Seeds,
    SweepSpec,
    parameter_search,
    run_accelerated,
    run_sweep,
    run_vanilla,
)
from .spectra import (
    SampleSet,
    SpectraSet,
    TRANSFORM_DFT,
    TRANSFORM_RAW,
    build_similarity_graph,
    dft_magnitude,
    mutant_distance,
    mutant_similarity,
    mutant_spectra,
    stratified_sample,
)
from .synth import diverse_mutant_set, fitted_classifier, gaussian_blobs
from .testing import (
    MutantVerdict,
    TimingRecord,
    VerdictTable,
    accelerated_test,
    accuracy,
    killing_labels,
    mutation_score,
    vanilla_test,
)
