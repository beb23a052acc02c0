"""repro — Interactive high-dimensional nearest neighbor search.

A full reproduction of Charu C. Aggarwal, *Towards Meaningful
High-Dimensional Nearest Neighbor Search by Human-Computer Interaction*
(ICDE 2002): graded query-centered projections, kernel-density visual
profiles with density-connected cluster separation, user-preference
meaningfulness quantification, and meaninglessness diagnosis — plus the
synthetic and UCI-like workloads, baselines, and evaluation harness
needed to regenerate the paper's tables and figures.

Quick start::

    import numpy as np
    from repro import (
        InteractiveNNSearch, SearchConfig, OracleUser, case1_dataset,
    )

    rng = np.random.default_rng(7)
    data = case1_dataset(rng, n_points=2000)
    query_index = int(data.dataset.cluster_indices(0)[0])
    user = OracleUser(data.dataset, query_index)
    search = InteractiveNNSearch(data.dataset, SearchConfig(support=30))
    result = search.run(data.dataset.points[query_index], user)
    print(result.neighbor_indices[:10])
"""

from repro.analysis import (
    ClassificationComparison,
    ContrastReport,
    MeaningfulnessDiagnosis,
    RetrievalQuality,
    SteepDrop,
    compare_classification,
    contrast_report,
    diagnose,
    natural_neighbors,
    retrieval_quality,
    steep_drop_analysis,
)
from repro.baselines import FullDimensionalKNN, ProjectedNN
from repro.core import (
    BatchResult,
    DatasetPrecomputation,
    EnginePhase,
    EngineState,
    InteractiveNNSearch,
    SearchConfig,
    SearchEngine,
    SearchResult,
    TerminationReason,
    ViewRequest,
    checkpoint_to_dict,
    drive,
    find_query_centered_projection,
    load_checkpoint,
    orthogonal_projection_sequence,
    resume_engine,
    run_batch,
    save_checkpoint,
)
from repro.data import (
    Dataset,
    case1_dataset,
    case2_dataset,
    gaussian_mixture_dataset,
    ionosphere_like,
    segmentation_like,
    uniform_dataset,
)
from repro.density import (
    DensityGrid,
    DensitySeparator,
    KernelDensityEstimator,
    LateralDensityPlot,
    VisualProfile,
)
from repro.exceptions import (
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    DimensionalityError,
    EmptyDatasetError,
    EngineStateError,
    InteractionError,
    ReproError,
    SubspaceError,
)
from repro.geometry import Subspace
from repro.interaction import (
    HeuristicFactory,
    HeuristicUser,
    OracleFactory,
    OracleUser,
    ProjectionView,
    ScriptedUser,
    TerminalUser,
    UserDecision,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "InteractiveNNSearch",
    "SearchConfig",
    "SearchResult",
    "TerminationReason",
    "SearchEngine",
    "EngineState",
    "EnginePhase",
    "ViewRequest",
    "DatasetPrecomputation",
    "drive",
    "checkpoint_to_dict",
    "save_checkpoint",
    "load_checkpoint",
    "resume_engine",
    "find_query_centered_projection",
    "orthogonal_projection_sequence",
    "run_batch",
    "BatchResult",
    # data
    "Dataset",
    "case1_dataset",
    "case2_dataset",
    "uniform_dataset",
    "gaussian_mixture_dataset",
    "ionosphere_like",
    "segmentation_like",
    # density
    "KernelDensityEstimator",
    "DensityGrid",
    "VisualProfile",
    "LateralDensityPlot",
    "DensitySeparator",
    # interaction
    "OracleUser",
    "OracleFactory",
    "HeuristicUser",
    "HeuristicFactory",
    "ScriptedUser",
    "TerminalUser",
    "ProjectionView",
    "UserDecision",
    # geometry
    "Subspace",
    # baselines
    "FullDimensionalKNN",
    "ProjectedNN",
    # analysis
    "contrast_report",
    "ContrastReport",
    "retrieval_quality",
    "RetrievalQuality",
    "steep_drop_analysis",
    "SteepDrop",
    "natural_neighbors",
    "compare_classification",
    "ClassificationComparison",
    "diagnose",
    "MeaningfulnessDiagnosis",
    # exceptions
    "ReproError",
    "DimensionalityError",
    "SubspaceError",
    "EmptyDatasetError",
    "ConfigurationError",
    "InteractionError",
    "ConvergenceError",
    "EngineStateError",
    "CheckpointError",
]
