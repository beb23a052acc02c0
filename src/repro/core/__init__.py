"""Core algorithm: the interactive NN search loop of Aggarwal (ICDE 2002)."""

from repro.core.config import SearchConfig
from repro.core.counting import PreferenceCounter
from repro.core.meaningfulness import (
    IterationStatistics,
    MeaningfulnessAccumulator,
    iteration_statistics,
    meaningfulness_coefficients,
    meaningfulness_probabilities,
)
from repro.core.projections import (
    ProjectionSearchResult,
    find_query_centered_projection,
    orthogonal_projection_sequence,
)
from repro.core.engine import (
    DatasetPrecomputation,
    EnginePhase,
    EngineState,
    SearchEngine,
    ViewRequest,
)
from repro.core.search import (
    InteractiveNNSearch,
    SearchResult,
    TerminationReason,
    drive,
    drive_pending,
)
from repro.core.batch import BatchEntry, BatchResult, run_batch
from repro.core.counting import prune_unpicked
from repro.core.refinement import (
    RefinedSearch,
    RefinementStep,
    moved_query,
    refine_search,
)
from repro.core.serialization import (
    checkpoint_to_dict,
    load_checkpoint,
    load_result_dict,
    result_to_dict,
    resume_engine,
    save_checkpoint,
    save_result,
    session_to_dict,
)
from repro.core.session import (
    MajorIterationRecord,
    MinorIterationRecord,
    SearchSession,
)
from repro.core.termination import StabilityTermination, top_set_overlap

__all__ = [
    "SearchConfig",
    "InteractiveNNSearch",
    "SearchResult",
    "TerminationReason",
    "SearchEngine",
    "EngineState",
    "EnginePhase",
    "ViewRequest",
    "DatasetPrecomputation",
    "drive",
    "drive_pending",
    "checkpoint_to_dict",
    "save_checkpoint",
    "load_checkpoint",
    "resume_engine",
    "PreferenceCounter",
    "IterationStatistics",
    "MeaningfulnessAccumulator",
    "iteration_statistics",
    "meaningfulness_coefficients",
    "meaningfulness_probabilities",
    "ProjectionSearchResult",
    "find_query_centered_projection",
    "orthogonal_projection_sequence",
    "SearchSession",
    "MinorIterationRecord",
    "MajorIterationRecord",
    "StabilityTermination",
    "top_set_overlap",
    "session_to_dict",
    "result_to_dict",
    "save_result",
    "load_result_dict",
    "BatchEntry",
    "BatchResult",
    "run_batch",
    "prune_unpicked",
    "RefinedSearch",
    "RefinementStep",
    "moved_query",
    "refine_search",
]
