"""The paper's contribution: scheduling concerns, important placements,
performance prediction, and placement policies.

NOTE: imports grow as modules land; the full public API is re-exported from
:mod:`repro` once complete.
"""

from repro.core.concerns import (
    SchedulingConcern,
    CountingConcern,
    BandwidthConcern,
    ConcernSet,
    ScoreVector,
    concerns_for,
)
from repro.core.placements import Placement
from repro.core.enumeration import (
    ImportantPlacementSet,
    Packing,
    enumerate_important_placements,
    generate_scores,
    gen_packings,
    important_placements,
    pareto_filter_packings,
)
from repro.core.memo import (
    DEFAULT_ENUMERATION_CACHE,
    CacheInfo,
    EnumerationCache,
    cached_block_score_table,
    cached_enumerate_important_placements,
)
from repro.core.blockscores import (
    DEFAULT_BLOCK_SCORE_CACHE,
    SCORE_TOLERANCE,
    BlockScoreCache,
    BlockScoreTable,
    BlockStateMemo,
    block_score_table,
    block_state_memo,
    scores_match,
)
from repro.core.model import HpeModel, ModelEvaluation, PlacementModel
from repro.core.training import (
    FoldResult,
    TrainingSet,
    build_training_set,
    leave_one_workload_out,
    workload_family,
)
from repro.core.clustering import (
    BehaviourClusters,
    cluster_behaviours,
    cluster_training_set,
)
from repro.core.policies import (
    AggressivePolicy,
    ConservativePolicy,
    MlPolicy,
    PackingOutcome,
    PlacementPolicy,
    SmartAggressivePolicy,
    best_min_node_sets,
    evaluate_policy,
)
from repro.core.runtime import PlacementScheduler, SchedulerReport
from repro.core.interleaving import (
    InterleaveOutcome,
    interconnect_disjoint,
    interleave_experiment,
    is_safe_filler,
)

__all__ = [
    "InterleaveOutcome",
    "interconnect_disjoint",
    "interleave_experiment",
    "is_safe_filler",
    "PlacementPolicy",
    "MlPolicy",
    "ConservativePolicy",
    "AggressivePolicy",
    "SmartAggressivePolicy",
    "PackingOutcome",
    "best_min_node_sets",
    "evaluate_policy",
    "PlacementScheduler",
    "SchedulerReport",
    "PlacementModel",
    "HpeModel",
    "ModelEvaluation",
    "FoldResult",
    "TrainingSet",
    "build_training_set",
    "leave_one_workload_out",
    "workload_family",
    "BehaviourClusters",
    "cluster_behaviours",
    "cluster_training_set",
    "SchedulingConcern",
    "CountingConcern",
    "BandwidthConcern",
    "ConcernSet",
    "ScoreVector",
    "concerns_for",
    "Placement",
    "ImportantPlacementSet",
    "Packing",
    "CacheInfo",
    "EnumerationCache",
    "DEFAULT_ENUMERATION_CACHE",
    "BlockScoreCache",
    "BlockScoreTable",
    "BlockStateMemo",
    "DEFAULT_BLOCK_SCORE_CACHE",
    "SCORE_TOLERANCE",
    "block_score_table",
    "block_state_memo",
    "scores_match",
    "cached_block_score_table",
    "cached_enumerate_important_placements",
    "enumerate_important_placements",
    "generate_scores",
    "gen_packings",
    "important_placements",
    "pareto_filter_packings",
]
