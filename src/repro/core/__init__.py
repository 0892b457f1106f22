"""The paper's contribution: scheduling concerns, important placements,
performance prediction, and placement policies.

NOTE: imports grow as modules land; the full public API is re-exported from
:mod:`repro` once complete.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "InterleaveOutcome": "repro.core.interleaving",
    "interconnect_disjoint": "repro.core.interleaving",
    "interleave_experiment": "repro.core.interleaving",
    "is_safe_filler": "repro.core.interleaving",
    "PlacementPolicy": "repro.core.policies",
    "MlPolicy": "repro.core.policies",
    "ConservativePolicy": "repro.core.policies",
    "AggressivePolicy": "repro.core.policies",
    "SmartAggressivePolicy": "repro.core.policies",
    "PackingOutcome": "repro.core.policies",
    "best_min_node_sets": "repro.core.policies",
    "evaluate_policy": "repro.core.policies",
    "PlacementScheduler": "repro.core.runtime",
    "SchedulerReport": "repro.core.runtime",
    "PlacementModel": "repro.core.model",
    "HpeModel": "repro.core.model",
    "ModelEvaluation": "repro.core.model",
    "FoldResult": "repro.core.training",
    "TrainingSet": "repro.core.training",
    "build_training_set": "repro.core.training",
    "leave_one_workload_out": "repro.core.training",
    "workload_family": "repro.core.training",
    "BehaviourClusters": "repro.core.clustering",
    "cluster_behaviours": "repro.core.clustering",
    "cluster_training_set": "repro.core.clustering",
    "SchedulingConcern": "repro.core.concerns",
    "CountingConcern": "repro.core.concerns",
    "BandwidthConcern": "repro.core.concerns",
    "ConcernSet": "repro.core.concerns",
    "ScoreVector": "repro.core.concerns",
    "concerns_for": "repro.core.concerns",
    "Placement": "repro.core.placements",
    "ImportantPlacementSet": "repro.core.enumeration",
    "Packing": "repro.core.enumeration",
    "CacheInfo": "repro.core.memo",
    "EnumerationCache": "repro.core.memo",
    "DEFAULT_ENUMERATION_CACHE": "repro.core.memo",
    "BlockScoreCache": "repro.core.blockscores",
    "BlockScoreTable": "repro.core.blockscores",
    "BlockStateMemo": "repro.core.blockscores",
    "DEFAULT_BLOCK_SCORE_CACHE": "repro.core.blockscores",
    "SCORE_TOLERANCE": "repro.core.blockscores",
    "block_score_table": "repro.core.blockscores",
    "block_state_memo": "repro.core.blockscores",
    "scores_match": "repro.core.blockscores",
    "cached_block_score_table": "repro.core.memo",
    "cached_enumerate_important_placements": "repro.core.memo",
    "enumerate_important_placements": "repro.core.enumeration",
    "generate_scores": "repro.core.enumeration",
    "gen_packings": "repro.core.enumeration",
    "important_placements": "repro.core.enumeration",
    "pareto_filter_packings": "repro.core.enumeration",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
