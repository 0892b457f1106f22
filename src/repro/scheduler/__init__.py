"""Fleet-scale placement scheduling (the paper's Section 7 writ large).

The single-machine pipeline — concerns, important placements, the
two-observation model — becomes the decision kernel of a cluster
scheduler: a stream of heterogeneous container requests is placed across
many simulated hosts under pluggable fleet policies, with per-request
decision traces and fleet-level utilization/violation reporting.

The subsystem exists to exercise the two scale optimizations it ships
with: the topology-fingerprint memo cache around placement enumeration
(:mod:`repro.core.memo`) and the batched prediction path
(:meth:`repro.core.model.PlacementModel.predict_batch`), which together
turn a per-request cost into a per-machine-shape cost.

:mod:`repro.scheduler.lifecycle` is the one engine: timestamped
arrival/departure events decided a window of arrivals at a time,
fleet-level release, fragmentation tracking, and a migration-driven
rebalancer that consults :class:`repro.migration.planner.MigrationPlanner`
before moving anything.  A one-shot stream, where nothing departs, is the
same engine with the rebalancer off.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "add_schedule_arguments": "repro.scheduler.config",
    "AdmissionController": "repro.scheduler.admission",
    "AdmissionDecision": "repro.scheduler.admission",
    "AdmissionStats": "repro.scheduler.admission",
    "available": "repro.scheduler.capacity",
    "brute_force_capacity": "repro.scheduler.capacity",
    "needed_nodes": "repro.scheduler.capacity",
    "Space": "repro.scheduler.capacity",
    "SHED_POLICIES": "repro.scheduler.admission",
    "FAULT_KINDS": "repro.scheduler.faults",
    "FaultAction": "repro.scheduler.faults",
    "FaultInjectingClient": "repro.scheduler.faults",
    "FaultPlan": "repro.scheduler.faults",
    "HEALTH_DOWN": "repro.scheduler.supervisor",
    "HEALTH_RECOVERING": "repro.scheduler.supervisor",
    "HEALTH_STATES": "repro.scheduler.supervisor",
    "HEALTH_SUSPECT": "repro.scheduler.supervisor",
    "HEALTH_UP": "repro.scheduler.supervisor",
    "InlineShardClient": "repro.scheduler.shard",
    "JournalEntry": "repro.scheduler.supervisor",
    "MUTATING_OPS": "repro.scheduler.supervisor",
    "ShardCrashError": "repro.scheduler.shard",
    "ShardDownError": "repro.scheduler.supervisor",
    "ShardError": "repro.scheduler.wire",
    "ShardFaultSchedule": "repro.scheduler.faults",
    "ShardJournal": "repro.scheduler.supervisor",
    "ShardSupervisor": "repro.scheduler.supervisor",
    "ShardTimeoutError": "repro.scheduler.shard",
    "make_policy": "repro.scheduler.policies",
    "POLICIES": "repro.scheduler.policies",
    "ProcessShardClient": "repro.scheduler.shard",
    "ScheduleConfig": "repro.scheduler.config",
    "SchedulerService": "repro.scheduler.service",
    "ServiceStats": "repro.scheduler.service",
    "ShardSummary": "repro.scheduler.wire",
    "ShardWorker": "repro.scheduler.shard",
    "ArrivalPhase": "repro.scheduler.requests",
    "ChurnFold": "repro.scheduler.lifecycle",
    "ChurnStats": "repro.scheduler.lifecycle",
    "drift_phase_schedule": "repro.scheduler.requests",
    "EventKind": "repro.scheduler.events",
    "EventQueue": "repro.scheduler.events",
    "Fleet": "repro.scheduler.fleet",
    "FleetHost": "repro.scheduler.fleet",
    "FleetDecision": "repro.scheduler.policies",
    "FleetIndex": "repro.scheduler.index",
    "FleetPolicy": "repro.scheduler.policies",
    "FirstFitFleetPolicy": "repro.scheduler.policies",
    "FragmentationSample": "repro.scheduler.lifecycle",
    "FragmentationTimeline": "repro.scheduler.lifecycle",
    "LifecycleEvent": "repro.scheduler.events",
    "LifecycleScheduler": "repro.scheduler.lifecycle",
    "MigrationRecord": "repro.scheduler.lifecycle",
    "NodesBusyError": "repro.scheduler.fleet",
    "RebalanceConfig": "repro.scheduler.lifecycle",
    "SpreadFleetPolicy": "repro.scheduler.policies",
    "GoalAwareFleetPolicy": "repro.scheduler.policies",
    "UnknownNodeError": "repro.scheduler.fleet",
    "events_from_requests": "repro.scheduler.events",
    "minimal_node_count": "repro.scheduler.fleet",
    "minimal_l2_share": "repro.scheduler.fleet",
    "minimal_shape": "repro.scheduler.fleet",
    "ModelRegistry": "repro.scheduler.registry",
    "PlacementRequest": "repro.scheduler.requests",
    "generate_churn_stream": "repro.scheduler.requests",
    "generate_request_stream": "repro.scheduler.requests",
    "FleetReport": "repro.scheduler.scheduler",
    "GradedDecision": "repro.scheduler.scheduler",
    "grade_decision": "repro.scheduler.scheduler",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
