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

from repro.scheduler.admission import (
    SHED_POLICIES,
    AdmissionController,
    AdmissionDecision,
    AdmissionStats,
)
from repro.scheduler.capacity import (
    Space,
    available,
    brute_force_capacity,
    needed_nodes,
)
from repro.scheduler.config import ScheduleConfig, add_schedule_arguments
from repro.scheduler.faults import (
    FAULT_KINDS,
    FaultAction,
    FaultInjectingClient,
    FaultPlan,
    ShardFaultSchedule,
)
from repro.scheduler.events import (
    EventKind,
    EventQueue,
    LifecycleEvent,
    events_from_requests,
)
from repro.scheduler.fleet import (
    Fleet,
    FleetHost,
    NodesBusyError,
    UnknownNodeError,
    minimal_l2_share,
    minimal_node_count,
    minimal_shape,
)
from repro.scheduler.index import FleetIndex
from repro.scheduler.lifecycle import (
    ChurnStats,
    FragmentationSample,
    FragmentationTimeline,
    LifecycleScheduler,
    MigrationRecord,
    RebalanceConfig,
)
from repro.scheduler.policies import (
    POLICIES,
    FirstFitFleetPolicy,
    FleetDecision,
    FleetPolicy,
    GoalAwareFleetPolicy,
    SpreadFleetPolicy,
    make_policy,
)
from repro.scheduler.registry import ModelRegistry
from repro.scheduler.requests import (
    ArrivalPhase,
    PlacementRequest,
    drift_phase_schedule,
    generate_churn_stream,
    generate_request_stream,
)
from repro.scheduler.scheduler import (
    FleetReport,
    GradedDecision,
    grade_decision,
)
from repro.scheduler.service import (
    SchedulerService,
    ServiceStats,
    merge_churn_stats,
)
from repro.scheduler.shard import (
    InlineShardClient,
    ProcessShardClient,
    ShardCrashError,
    ShardTimeoutError,
    ShardWorker,
)
from repro.scheduler.supervisor import (
    HEALTH_DOWN,
    HEALTH_RECOVERING,
    HEALTH_STATES,
    HEALTH_SUSPECT,
    HEALTH_UP,
    JournalEntry,
    MUTATING_OPS,
    ShardDownError,
    ShardJournal,
    ShardSupervisor,
)
from repro.scheduler.wire import ShardError, ShardSummary

__all__ = [
    "add_schedule_arguments",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "available",
    "brute_force_capacity",
    "needed_nodes",
    "Space",
    "SHED_POLICIES",
    "FAULT_KINDS",
    "FaultAction",
    "FaultInjectingClient",
    "FaultPlan",
    "HEALTH_DOWN",
    "HEALTH_RECOVERING",
    "HEALTH_STATES",
    "HEALTH_SUSPECT",
    "HEALTH_UP",
    "InlineShardClient",
    "JournalEntry",
    "MUTATING_OPS",
    "ShardCrashError",
    "ShardDownError",
    "ShardError",
    "ShardFaultSchedule",
    "ShardJournal",
    "ShardSupervisor",
    "ShardTimeoutError",
    "make_policy",
    "merge_churn_stats",
    "POLICIES",
    "ProcessShardClient",
    "ScheduleConfig",
    "SchedulerService",
    "ServiceStats",
    "ShardSummary",
    "ShardWorker",
    "ArrivalPhase",
    "ChurnStats",
    "drift_phase_schedule",
    "EventKind",
    "EventQueue",
    "Fleet",
    "FleetHost",
    "FleetDecision",
    "FleetIndex",
    "FleetPolicy",
    "FirstFitFleetPolicy",
    "FragmentationSample",
    "FragmentationTimeline",
    "LifecycleEvent",
    "LifecycleScheduler",
    "MigrationRecord",
    "NodesBusyError",
    "RebalanceConfig",
    "SpreadFleetPolicy",
    "GoalAwareFleetPolicy",
    "UnknownNodeError",
    "events_from_requests",
    "minimal_node_count",
    "minimal_l2_share",
    "minimal_shape",
    "ModelRegistry",
    "PlacementRequest",
    "generate_churn_stream",
    "generate_request_stream",
    "FleetReport",
    "GradedDecision",
    "grade_decision",
]
