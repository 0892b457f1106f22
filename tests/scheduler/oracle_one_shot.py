"""The one-shot batch loop as a test oracle, not an engine of its own.

One-shot scheduling is the lifecycle engine over a stream where nothing
departs, with the rebalancer off: :func:`one_shot_engine` builds it, and
``run(requests, window=b)`` decides ``b`` arrivals per policy batch.
:func:`one_shot_oracle` keeps the loop that used to be a scheduler of
its own — cut the stream into batches, ``decide_batch`` each batch, then
``grade_decision`` each decision — and reports what the engine's report
must agree with.  The gates demand the same graded decisions (timing
aside), prediction counters, IPC-memo counters and utilizations.
"""

from repro.scheduler import (
    FleetReport,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    grade_decision,
)


def one_shot_engine(fleet, policy=None, *, registry=None):
    """The production one-shot scheduler: the lifecycle engine with the
    rebalancer off."""
    return LifecycleScheduler(
        fleet,
        policy,
        registry=registry,
        config=RebalanceConfig(enabled=False),
    )


def one_shot_oracle(fleet, policy, requests, *, window, registry=None):
    """Batches of ``window`` requests through ``decide_batch``, each
    decision graded; the report holds what the gates compare."""
    if registry is None:
        registry = getattr(policy, "registry", None) or ModelRegistry()
    graded = []
    for begin in range(0, len(requests), window):
        batch = requests[begin : begin + window]
        decisions = policy.decide_batch(batch, fleet)
        assert len(decisions) == len(batch)
        graded.extend(
            grade_decision(decision, fleet, registry) for decision in decisions
        )
    per_host = [host.thread_utilization for host in fleet.hosts]
    return FleetReport(
        policy=policy.name,
        n_hosts=len(fleet),
        n_requests=len(requests),
        decisions=graded,
        thread_utilization=fleet.thread_utilization,
        node_utilization=fleet.node_utilization,
        busiest_host_utilization=max(per_host) if per_host else 0.0,
        predict_calls=getattr(policy, "predict_calls", 0),
        predicted_rows=getattr(policy, "predicted_rows", 0),
        ipc_cache_info=registry.ipc_cache_info(),
    )
