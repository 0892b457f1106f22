"""Drive a lifecycle engine the way a shard does, and keep what it did.

Consecutive arrivals go through ``step_batch`` up to ``window`` at a
time and a departure flushes the window first.  ``step_batch`` and
``depart`` keep nothing, so the replay folds the records they return
(a :class:`~repro.scheduler.lifecycle.ChurnFold`) and keeps the
outcomes' entries, one per arrival (a migration re-grades them in
place, as it re-grades ``graded``).
Everything observable comes back in one dict, so two policies that must
decide alike (a production policy and its oracle) compare with one
``==``.  ``after_event(engine)``, when given, runs after every message
a shard would have handled: each window and each departure.
"""

from repro.scheduler import (
    ChurnFold,
    EventKind,
    LifecycleScheduler,
    RebalanceConfig,
    events_from_requests,
)
from repro.scheduler.lifecycle import OUTCOMES


def replay(
    policy,
    fleet,
    requests,
    *,
    window,
    rebalance=True,
    registry=None,
    after_event=lambda engine: None,
):
    engine = LifecycleScheduler(
        fleet,
        policy,
        registry=registry or policy.registry,
        config=RebalanceConfig(enabled=rebalance),
    )
    fold = ChurnFold()
    graded = []

    def keep(changes):
        fold.fold(changes)
        graded.extend(r[2] for r in changes if r[0] in OUTCOMES)
        after_event(engine)

    pending = []
    for event in events_from_requests(requests).drain():
        if event.kind is EventKind.ARRIVAL:
            pending.append(event)
            if len(pending) < window:
                continue
        if pending:
            keep(engine.step_batch(pending))
            pending = []
        if event.kind is not EventKind.ARRIVAL:
            keep([engine.depart(event.request.request_id, event.time)])
    if pending:
        keep(engine.step_batch(pending))
    fleet.index.assert_consistent(fleet.hosts)
    stats = fold.stats
    return {
        "decisions": decision_rows(graded),
        "migrations": stats.migrations,
        "rebalance": (stats.rebalance_attempts, stats.rebalance_recovered),
        "timeline": stats.fragmentation_timeline,
        "hosts": host_rows(fleet),
    }


def decision_rows(graded):
    """Per graded decision: request id, host, placement id, reject
    reason, block exactness, graded performance, nodes, prediction."""
    return [
        (
            g.decision.request.request_id,
            g.decision.host_id,
            g.decision.placement_id,
            g.decision.reject_reason,
            g.decision.block_exact,
            g.achieved_relative,
            None if g.decision.placement is None else g.decision.placement.nodes,
            g.decision.predicted_relative,
        )
        for g in graded
    ]


def host_rows(fleet):
    """Per host: id, free-node mask and the requests it holds."""
    return [
        (host.host_id, host.free_mask, sorted(host.placements))
        for host in fleet.hosts
    ]
