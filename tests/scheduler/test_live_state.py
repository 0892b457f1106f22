"""What a shard holds is proportional to its live containers.

A shard ships what happened in every reply and keeps none of it:
``LifecycleScheduler.step_batch`` and ``depart`` return their state
change records, the front end folds them into its decisions, churn
counters, migrations and timelines, and the shard's engine holds no
decision, no migration record and no fragmentation sample.  The re-grade
table a migration reads (``LifecycleScheduler._graded_by_id``) holds
exactly the containers that are still running — a departure drops its
entry.  Each check runs after every message a shard handles, so a leak
shows at the first message it survives, not at the end of a stream that
happened to drain.
"""

import pytest

from repro.scheduler import (
    EventKind,
    LifecycleScheduler,
    ScheduleConfig,
    SchedulerService,
    events_from_requests,
)
from tests.scheduler.replay import replay

#: A small fleet the stream keeps near full: departures, capacity
#: rejects and rebalancer migrations all happen, admission on or off.
CHURN = dict(
    machine="amd",
    hosts=8,
    shards=2,
    window=4,
    workers="inline",
    requests=200,
    seed=3,
    churn=True,
    arrival_rate=1.0,
    mean_lifetime=30.0,
    vcpus=(8, 8, 16, 32),
)


def _live_only(engine):
    """The engine retains no decision, no timeline sample and no
    migration record, and its re-grade table is its live set."""
    assert engine.graded == []
    assert len(engine.stats.fragmentation_timeline) == 0
    assert engine.stats.migrations == []
    assert engine._graded_by_id.keys() == engine._active.keys()


def _checked_after_every_dispatch(service, check):
    """Run ``check(worker)`` on every shard after each dispatch."""
    dispatch = service._dispatch
    checked = []

    def checking(items):
        outcomes = dispatch(items)
        for client in service.clients:
            check(client.worker)
        checked.append(len(items))
        return outcomes

    service._dispatch = checking
    return checked


@pytest.mark.parametrize("admission", [False, True], ids=["plain", "admission"])
def test_served_shards_keep_only_live_decisions(admission):
    extra = dict(admission=True, queue_limit=16) if admission else {}
    config = ScheduleConfig(**CHURN, **extra)
    with SchedulerService(config) as service:
        checked = _checked_after_every_dispatch(
            service, lambda worker: _live_only(worker.engine)
        )
        report = service.serve()
        live = sum(
            len(client.worker.engine._active) for client in service.clients
        )
    # The check ran on a stream that exercised what it guards.
    assert len(checked) > 10
    assert report.churn.departures > 0
    assert report.churn.n_migrations > 0
    assert live == 0  # the stream drained: nothing is kept at all
    assert len(report.decisions) == report.n_requests


def _stream():
    return ScheduleConfig(**CHURN).build_stream()


@pytest.mark.parametrize("window", [1, 8])
def test_replay_regrade_table_is_the_live_set(window):
    config = ScheduleConfig(**dict(CHURN, shards=1))
    registry = config.build_registry()
    messages = []

    def live_keys(engine):
        _live_only(engine)  # step_batch and depart return, never keep
        messages.append(len(engine._active))

    requests = _stream()
    outcome = replay(
        config.build_policy(registry),
        config.build_fleet(),
        requests,
        window=window,
        registry=registry,
        after_event=live_keys,
    )
    assert len(outcome["decisions"]) == len(requests)  # one per arrival
    assert outcome["migrations"]
    assert max(messages) > 0 and messages[-1] == 0


def test_stepped_engine_keeps_one_entry_per_arrival():
    """``step()`` — the monolith's path — keeps every arrival's entry for
    its report, and still drops departed containers from the re-grade
    table."""
    config = ScheduleConfig(**dict(CHURN, shards=1))
    registry = config.build_registry()
    engine = LifecycleScheduler(
        config.build_fleet(), config.build_policy(registry), registry=registry
    )
    arrivals = 0
    for event in events_from_requests(_stream()).drain():
        engine.step(event)
        arrivals += event.kind is EventKind.ARRIVAL
        assert len(engine.graded) == arrivals
        assert engine._graded_by_id.keys() == engine._active.keys()
    assert engine.stats.migrations and engine.stats.departures
