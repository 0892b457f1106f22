"""Fault-tolerance tests: deterministic injection, supervision, recovery.

The contracts under test, in rough order of importance:

* **No-fault equivalence** — with no ``FaultPlan`` and ``supervised``
  off, the service's wire bytes carry no ``seq`` keys and its decisions
  are those of the plain service; with supervision on (journaling
  active) the wire bytes are identical except for the added ``seq``
  keys, and the decisions are bit-for-bit unchanged.
* **Crash convergence** — under immediate recovery, crashing any shard
  at *any* message index yields the exact fault-free decisions and
  merged churn report: the journal replay rebuilds the shard's state
  bit-for-bit and the in-flight message's replay response stands in for
  the lost reply (zero lost, zero duplicated placements).
* **Degraded operation** — with recovery deferred, arrivals fail over
  to surviving shards, every request is still decided exactly once, and
  queued departures for the dead shard are delivered after recovery.
* **Departures exactly once** — a window message carries its shard's
  pending departures, so a fault on it must neither lose them (rolled
  back: re-queued once, delivered once) nor release twice (replayed or
  retried: the ``seq`` dedupe answers before anything is applied).
"""

import json
import multiprocessing
from unittest import mock

import pytest

from repro.core import memo
from repro.core.model import PlacementModel
from repro.scheduler import (
    FaultAction,
    FaultInjectingClient,
    FaultPlan,
    HEALTH_DOWN,
    HEALTH_SUSPECT,
    HEALTH_UP,
    InlineShardClient,
    ProcessShardClient,
    ScheduleConfig,
    SchedulerService,
    ShardCrashError,
    ShardJournal,
    ShardSupervisor,
    ShardTimeoutError,
)
from tests.scheduler.fault_plans import storm
from tests.scheduler.oracle_dispatch import dispatch_service
from tests.scheduler.test_service import CHURN_REFERENCE, _fingerprints

#: A fast reference stream (heuristic policy, no model fitting) for the
#: many-run sweeps; busy enough for departures and capacity rejects.
FAST_REFERENCE = dict(
    machine="amd",
    hosts=4,
    requests=40,
    seed=3,
    churn=True,
    policy="first-fit",
    arrival_rate=1.0,
    mean_lifetime=20.0,
    heavy_tail=True,
    vcpus=(8, 8, 16),
)


def _arrival(request_id, *, vcpus=8, event_time=0.0):
    """One wire-form arrival row for hand-built messages."""
    from repro.scheduler import generate_request_stream
    from repro.scheduler.wire import encode_arrival

    request = generate_request_stream(1, seed=request_id, vcpus_choices=(vcpus,))[0]
    return encode_arrival(request, event_time)


def _fast_config(**overrides):
    values = dict(
        FAST_REFERENCE, shards=2, window=4, backoff_base_s=0.0
    )
    values.update(overrides)
    return ScheduleConfig(**values)


def _serve(config, faults=None, service_class=SchedulerService):
    with service_class(config, faults=faults) as service:
        report = service.serve()
        return report, service.stats


def _report_signature(report):
    """Everything deterministic about a merged report: the decision
    fingerprints plus the full churn payload (timelines, migrations)."""
    return (
        _fingerprints(report.decisions),
        report.placed,
        report.rejected,
        report.churn.to_dict(),
    )


class _RecordingClient:
    """Transport shim that captures every wire message as sorted JSON."""

    def __init__(self, inner, sent):
        self.inner = inner
        self.shard_id = inner.shard_id
        self.transport = inner.transport
        self.sent = sent

    def send(self, message, timeout_s=None):
        self.sent.append(json.dumps(message, sort_keys=True))
        self.inner.send(message, timeout_s)

    def recv(self, timeout_s=None):
        return self.inner.recv(timeout_s)

    def request_many(self, messages, timeout_s=None, on_response=None):
        for message in messages:
            self.sent.append(json.dumps(message, sort_keys=True))
        return self.inner.request_many(
            messages, timeout_s=timeout_s, on_response=on_response
        )

    def reply_ready(self):
        return self.inner.reply_ready()

    def gather_connection(self):
        return self.inner.gather_connection()

    def recv_deadline(self):
        return self.inner.recv_deadline()

    def kill(self):
        self.inner.kill()

    def close(self):
        self.inner.close()


class _CarriedDepartures:
    """Client shim noting which of a shard's messages carry departures,
    by the index its fault schedule is about to give them."""

    def __init__(self, inner, indices):
        self.inner = inner
        self.indices = indices

    def __getattr__(self, name):  # transport, gather surface, kill, ...
        return getattr(self.inner, name)

    def _note(self, message):
        if message.get("departures") or (
            message["op"] == "depart" and message["events"]
        ):
            self.indices.append(self.inner.schedule.messages_seen)

    def send(self, message, timeout_s=None):
        self._note(message)
        self.inner.send(message, timeout_s)



def _fault_free_probe(config, service_class=SchedulerService):
    """(report, stats, per-shard message counts, per-shard indices of the
    departure-carrying messages) of the run no fault touches."""
    with service_class(config, faults=FaultPlan(actions=[])) as probe:
        carrying = [[] for _ in probe.clients]
        probe.clients = [
            _CarriedDepartures(client, indices)
            for client, indices in zip(probe.clients, carrying)
        ]
        report = probe.serve()
        counts = [s.messages_seen for s in probe._fault_schedules]
        assert _applied_departures(probe) == probe.stats.departures_routed
        return report, probe.stats, counts, carrying


def _applied_departures(service):
    """Departure pairs the front end folded from the shards' replies: a
    reply carries one record with a fragmentation sample per arrival
    outcome and one per departure pair, whatever the pair released, and
    each reply is folded once (a replay's are not)."""
    fold = service._churn
    return sum(map(len, fold.timelines)) - fold.stats.arrivals


def _assert_departed_exactly_once(service, report, plain_stats):
    """The stream's every container has a lifetime: after ``serve`` the
    fleet is empty, each placed container was released, and no shard
    applied a departure pair it had applied before."""
    for summary in service.summaries:
        assert summary.active_containers == 0
        assert summary.used_threads == 0
        assert summary.free_nodes_total == summary.total_nodes
    assert report.churn.departures == report.placed
    assert service.stats.departures_routed == plain_stats.departures_routed
    assert _applied_departures(service) == plain_stats.departures_routed
    assert service._owner == {} and not any(service._outbox)


def assert_crashes_deliver_departures_once(
    config, service_class=SchedulerService
):
    """Crash ``config``'s stream once at each message that carries
    departures, in a fresh service per crash: every pair is applied
    exactly once, every arrival decided once, and with recovery immediate
    (``recovery_rounds == 0``) the report is the fault-free one."""
    plain, plain_stats, _, carrying = _fault_free_probe(config, service_class)
    assert all(carrying)
    for shard, indices in enumerate(carrying):
        for index in indices:
            with service_class(
                config, faults=FaultPlan.crash_at(shard, index)
            ) as service:
                report = service.serve()
                _assert_departed_exactly_once(service, report, plain_stats)
                assert service.stats.crashes == 1
                assert service.stats.journal_replays >= 1
            ids = [d.decision.request.request_id for d in report.decisions]
            assert sorted(ids) == sorted(
                d.decision.request.request_id for d in plain.decisions
            )
            if config.recovery_rounds == 0:
                assert _report_signature(report) == _report_signature(plain)


def _record_messages(config, faults=None):
    with SchedulerService(config, faults=faults) as service:
        sent = []
        service.clients = [
            _RecordingClient(client, sent) for client in service.clients
        ]
        report = service.serve()
        return report, sent


class TestFaultPlan:
    def test_bind_partitions_actions_by_shard(self):
        plan = FaultPlan(
            actions=[
                FaultAction(0, 1, "crash"),
                FaultAction(1, 2, "drop"),
                FaultAction(0, 4, "wedge"),
            ]
        )
        schedule = plan.bind(0)
        hits = [schedule.next_action() for _ in range(6)]
        assert [a.kind if a else None for a in hits] == [
            None, "crash", None, None, "wedge", None,
        ]

    def test_actions_fire_at_most_once(self):
        plan = FaultPlan.crash_at(0, 0)
        schedule = plan.bind(0)
        assert schedule.next_action().kind == "crash"
        # The counter keeps running across a client respawn; the fired
        # action never rearms.
        assert all(schedule.next_action() is None for _ in range(20))
        assert [a.kind for a in schedule.fired] == ["crash"]

    def test_colliding_indices_shift_instead_of_dropping(self):
        plan = FaultPlan(
            actions=[FaultAction(0, 2, "drop"), FaultAction(0, 2, "delay")]
        )
        schedule = plan.bind(0)
        kinds = [
            action.kind if action else None
            for action in (schedule.next_action() for _ in range(5))
        ]
        assert kinds == [None, None, "drop", "delay", None]


class TestFaultInjectingClient:
    def _client(self, plan):
        config = ScheduleConfig(
            machine="amd", hosts=2, requests=4, policy="first-fit"
        )
        inner = InlineShardClient(0, config)
        return FaultInjectingClient(inner, plan.bind(0))

    def test_crash_latches_and_kills_state(self):
        client = self._client(FaultPlan.crash_at(0, 1))
        client.request({"op": "summary"})
        with pytest.raises(ShardCrashError):
            client.request({"op": "summary"})
        # Latched: every later request crashes too, without consuming
        # message indices.
        with pytest.raises(ShardCrashError):
            client.request({"op": "summary"})
        assert client.schedule.messages_seen == 2

    def test_wedge_latches_as_timeouts(self):
        plan = FaultPlan(actions=[FaultAction(0, 0, "wedge")])
        client = self._client(plan)
        for _ in range(3):
            with pytest.raises(ShardTimeoutError):
                client.request({"op": "summary"})

    def test_drop_applies_then_times_out(self):
        plan = FaultPlan(actions=[FaultAction(0, 0, "drop")])
        client = self._client(plan)
        request = {"op": "arrive", "events": [_arrival(1)], "seq": 0}
        with pytest.raises(ShardTimeoutError):
            client.request(request)
        # The message reached the worker: a same-seq retry is answered
        # from the dedup cache rather than re-applied.
        response = client.request(request)
        assert client.inner.worker._applied_seq == 0
        assert client.inner.worker._next_seq == 1
        assert "summary" in response


class TestWorkerDedup:
    def test_same_seq_returns_cached_response(self):
        config = ScheduleConfig(
            machine="amd", hosts=1, requests=4, policy="first-fit"
        )
        client = InlineShardClient(0, config)
        message = {"op": "arrive", "events": [_arrival(1)], "seq": 0}
        first = client.request(message)
        again = client.request(message)
        assert again == first
        # Applied exactly once: the retry came from the dedup cache.
        assert client.worker._next_seq == 1

    def test_unsequenced_messages_never_dedup(self):
        config = ScheduleConfig(
            machine="amd", hosts=1, requests=4, policy="first-fit"
        )
        client = InlineShardClient(0, config)
        client.request({"op": "summary"})
        response = client.request({"op": "summary"})
        assert "deduped" not in response


class TestTransportFailures:
    def test_inline_kill_raises_crash(self):
        config = ScheduleConfig(
            machine="amd", hosts=1, requests=4, policy="first-fit"
        )
        client = InlineShardClient(0, config)
        client.kill()
        with pytest.raises(ShardCrashError):
            client.request({"op": "summary"})

    @pytest.mark.slow
    def test_process_dead_worker_raises_instead_of_hanging(self):
        config = ScheduleConfig(
            machine="amd", hosts=2, requests=4, policy="first-fit"
        )
        client = ProcessShardClient(0, config, timeout_s=20.0)
        assert "summary" in client.request({"op": "summary"})
        client._process.terminate()
        client._process.join(timeout=10.0)
        with pytest.raises(ShardCrashError):
            client.request({"op": "summary"})
        client.close()
        assert client._connection.closed

    @pytest.mark.slow
    def test_process_worker_exits_cleanly_on_parent_eof(self):
        config = ScheduleConfig(
            machine="amd", hosts=2, requests=4, policy="first-fit"
        )
        client = ProcessShardClient(0, config, timeout_s=20.0)
        assert "summary" in client.request({"op": "summary"})
        client._connection.close()
        client._process.join(timeout=10.0)
        # EOF is a clean shutdown, not a traceback: exit code 0.
        assert client._process.exitcode == 0
        client.close()

    @pytest.mark.slow
    def test_process_close_releases_pipe_after_kill(self):
        config = ScheduleConfig(
            machine="amd", hosts=2, requests=4, policy="first-fit"
        )
        client = ProcessShardClient(0, config, timeout_s=20.0)
        client.kill()
        assert client._connection.closed
        assert not client._process.is_alive()
        client.close()  # idempotent after kill


class TestSupervisor:
    def test_health_transitions(self):
        supervisor = ShardSupervisor(2)
        assert supervisor.health == [HEALTH_UP, HEALTH_UP]
        supervisor.mark_suspect(0)
        assert supervisor.health[0] == HEALTH_SUSPECT
        supervisor.mark_down(0, round_index=3)
        assert supervisor.down_shards() == frozenset({0})
        supervisor.mark_recovering(0)
        supervisor.mark_up(0)
        assert supervisor.health[0] == HEALTH_UP
        assert supervisor.down_shards() == frozenset()

    def test_suspect_does_not_mask_down(self):
        supervisor = ShardSupervisor(1)
        supervisor.mark_down(0, round_index=0)
        supervisor.mark_suspect(0)
        assert supervisor.health[0] == HEALTH_DOWN

    def test_deferred_recovery_schedule(self):
        supervisor = ShardSupervisor(1, recovery_rounds=2)
        supervisor.mark_down(0, round_index=5)
        assert not supervisor.due_for_recovery(0, 6)
        assert supervisor.due_for_recovery(0, 7)

    def test_backoff_is_seeded_and_exponential(self):
        a = ShardSupervisor(1, backoff_base_s=0.1, seed=4)
        b = ShardSupervisor(1, backoff_base_s=0.1, seed=4)
        seq_a = [a.backoff_seconds(attempt) for attempt in (1, 2, 3)]
        seq_b = [b.backoff_seconds(attempt) for attempt in (1, 2, 3)]
        assert seq_a == seq_b  # same seed, same jitter stream
        for attempt, sleep in enumerate(seq_a, start=1):
            base = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * base <= sleep < 1.5 * base

    def test_journal_rollback_only_newest(self):
        journal = ShardJournal()
        first = journal.append({"op": "arrive", "events": []})
        newest = journal.append({"op": "depart", "events": []})
        with pytest.raises(ValueError):
            journal.rollback(first)
        journal.rollback(newest)
        journal.append({"op": "arrive", "events": []})
        # Sequence numbers are never reused, even across rollback.
        assert journal.next_seq == 3
        assert [entry.seq for entry in journal] == [0, 2]


class TestNoFaultEquivalence:
    """The acceptance gate: fault machinery off changes nothing."""

    def test_unsupervised_wire_carries_no_seq(self):
        report, sent = _record_messages(_fast_config())
        assert sent  # the run really went through the recorder
        assert all('"seq"' not in message for message in sent)
        assert report.service.supervised is False

    def test_supervised_wire_is_identical_modulo_seq(self):
        plain_report, plain_sent = _record_messages(_fast_config())
        sup_report, sup_sent = _record_messages(
            _fast_config(supervised=True)
        )
        stripped = []
        for raw in sup_sent:
            message = json.loads(raw)
            message.pop("seq", None)
            stripped.append(json.dumps(message, sort_keys=True))
        assert stripped == plain_sent
        assert _report_signature(sup_report) == _report_signature(
            plain_report
        )

    def test_empty_fault_plan_matches_fault_free(self):
        plain, _ = _serve(_fast_config())
        injected, stats = _serve(
            _fast_config(), faults=FaultPlan(actions=[])
        )
        assert _report_signature(injected) == _report_signature(plain)
        assert stats.crashes == 0
        assert stats.journal_replays == 0


class TestCrashRecovery:
    @pytest.mark.parametrize("overlap", [True, False])
    @pytest.mark.parametrize("kind", ["crash", "drop", "wedge", "delay"])
    def test_single_fault_converges_to_fault_free(self, kind, overlap):
        plain, _ = _serve(_fast_config())
        plan = FaultPlan(
            actions=[
                FaultAction(
                    0, 2, kind, delay_ms=1.0 if kind == "delay" else 0.0
                )
            ]
        )
        report, stats = _serve(
            _fast_config(), faults=plan, service_class=dispatch_service(overlap)
        )
        assert _report_signature(report) == _report_signature(plain)
        if kind == "crash":
            assert stats.crashes == 1
            assert stats.journal_replays == 1
        if kind == "drop":
            # Applied, reply lost: recovered by a same-seq backoff retry
            # answered from the worker's dedup cache — no replay needed.
            assert stats.timeouts == 1
            assert stats.backoff_retries == 1
            assert stats.journal_replays == 0
        if kind == "wedge":
            assert stats.timeouts >= 1
            assert stats.journal_replays == 1
        if kind == "delay":
            assert stats.timeouts == 0
            assert stats.crashes == 0

    @pytest.mark.parametrize("overlap", [True, False])
    def test_crash_at_every_message_index_sweep(self, overlap):
        """The property sweep: crashing either shard at *any* point in
        the stream — including while several sends are in flight in one
        dispatch, and under the sequential oracle — loses nothing,
        duplicates nothing, and converges to the fault-free merged
        report."""
        config = _fast_config(requests=24, seed=7, supervised=True)
        service_class = dispatch_service(overlap)
        plain, plain_stats, message_counts, carrying = _fault_free_probe(
            config, service_class
        )
        signature = _report_signature(plain)
        assert all(count > 0 for count in message_counts)
        assert all(carrying)  # the sweep does crash loaded messages
        arrivals = len(plain.decisions)
        for shard, count in enumerate(message_counts):
            for index in range(count):
                with service_class(
                    config, faults=FaultPlan.crash_at(shard, index)
                ) as service:
                    report = service.serve()
                    stats = service.stats
                    if index in carrying[shard]:
                        # Journal replay of the merged message: applied
                        # once on the respawned shard, counted once.
                        _assert_departed_exactly_once(
                            service, report, plain_stats
                        )
                        assert (
                            stats.departure_batches
                            == plain_stats.departure_batches
                        )
                ids = [
                    d.decision.request.request_id for d in report.decisions
                ]
                assert len(ids) == arrivals  # nothing lost
                assert len(set(ids)) == arrivals  # nothing duplicated
                assert _report_signature(report) == signature, (
                    f"crash at shard {shard} message {index} diverged"
                )
                assert stats.crashes == 1
                assert stats.journal_replays >= 1

    @pytest.mark.parametrize("recovery_rounds", [0, 2])
    @pytest.mark.parametrize("workers", ["inline", "process"])
    @pytest.mark.parametrize("overlap", [True, False])
    def test_crashed_message_delivers_its_departures_once(
        self, overlap, workers, recovery_rounds
    ):
        """Crash each message that carries departures, on both
        transports: with recovery immediate the journal replays it; with
        recovery deferred the entry is rolled back, the staged pairs go
        back to the front of the outbox once and ride again after the
        respawn.  Either way every pair is applied exactly once."""
        config = _fast_config(
            requests=24,
            seed=7,
            supervised=True,
            workers=workers,
            recovery_rounds=recovery_rounds,
            request_timeout_s=20.0 if workers == "process" else None,
        )
        assert_crashes_deliver_departures_once(
            config, dispatch_service(overlap)
        )

    def test_dropped_reply_retry_does_not_release_twice(self):
        """Drop the reply to either shard's message at *any* index, as
        the crash sweep crashes them: the message was applied and its
        reply lost, so the same-``seq`` retry is answered from
        ``_last_response`` — the departures it carries are not applied
        again, and the records the reply carries are folded exactly once
        (~4 s)."""
        config = _fast_config(requests=24, seed=7, supervised=True)
        plain, plain_stats, message_counts, carrying = _fault_free_probe(
            config
        )
        signature = _report_signature(plain)
        assert all(carrying)  # the sweep does drop loaded replies
        for shard, count in enumerate(message_counts):
            for index in range(count):
                plan = FaultPlan(actions=[FaultAction(shard, index, "drop")])
                with SchedulerService(config, faults=plan) as service:
                    report = service.serve()
                    _assert_departed_exactly_once(
                        service, report, plain_stats
                    )
                    assert service.stats.backoff_retries == 1
                    assert service.stats.journal_replays == 0
                assert _report_signature(report) == signature, (
                    f"dropped reply at shard {shard} message {index} diverged"
                )

    def test_kill_each_shard_once_on_reference_churn_stream(self):
        """The acceptance gate on the ML reference stream: the seeded
        kill-each-shard-once plan completes with zero lost/duplicated
        placements and a merged report equal to the fault-free run."""
        config = ScheduleConfig(
            **CHURN_REFERENCE, shards=2, window=4, backoff_base_s=0.0
        )
        plain, plain_stats = _serve(config)
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        report, stats = _serve(config, faults=plan)
        ids = [d.decision.request.request_id for d in report.decisions]
        assert len(ids) == len(set(ids)) == len(plain.decisions)
        assert _report_signature(report) == _report_signature(plain)
        assert stats.crashes == 2
        assert stats.journal_replays == 2
        assert stats.departures_routed == plain_stats.departures_routed

    @pytest.mark.slow
    def test_kill_each_shard_once_process_transport(self):
        config = _fast_config(workers="process", request_timeout_s=20.0)
        plain, _ = _serve(config)
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        report, stats = _serve(config, faults=plan)
        assert _report_signature(report) == _report_signature(plain)
        assert stats.crashes == 2

    @pytest.mark.parametrize("workers", ["inline", "process"])
    def test_respawn_replays_without_training(
        self, workers, empty_artifact_store
    ):
        """Recovery time must not depend on training time: the front end
        trains every key once, before any worker exists, and a respawned
        shard — in-process or forked — replays its journal on the models
        it finds in the artifact store."""
        if workers == "process" and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the store only when forked")
        # Shared memory, so calls made inside forked workers count too.
        fits = multiprocessing.Value("i", 0)
        enumerations = multiprocessing.Value("i", 0)

        def counted(counter, function):
            def wrapper(*args, **kwargs):
                with counter.get_lock():
                    counter.value += 1
                return function(*args, **kwargs)

            return wrapper

        config = ScheduleConfig(
            **CHURN_REFERENCE,
            shards=2,
            window=4,
            backoff_base_s=0.0,
            workers=workers,
            request_timeout_s=20.0,
        )
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        with mock.patch.object(
            PlacementModel, "fit", counted(fits, PlacementModel.fit)
        ), mock.patch.object(
            memo,
            "enumerate_important_placements",
            counted(enumerations, memo.enumerate_important_placements),
        ):
            with SchedulerService(config, faults=plan) as service:
                # Two vCPU classes on one shape, trained by the front end.
                assert (fits.value, enumerations.value) == (2, 2)
                report = service.serve()
                stats = service.stats
                shard_reports = [
                    client.request({"op": "report"})["report"]
                    for client in service.clients
                ]
        assert stats.crashes == 2
        assert stats.journal_replays == 2
        assert (fits.value, enumerations.value) == (2, 2)
        assert [r["enumeration_runs"] for r in shard_reports] == [0, 0]
        assert report.enumeration_runs == 2
        plain, _ = _serve(config)
        assert _report_signature(report) == _report_signature(plain)

    def test_health_returns_to_up_after_recovery(self):
        config = _fast_config()
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        with SchedulerService(config, faults=plan) as service:
            service.serve()
            assert service.supervisor.health == [HEALTH_UP, HEALTH_UP]
            assert all(
                len(schedule.fired) == 1
                for schedule in service._fault_schedules
            )


class TestGracefulDegradation:
    def test_deferred_recovery_fails_over_to_survivors(self):
        config = _fast_config(recovery_rounds=2)
        plain, plain_stats = _serve(config)
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        report, stats = _serve(config, faults=plan)
        ids = [d.decision.request.request_id for d in report.decisions]
        # Exactly-once placement holds even though the routing changed.
        assert len(ids) == len(set(ids)) == len(plain.decisions)
        assert stats.failovers > 0
        assert stats.degraded_windows > 0
        assert stats.crashes == 2
        # Departures queued while the owner was down ride after the
        # respawn: none are dropped.
        assert stats.departures_routed == plain_stats.departures_routed

    def test_storm_plan_completes_exactly_once(self):
        config = _fast_config(recovery_rounds=1, requests=60)
        plan = storm(2, seed=9, n_faults=6, span=24)
        report, stats = _serve(config, faults=plan)
        ids = [d.decision.request.request_id for d in report.decisions]
        assert len(ids) == len(set(ids))
        assert report.placed + report.rejected == len(ids)
        assert stats.crashes + stats.timeouts > 0
