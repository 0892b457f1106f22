"""Tests for the sharded scheduler service: single-shard bit-identity
with the monolithic engines, and the optimistic conflict-retry
property (every request placed or rejected exactly once)."""

import random
from dataclasses import replace

import pytest

from repro.perfsim import workload_by_name
from repro.scheduler import (
    FleetScheduler,
    LifecycleScheduler,
    PlacementRequest,
    RebalanceConfig,
    ScheduleConfig,
    SchedulerService,
    ShardSummary,
    ShardWorker,
    generate_request_stream,
)
from repro.scheduler.wire import encode_arrival

#: The churn reference stream: small enough to run the ML policy end to
#: end in a test, busy enough to exercise departures, fragmentation
#: rejects, and the rebalancer (heavy-tailed lifetimes, one 32-vCPU size
#: mixed into the 8s).
CHURN_REFERENCE = dict(
    machine="amd",
    hosts=4,
    requests=60,
    seed=11,
    churn=True,
    arrival_rate=1.0,
    mean_lifetime=25.0,
    heavy_tail=True,
    vcpus=(8, 8, 8, 32),
)


def _request(request_id, *, vcpus, arrival=0.0, lifetime=None, workload="gcc"):
    return PlacementRequest(
        request_id=request_id,
        profile=workload_by_name(workload),
        vcpus=vcpus,
        arrival_time=arrival,
        lifetime=lifetime,
    )


def _fingerprints(decisions):
    """Everything semantically observable about a graded decision except
    wall-clock timing — the bit-for-bit equivalence contract."""
    out = []
    for graded in decisions:
        d = graded.decision
        out.append(
            (
                d.request.request_id,
                d.host_id,
                None
                if d.placement is None
                else (tuple(d.placement.nodes), d.placement.l2_share),
                d.placement_id,
                d.block_exact,
                d.reject_reason,
                graded.achieved_relative,
                graded.violated,
            )
        )
    return out


def _monolithic_churn_report(config):
    fleet = config.build_fleet()
    registry = config.build_registry()
    policy = config.build_policy(registry)
    engine = LifecycleScheduler(
        fleet,
        policy,
        registry=registry,
        config=RebalanceConfig(
            enabled=config.rebalance_enabled,
            reject_penalty_seconds=config.penalty_seconds,
        ),
    )
    return engine.run(config.build_stream())


class TestSingleShardEquivalence:
    def test_churn_stream_bit_identical_to_lifecycle_engine(self):
        """One shard, window 1: the service is the monolithic lifecycle
        engine behind the wire protocol — decisions, fragmentation
        timeline, and churn counters must match bit for bit."""
        config = ScheduleConfig(**CHURN_REFERENCE, shards=1, window=1)
        mono = _monolithic_churn_report(config)
        with SchedulerService(config) as service:
            svc = service.serve()

        assert _fingerprints(svc.decisions) == _fingerprints(mono.decisions)
        assert [s.to_dict() for s in svc.churn.fragmentation_timeline] == [
            s.to_dict() for s in mono.churn.fragmentation_timeline
        ]
        assert svc.churn.arrivals == mono.churn.arrivals
        assert svc.churn.departures == mono.churn.departures
        assert [m.to_dict() for m in svc.churn.migrations] == [
            m.to_dict() for m in mono.churn.migrations
        ]
        assert svc.service is not None
        assert svc.service.retries == 0  # one shard: nothing to retry on

    def test_windowing_does_not_change_decisions_without_departures(self):
        """step_batch decides a window's arrivals in arrival order against
        the same fleet state, so on a departure-free, reject-free stream
        a single shard's decisions are window-size independent.  (With
        departures, windows deliberately trade intra-window time order
        for batching: a departure inside the buffer waits for the
        flush.)"""
        base = dict(CHURN_REFERENCE, hosts=64)  # roomy: no rejects
        stream = [
            replace(request, lifetime=None)  # immortal: no departures
            for request in ScheduleConfig(**base).build_stream()
        ]
        with SchedulerService(
            ScheduleConfig(**base, shards=1, window=1)
        ) as service:
            one = service.serve(stream)
        with SchedulerService(
            ScheduleConfig(**base, shards=1, window=8)
        ) as service:
            eight = service.serve(stream)
        assert one.churn.departures == 0
        assert one.rejected == 0
        assert _fingerprints(one.decisions) == _fingerprints(eight.decisions)

    def test_one_shot_bit_identical_to_fleet_scheduler(self):
        """Service.run (op=decide) against the one-shot FleetScheduler on
        a mixed fleet: same batches, same decisions."""
        config = ScheduleConfig(
            machine="mixed",
            hosts=6,
            requests=120,
            seed=3,
            vcpus=(4, 8, 16, 10),
            batch_size=32,
        )
        requests = generate_request_stream(
            config.requests, seed=config.seed, vcpus_choices=config.vcpus
        )
        registry = config.build_registry()
        scheduler = FleetScheduler(
            config.build_fleet(),
            config.build_policy(registry),
            registry=registry,
            batch_size=config.effective_batch_size,
        )
        mono = scheduler.run(requests)
        with SchedulerService(config) as service:
            svc = service.run(requests)
        assert _fingerprints(svc.decisions) == _fingerprints(mono.decisions)
        assert svc.placed == mono.placed
        assert svc.rejected == mono.rejected


class TestConflictRetry:
    def test_request_placed_or_rejected_exactly_once(self):
        """The service-level invariant: every arrival shows up in the
        merged report exactly once, placed or rejected, however many
        shards looked at it along the way."""
        config = ScheduleConfig(
            machine="amd",
            hosts=6,
            requests=120,
            seed=7,
            churn=True,
            arrival_rate=2.0,
            mean_lifetime=20.0,
            heavy_tail=True,
            vcpus=(8, 16, 32, 64),
            shards=3,
            window=4,
        )
        with SchedulerService(config) as service:
            report = service.serve()
        stats = report.service

        ids = sorted(g.decision.request.request_id for g in report.decisions)
        assert ids == sorted(set(ids))  # never double-placed / double-rejected
        assert len(ids) == stats.routed == report.churn.arrivals
        assert report.placed + report.rejected == stats.routed
        assert sum(stats.shard_requests) == stats.routed
        assert sum(stats.shard_placed) == report.placed
        assert stats.exhausted == report.rejected
        assert stats.recovered_by_retry <= stats.retries

    def test_exhausting_every_shard_rejects_once_with_capacity(self):
        """Three whole-host containers on a two-host, two-shard fleet:
        the third is tried on both shards (retries), rejected exactly
        once, and the merged reason is the fleet-wide truth: capacity."""
        config = ScheduleConfig(
            machine="amd",
            hosts=2,
            requests=3,
            policy="first-fit",
            shards=2,
            window=3,
            churn=True,
        )
        requests = [
            _request(i, vcpus=64, arrival=float(i)) for i in range(1, 4)
        ]
        with SchedulerService(config) as service:
            report = service.serve(requests)
        assert report.placed == 2
        assert report.rejected == 1
        assert report.service.retries >= 1
        assert report.service.exhausted == 1
        rejected = [g for g in report.decisions if not g.decision.placed]
        assert len(rejected) == 1
        assert rejected[0].decision.reject_reason == "capacity"

    def test_stale_summary_recovered_by_retry(self):
        """Force the router onto a full shard by resetting its summary
        cache to the all-free initial state: the shard's reject must be
        recovered on the next-best shard, not surfaced to the caller."""
        config = ScheduleConfig(
            machine="amd",
            hosts=2,
            requests=2,
            policy="first-fit",
            shards=2,
            window=1,
            churn=True,
        )
        with SchedulerService(config) as service:
            [first] = service._place_window(
                [(_request(1, vcpus=64), 0.0)], "arrive"
            )
            assert first.decision.placed
            full_shard = service._owner[1]
            # Undo everything the router learned: both shards look empty.
            service.summaries = [
                ShardSummary.initial(shard, service._shard_machines[shard])
                for shard in range(config.shards)
            ]
            [second] = service._place_window(
                [(_request(2, vcpus=64), 1.0)], "arrive"
            )
        assert second.decision.placed
        assert service._owner[2] != full_shard
        assert service.stats.retries == 1
        assert service.stats.recovered_by_retry == 1
        assert service.stats.exhausted == 0

    def test_departure_routed_to_owning_shard(self):
        """A placed container's departure frees its nodes on the shard
        that owns it, so a follow-up whole-host request fits again."""
        config = ScheduleConfig(
            machine="amd",
            hosts=2,
            requests=3,
            policy="first-fit",
            shards=2,
            window=1,
            churn=True,
        )
        requests = [
            _request(1, vcpus=64, arrival=0.0, lifetime=5.0),
            _request(2, vcpus=64, arrival=1.0),
            _request(3, vcpus=64, arrival=10.0),  # after #1 departs
        ]
        with SchedulerService(config) as service:
            report = service.serve(requests)
        assert report.placed == 3
        assert report.churn.departures == 1
        assert report.service.departures_routed == 1


def _shard_state(worker, response):
    """Everything a message can change on a shard, minus wall-clock
    fields: the reply's graded rows and summary row, the engine's live
    set and churn statistics, the one-shot ledger, and every host's
    occupancy.  Also runs the index's from-scratch cross-check."""
    worker.fleet.index.assert_consistent(worker.fleet.hosts)
    return (
        [row[:-1] for row in response["graded"]],  # drop decision_seconds
        response["summary"],
        sorted(worker.engine._active),
        worker.engine.stats.to_dict(),
        _fingerprints(worker.engine.graded + worker._one_shot_graded),
        [
            (host.free_mask, sorted(host.placements))
            for host in worker.fleet.hosts
        ],
    )


class TestDeparturesRideTheWindow:
    """``handle(window + departures)`` is ``handle(depart)`` followed by
    ``handle(window)``: the front end folded two messages into one, the
    shard must not be able to tell."""

    CONFIG = dict(
        machine="mixed", hosts=4, policy="first-fit", churn=True, shards=1
    )

    def _pair(self, **overrides):
        config = ScheduleConfig(**dict(self.CONFIG, **overrides))
        return ShardWorker(0, config), ShardWorker(0, config)

    @staticmethod
    def _window(op, rows, departures=None, seq=None):
        key = "requests" if op == "decide" else "events"
        message = {"op": op, key: rows}
        if departures is not None:
            message["departures"] = departures
        if seq is not None:
            message["seq"] = seq
        return message

    def _assert_equivalent(self, op, merged, split, departures, rows):
        one = merged.handle(self._window(op, rows, departures))
        split.handle({"op": "depart", "events": departures})
        two = split.handle(self._window(op, rows))
        assert _shard_state(merged, one) == _shard_state(split, two)
        return one

    @pytest.mark.parametrize("op", ["arrive", "decide"])
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_streams_equal_depart_then_window(self, op, seed):
        """Random live ids, ids never seen, ids already released and
        duplicates inside one batch, round after round on one shard."""
        rng = random.Random(seed)
        merged, split = self._pair()
        stream = generate_request_stream(
            48, seed=seed, vcpus_choices=(8, 16, 32, 64)
        )
        seen = []
        for begin in range(0, len(stream), 6):
            pool = seen + [10_000 + begin, 10_001 + begin]  # never placed
            departures = [
                [rng.choice(pool), float(begin)]
                for _ in range(rng.randrange(0, 5))
            ]
            rows = [
                encode_arrival(request, float(begin))
                for request in stream[begin : begin + 6]
            ]
            self._assert_equivalent(op, merged, split, departures, rows)
            seen.extend(request.request_id for request in stream[begin : begin + 6])
        assert merged.engine.stats.departures == split.engine.stats.departures
        if op == "arrive":
            assert merged.engine.stats.departures > 0

    @pytest.mark.parametrize("op", ["arrive", "decide"])
    def test_empty_batch_on_an_empty_fleet_and_unknown_ids(self, op):
        merged, split = self._pair()
        rows = [encode_arrival(_request(1, vcpus=8), 0.0)]
        # An empty batch is a no-op either way; the service never sends
        # the key empty, a hand-built message may.
        absent = merged.handle(self._window(op, rows))
        empty = split.handle(self._window(op, rows, departures=[]))
        assert _shard_state(merged, absent) == _shard_state(split, empty)
        # Nothing placed yet under these ids: releases of unknown ids.
        rows = [encode_arrival(_request(2, vcpus=8), 1.0)]
        self._assert_equivalent(op, merged, split, [[7, 1.0], [8, 1.0]], rows)

    def test_departure_frees_the_block_the_window_then_takes(self):
        """Order inside the message: the releases come first, so an
        arrival in the same message can take what they freed."""
        merged, split = self._pair(machine="amd", hosts=1)
        fill = self._window("arrive", [encode_arrival(_request(1, vcpus=64), 0.0)])
        for worker in (merged, split):
            [row] = worker.handle(fill)["graded"]
            assert row[1] is not None  # placed: the host is now full
        rows = [encode_arrival(_request(2, vcpus=64), 5.0)]
        response = self._assert_equivalent(
            "arrive", merged, split, [[1, 5.0]], rows
        )
        [row] = response["graded"]
        assert row[1] is not None and row[6] is None  # placed, no reject
        assert sorted(merged.engine._active) == [2]

    def test_retried_window_releases_its_departures_once(self):
        """The dedupe check comes before the departures are applied: a
        same-``seq`` retry is answered from the cache, an older ``seq``
        is acknowledged, and neither releases or samples anything."""
        [worker, _] = self._pair(machine="amd", hosts=1)
        worker.handle(
            self._window("arrive", [encode_arrival(_request(1, vcpus=64), 0.0)], seq=0)
        )
        message = self._window(
            "arrive",
            [encode_arrival(_request(2, vcpus=64), 5.0)],
            departures=[[1, 5.0]],
            seq=1,
        )
        first = worker.handle(message)
        samples = len(worker.engine.stats.fragmentation_timeline)
        assert worker.handle(message) is first
        assert worker.handle(dict(message, seq=0))["deduped"] is True
        assert worker.engine.stats.departures == 1
        assert worker.engine.stats.arrivals == 2
        assert len(worker.engine.stats.fragmentation_timeline) == samples
        assert sorted(worker.engine._active) == [2]


class TestOwnerTable:
    def test_owner_table_holds_live_containers_only(self):
        """Every arrival gets an owner entry and its departure takes it
        away again, so a long-running service does not grow with the
        requests it has ever served."""
        config = ScheduleConfig(**CHURN_REFERENCE, shards=2, window=4)
        stream = config.build_stream()
        assert all(request.lifetime is not None for request in stream)
        with SchedulerService(config) as service:
            first = service.serve(stream)
            assert first.placed > 0
            assert service._owner == {}
            assert all(not outbox for outbox in service._outbox)
            again = [
                replace(request, request_id=1_000 + request.request_id)
                for request in stream
            ]
            second = service.serve(again)
            assert len(second.decisions) == 2 * len(stream)
            assert service._owner == {}

    def test_immortal_containers_keep_their_owner(self):
        config = ScheduleConfig(
            machine="amd", hosts=2, policy="first-fit", shards=2, churn=True
        )
        requests = [
            _request(1, vcpus=8, arrival=0.0, lifetime=2.0),
            _request(2, vcpus=8, arrival=1.0),  # never departs
        ]
        with SchedulerService(config) as service:
            service.serve(requests)
            assert sorted(service._owner) == [2]


class TestServiceSurface:
    def test_online_learning_is_rejected(self):
        config = ScheduleConfig(
            churn=True, online_learning=True, shards=2, hosts=8
        )
        with pytest.raises(ValueError, match="online learning"):
            SchedulerService(config)

    def test_max_events_bounds_ingestion(self):
        config = ScheduleConfig(**CHURN_REFERENCE, shards=2, window=4)
        with SchedulerService(config) as service:
            report = service.serve(max_events=20)
        # 20 lifecycle events is at most 20 arrivals, and a departure
        # whose arrival was cut off is dropped, not mis-routed.
        assert 0 < report.n_requests <= 20
        assert len(report.decisions) == report.n_requests

    def test_merged_report_utilization_matches_summaries(self):
        config = ScheduleConfig(**CHURN_REFERENCE, shards=2, window=4)
        with SchedulerService(config) as service:
            report = service.serve()
            used = sum(s.used_threads for s in service.summaries)
            total = sum(s.total_threads for s in service.summaries)
        assert report.thread_utilization == pytest.approx(used / total)
        assert report.service.n_shards == 2


@pytest.mark.slow
class TestProcessTransport:
    def test_process_workers_match_inline_decisions(self):
        """A process-mode worker rebuilds its world from the serialized
        config, so the wire protocol over a real pipe must yield the
        same decisions as the in-process transport."""
        base = dict(CHURN_REFERENCE, requests=30, shards=2, window=4)
        with SchedulerService(
            ScheduleConfig(**base, workers="inline")
        ) as service:
            inline = service.serve()
        with SchedulerService(
            ScheduleConfig(**base, workers="process")
        ) as service:
            process = service.serve()
        assert _fingerprints(process.decisions) == _fingerprints(
            inline.decisions
        )
        assert process.service.transport == "process"
