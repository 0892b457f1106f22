"""Round-trip tests for the wire surface.

Two formats cross process boundaries.  Shard messages are row-coded
(:mod:`repro.scheduler.wire`): arrivals in, graded rows out, churn
statistics in the ``report`` reply, the shard summary on every reply —
each must decode to an equal object after a JSON round trip *and* after
a pickle round trip, because the inline transport hands rows over
untouched, the process transport pickles them, and journals and traces
may store them as JSON.  Reports (``--emit-json``) use ``to_dict`` ->
``json`` -> ``from_dict``.  The tests push real objects (produced by
real scheduler runs, not hand-built minimal ones) through an actual
round trip.
"""

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memo import CacheInfo
from repro.core.serialize import machines_by_name
from repro.scheduler import (
    AdmissionDecision,
    AdmissionStats,
    CapacityVector,
    ChurnStats,
    FaultAction,
    FaultPlan,
    FleetScheduler,
    FragmentationSample,
    GradedDecision,
    JournalEntry,
    LifecycleScheduler,
    MigrationRecord,
    PlacementRequest,
    RebalanceConfig,
    ScheduleConfig,
    ServiceStats,
    ShardJournal,
    ShardSummary,
    ShardWorker,
    generate_churn_stream,
    generate_request_stream,
    initial_capacity,
)
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.workload import PROFILE_FIELDS, WorkloadProfile
from repro.scheduler.admission import (
    REASON_BROWNOUT,
    REASON_CAPACITY,
    REASON_DEADLINE,
    REASON_EVICTED,
    REASON_EXPIRED,
    REASON_INFEASIBLE,
    REASON_QUEUE_FULL,
)
from repro.scheduler.policies import FleetDecision
from repro.scheduler.scheduler import FleetReport
from repro.scheduler.service import SchedulerService, merge_churn_stats
from repro.scheduler.wire import (
    TIMELINE_COLUMNS,
    PlacementMemo,
    ProfileMemo,
    ShardError,
    decode_arrival,
    decode_churn,
    decode_graded,
    decode_summary,
    encode_arrival,
    encode_churn,
    encode_graded,
    encode_summary,
    profile_row,
)
from repro.serving.online import OnlineStats


def wire(payload):
    """One actual JSON round trip — what the transports do."""
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def churn_report():
    """A real lifecycle run with departures, rejects, and migrations —
    the richest report the wire has to carry."""
    config = ScheduleConfig(
        machine="amd",
        hosts=3,
        requests=50,
        seed=5,
        churn=True,
        mean_lifetime=20.0,
        heavy_tail=True,
        vcpus=(8, 16, 32),
    )
    registry = config.build_registry()
    engine = LifecycleScheduler(
        config.build_fleet(),
        config.build_policy(registry),
        registry=registry,
        config=RebalanceConfig(enabled=True),
    )
    return engine.run(config.build_stream())


@pytest.fixture(scope="module")
def machines():
    return machines_by_name(ScheduleConfig(machine="mixed", hosts=2).machine_list())


def pickled(payload):
    """What the process transport does to a message."""
    return pickle.loads(pickle.dumps(payload))


_fraction = st.floats(0.0, 1.0)
_positive = st.floats(1e-9, 1e9)
_demand = st.floats(0.0, 1e9)


@st.composite
def _hand_built_profiles(draw):
    n_tasks = draw(st.integers(1, 10_000))
    return WorkloadProfile(
        name=draw(st.text(min_size=1)),  # quotes, pipes, emoji, controls
        ipc_base=draw(_positive),
        working_set_mb=draw(_positive),
        shared_fraction=draw(_fraction),
        cache_sensitivity=draw(_fraction),
        membw_per_vcpu=draw(_demand),
        numa_locality=draw(_fraction),
        comm_intensity=draw(_fraction),
        comm_latency_sensitivity=draw(_fraction),
        comm_bytes_per_vcpu=draw(_demand),
        smt_affinity=draw(st.floats(-1.0, 1.0)),
        phase_noise=draw(_demand),
        memory_gb=draw(_positive),
        page_cache_fraction=draw(_fraction),
        n_tasks=n_tasks,
        n_processes=draw(st.integers(1, n_tasks)),
        metric_name=draw(st.text()),
    )


#: Jittered one-off profiles exactly as a ``--jitter`` stream mints them.
_jittered_profiles = st.builds(
    lambda seed, jitter: WorkloadGenerator(
        seed=seed, jitter=jitter, namespace="wire"
    ).sample_one(),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 0.6),
)

_requests = st.builds(
    PlacementRequest,
    request_id=st.integers(0, 2**53),
    profile=st.one_of(_hand_built_profiles(), _jittered_profiles),
    vcpus=st.integers(1, 256),
    goal_fraction=st.one_of(st.none(), st.floats(1e-6, 4.0)),
    arrival_time=st.floats(0.0, 1e9),
    lifetime=st.one_of(st.none(), st.floats(1e-6, 1e9)),
)

REJECT_REASONS = (
    "capacity",
    "infeasible",
    REASON_INFEASIBLE,
    REASON_CAPACITY,
    REASON_QUEUE_FULL,
    REASON_EVICTED,
    REASON_DEADLINE,
    REASON_EXPIRED,
    REASON_BROWNOUT,
)


def _graded_fields(entry):
    """Every field of a graded decision and of the decision inside it,
    by declaration — what a row must carry, except the request."""
    decision = {
        f.name: getattr(entry.decision, f.name)
        for f in dataclasses.fields(entry.decision)
    }
    graded = {
        f.name: getattr(entry, f.name)
        for f in dataclasses.fields(entry)
        if f.name != "decision"
    }
    return decision, graded


class TestRowCodec:
    @settings(max_examples=150, deadline=None)
    @given(request=_requests, event_time=st.floats(0.0, 1e9))
    def test_arrival_rows_survive_json_and_pickle(self, request, event_time):
        row = encode_arrival(request, event_time)
        for carried in (row, wire(row), pickled(row)):
            assert decode_arrival(carried, ProfileMemo()) == (
                request,
                event_time,
            )
        assert pickled(row) == row  # tuples all the way down: hashable
        assert hash(row) == hash(pickled(row))

    def test_profile_row_covers_exactly_the_declared_fields(self):
        declared = tuple(f.name for f in dataclasses.fields(WorkloadProfile))
        assert PROFILE_FIELDS == declared
        profile = WorkloadGenerator(seed=4, jitter=0.3).sample_one()
        row = profile_row(profile)
        assert row == tuple(getattr(profile, name) for name in declared)
        assert WorkloadProfile(*row) == profile

    def test_arrival_row_covers_every_request_field(self):
        request = generate_churn_stream(3, seed=8, vcpus_choices=(8,))[-1]
        rebuilt, _ = decode_arrival(
            encode_arrival(request, 2.5), ProfileMemo()
        )
        for f in dataclasses.fields(PlacementRequest):
            assert getattr(rebuilt, f.name) == getattr(request, f.name)

    def test_profile_memo_validates_once_and_stays_bounded(self):
        memo = ProfileMemo(bound=8)
        generator = WorkloadGenerator(seed=1, jitter=0.4, namespace="memo")
        for _ in range(8 * 3 + 5):
            row = profile_row(generator.sample_one())
            first = memo(row)
            assert memo(list(row)) is first  # JSON form hits the same entry
            assert 0 < len(memo) <= memo.bound
        with pytest.raises(ValueError, match="ipc_base"):
            memo(("bad", -1.0) + row[2:])  # validation still runs on a miss

    @settings(max_examples=60, deadline=None)
    @given(
        request=_requests,
        pick=st.integers(0, 10_000),
        reason=st.sampled_from(REJECT_REASONS),
        seconds=st.floats(0.0, 10.0),
    )
    def test_graded_rows_survive_json_and_pickle(
        self, churn_report, request, pick, reason, seconds
    ):
        amd = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        placed = [g for g in churn_report.decisions if g.decision.placed]
        model = placed[pick % len(placed)]
        entries = [
            # A placement as the ML policy made it, re-attached to a
            # request the shard never echoes back.
            GradedDecision(
                dataclasses.replace(model.decision, request=request),
                model.achieved_relative,
                model.violated,
                seconds,
            ),
            # A shard-side or admission reject: no host, no placement.
            GradedDecision(
                FleetDecision(request, reject_reason=reason),
                decision_seconds=seconds,
            ),
        ]
        for entry in entries:
            row = encode_graded(entry)
            assert row[0] == request.request_id
            for carried in (row, wire(row), pickled(row)):
                rebuilt = decode_graded(carried, request, amd)
                assert rebuilt.decision.request is request
                assert _graded_fields(rebuilt) == _graded_fields(entry)

    def test_placement_memo_interns_rows_per_machine(self, churn_report):
        """Decoded replies share one validated ``Placement`` per distinct
        row; a row whose name resolves to another machine object is
        rebuilt for it, and nothing invalid is ever remembered."""
        config = ScheduleConfig(machine="amd", hosts=1)
        amd = machines_by_name(config.machine_list())
        placed = [g for g in churn_report.decisions if g.decision.placed]
        rows = {encode_graded(g)[2] for g in placed}
        assert 1 < len(rows) < len(placed)
        memo = PlacementMemo(bound=len(rows))
        for entry in placed:
            row = encode_graded(entry)[2]
            first = memo(row, amd)
            assert first == entry.decision.placement
            assert first.machine is amd[row[0]]
            assert memo(wire(row), amd) is first  # JSON form, same entry
            assert 0 < len(memo) <= memo.bound
        assert len(memo) == len(rows)
        name, nodes, vcpus, l2_share, l3_groups = row
        other = machines_by_name(config.machine_list())
        assert other[name] is not amd[name]
        rebuilt = memo(row, other)
        assert rebuilt == first and rebuilt.machine is other[name]
        assert len(memo) == len(rows)
        unseen = next(
            candidate
            for candidate in ((name, (node,), 8, 2, 1) for node in range(8))
            if candidate not in rows
        )
        memo(unseen, amd)  # one row past the bound: starts over
        assert len(memo) == 1
        with pytest.raises(KeyError, match="unknown machine"):
            memo(("no-such-machine", nodes, vcpus, l2_share, l3_groups), amd)
        for _ in range(2):  # a miss validates, every time
            with pytest.raises(ValueError, match="unknown node"):
                memo((name, (99,), vcpus, l2_share, l3_groups), amd)
        assert len(memo) == 1

    def test_reply_for_another_request_raises_shard_error(self):
        config = ScheduleConfig(
            machine="amd", hosts=2, requests=2, policy="first-fit", shards=2
        )
        one, other = generate_request_stream(2, seed=3, vcpus_choices=(8,))
        with SchedulerService(config) as service:
            response = service.clients[0].request(
                {"op": "decide", "requests": [encode_arrival(one, 0.0)]}
            )
            [entry] = service._from_wire(0, response, [one])
            assert entry.decision.request is one
            with pytest.raises(ShardError, match="expected 2 at this position"):
                service._from_wire(0, response, [other])
            with pytest.raises(ShardError, match="grades 1 request"):
                service._from_wire(0, response, [one, other])

    def test_churn_stats_cross_as_columns(self, churn_report):
        record = MigrationRecord(
            time=9.25,
            request_id=4,
            workload="gcc",
            source_host=1,
            dest_host=3,
            engine="criu",
            seconds=12.5,
            moved_gb=1.75,
            triggered_by=9,
        )
        stats = dataclasses.replace(churn_report.churn, migrations=[record])
        payload = encode_churn(stats)
        assert len(payload["timeline"]) == len(TIMELINE_COLUMNS) == 5
        assert all(
            len(column) == len(stats.fragmentation_timeline) > 0
            for column in payload["timeline"]
        )
        for carried in (payload, wire(payload), pickled(payload)):
            assert decode_churn(carried) == stats
        assert decode_churn(wire(encode_churn(ChurnStats()))) == ChurnStats()
        # An empty timeline still crosses as five (empty) columns, and a
        # column is a list whichever way the samples were transposed.
        assert encode_churn(ChurnStats())["timeline"] == [[], [], [], [], []]
        assert all(type(column) is list for column in payload["timeline"])
        assert TIMELINE_COLUMNS == tuple(
            FragmentationSample(0.0, 1, 2, 3, 4).to_dict()
        )


def _merge_by_summing(per_shard, initial):
    """The merged timeline as first written: carry each shard's latest
    sample forward and re-sum all of them at every event."""
    latest = dict(enumerate(initial))
    tagged = sorted(
        (
            (sample.time, shard, position, sample)
            for shard, stats in enumerate(per_shard)
            for position, sample in enumerate(stats.fragmentation_timeline)
        ),
        key=lambda item: item[:3],
    )
    timeline = []
    for event_time, shard, _, sample in tagged:
        latest[shard] = sample
        timeline.append(
            FragmentationSample(
                time=event_time,
                free_nodes_total=sum(
                    s.free_nodes_total for s in latest.values()
                ),
                largest_free_block=max(
                    s.largest_free_block for s in latest.values()
                ),
                active_containers=sum(
                    s.active_containers for s in latest.values()
                ),
                fit_failures=sum(s.fit_failures for s in latest.values()),
            )
        )
    return timeline


_samples = st.builds(
    FragmentationSample,
    time=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 7.25]),  # ties across shards
    free_nodes_total=st.integers(0, 64),
    largest_free_block=st.integers(0, 8),
    active_containers=st.integers(0, 40),
    fit_failures=st.integers(0, 9),
)


class TestChurnMerge:
    @settings(max_examples=100, deadline=None)
    @given(
        timelines=st.lists(
            st.lists(_samples, max_size=12), min_size=2, max_size=4
        ),
        data=st.data(),
    )
    def test_running_totals_equal_the_resummed_timeline(self, timelines, data):
        per_shard = [
            ChurnStats(fragmentation_timeline=timeline)
            for timeline in timelines
        ]
        initial = [data.draw(_samples) for _ in timelines]
        merged = merge_churn_stats(per_shard, arrivals=7, initial=initial)
        assert merged.fragmentation_timeline == _merge_by_summing(
            per_shard, initial
        )
        assert merged.arrivals == 7

    def test_single_shard_merge_is_an_independent_copy(self, churn_report):
        stats = churn_report.churn
        merged = merge_churn_stats([stats], arrivals=99, initial=[])
        assert merged.arrivals == 99
        assert dataclasses.replace(merged, arrivals=stats.arrivals) == stats
        merged.fragmentation_timeline.clear()
        assert stats.fragmentation_timeline


class TestRequestWire:
    def test_request_stream_round_trips(self):
        stream = generate_churn_stream(
            30, seed=2, vcpus_choices=(4, 8), heavy_tail=True
        ) + generate_request_stream(10, seed=2)
        for request in stream:
            rebuilt = PlacementRequest.from_dict(wire(request.to_dict()))
            assert rebuilt == request  # frozen dataclass: field equality

    def test_goal_and_lifetime_optionals_survive(self):
        stream = generate_churn_stream(40, seed=0, vcpus_choices=(8,))
        assert any(r.goal_fraction is None for r in stream)
        assert any(r.goal_fraction is not None for r in stream)
        for request in stream:
            rebuilt = PlacementRequest.from_dict(wire(request.to_dict()))
            assert rebuilt.goal_fraction == request.goal_fraction
            assert rebuilt.lifetime == request.lifetime


class TestDecisionWire:
    def test_graded_decisions_round_trip(self, churn_report):
        machines = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        assert churn_report.rejected > 0  # exercise the reject arm too
        for graded in churn_report.decisions:
            rebuilt = GradedDecision.from_dict(
                wire(graded.to_dict()), machines
            )
            assert rebuilt.to_dict() == graded.to_dict()
            assert rebuilt.decision.placed == graded.decision.placed
            if graded.decision.placed:
                assert (
                    tuple(rebuilt.decision.placement.nodes)
                    == tuple(graded.decision.placement.nodes)
                )
                assert (
                    rebuilt.decision.placement.l2_share
                    == graded.decision.placement.l2_share
                )


class TestStatsWire:
    def test_cache_info_round_trip_and_merge(self):
        a = CacheInfo(hits=3, misses=2, currsize=2)
        b = CacheInfo(hits=10, misses=0, currsize=4)
        assert CacheInfo.from_dict(wire(a.to_dict())) == a
        assert a + b == CacheInfo(hits=13, misses=2, currsize=6)

    def test_churn_stats_round_trip(self, churn_report):
        stats = churn_report.churn
        assert stats.fragmentation_timeline  # non-trivial payload
        rebuilt = ChurnStats.from_dict(wire(stats.to_dict()))
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.fit_failures == stats.fit_failures
        assert rebuilt.n_migrations == stats.n_migrations

    def test_fragmentation_and_migration_round_trip(self):
        sample = FragmentationSample(
            time=3.5,
            free_nodes_total=12,
            largest_free_block=4,
            active_containers=7,
            fit_failures=2,
        )
        assert FragmentationSample.from_dict(wire(sample.to_dict())) == sample
        record = MigrationRecord(
            time=9.25,
            request_id=4,
            workload="gcc",
            source_host=1,
            dest_host=3,
            engine="criu",
            seconds=12.5,
            moved_gb=1.75,
            triggered_by=9,
        )
        assert MigrationRecord.from_dict(wire(record.to_dict())) == record

    def test_service_stats_round_trip(self):
        stats = ServiceStats(
            n_shards=4,
            window=16,
            transport="process",
            rounds=10,
            routed=37,
            departures_routed=21,
            departure_batches=6,
            retries=3,
            recovered_by_retry=2,
            exhausted=1,
            shard_requests=[10, 9, 9, 9],
            shard_placed=[10, 8, 9, 9],
            supervised=True,
            crashes=2,
            timeouts=5,
            backoff_retries=4,
            failovers=3,
            journal_replays=2,
            replayed_messages=17,
            degraded_windows=1,
            degraded_arrivals=6,
            overlapped_rounds=9,
            window_wall_seconds=1.25,
            shard_service_seconds=3.5,
        )
        assert ServiceStats.from_dict(wire(stats.to_dict())) == stats

    def test_service_stats_accepts_pre_overlap_payloads(self):
        """A payload recorded before overlapped dispatch existed still
        loads: the dispatch-timing fields default to zero."""
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        for key in (
            "overlapped_rounds",
            "window_wall_seconds",
            "shard_service_seconds",
        ):
            del payload[key]
        rebuilt = ServiceStats.from_dict(payload)
        assert rebuilt.overlapped_rounds == 0
        assert rebuilt.window_wall_seconds == 0.0

    def test_service_stats_accepts_pre_supervision_payloads(self):
        """A payload recorded before the fault counters existed still
        loads: the new fields default to the unsupervised zeros."""
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        for key in (
            "supervised",
            "crashes",
            "timeouts",
            "backoff_retries",
            "failovers",
            "journal_replays",
            "replayed_messages",
            "degraded_windows",
            "degraded_arrivals",
        ):
            del payload[key]
        rebuilt = ServiceStats.from_dict(payload)
        assert rebuilt.supervised is False
        assert rebuilt.crashes == 0
        assert rebuilt.n_shards == 2

    def test_online_stats_round_trip(self):
        stats = OnlineStats()
        assert OnlineStats.from_dict(wire(stats.to_dict())).to_dict() == (
            stats.to_dict()
        )


class TestFaultWire:
    def test_fault_action_round_trip(self):
        action = FaultAction(shard=2, at_message=7, kind="delay", delay_ms=3.5)
        assert FaultAction.from_dict(wire(action.to_dict())) == action

    def test_fault_plan_round_trip(self):
        plan = FaultPlan.kill_each_shard_once(4, seed=11)
        rebuilt = FaultPlan.from_dict(wire(plan.to_dict()))
        assert rebuilt == plan
        assert rebuilt.seed == 11
        # A rebuilt plan binds to identical per-shard schedules.
        for shard in range(4):
            assert [a.to_dict() for a in rebuilt.bind(shard)._pending.get(
                plan.actions[shard].at_message, []
            )] == [plan.actions[shard].to_dict()]

    def test_fault_plan_generators_are_seeded(self):
        assert FaultPlan.kill_each_shard_once(3, seed=5) == (
            FaultPlan.kill_each_shard_once(3, seed=5)
        )
        assert FaultPlan.storm(3, seed=5) == FaultPlan.storm(3, seed=5)
        assert FaultPlan.storm(3, seed=5) != FaultPlan.storm(3, seed=6)

    def test_fault_action_validates(self):
        with pytest.raises(ValueError):
            FaultAction(shard=0, at_message=0, kind="explode")
        with pytest.raises(ValueError):
            FaultAction(shard=0, at_message=-1, kind="crash")
        with pytest.raises(ValueError):
            FaultAction(shard=-1, at_message=0, kind="crash")

    def test_journal_entry_round_trip(self):
        entry = JournalEntry(
            seq=3,
            message={"op": "depart", "events": [[4, 1.5]], "seq": 3},
        )
        assert JournalEntry.from_dict(wire(entry.to_dict())) == entry

    def test_shard_journal_round_trip_preserves_sequence(self):
        journal = ShardJournal()
        journal.append({"op": "arrive", "events": []})
        rolled = journal.append({"op": "depart", "events": [[1, 2.0]]})
        journal.rollback(rolled)
        journal.append({"op": "decide", "requests": []})
        rebuilt = ShardJournal.from_dict(wire(journal.to_dict()))
        assert rebuilt.to_dict() == journal.to_dict()
        # Sequence numbers are never reused, even across rollback.
        assert rebuilt.next_seq == 3
        assert [entry.seq for entry in rebuilt] == [0, 2]


class TestConfigWire:
    def test_schedule_config_round_trip(self):
        config = ScheduleConfig(
            machine="mixed",
            hosts=10,
            requests=77,
            vcpus=(4, 8, 12),
            seed=9,
            policy="spread",
            churn=True,
            heavy_tail=True,
            shards=3,
            window=5,
            workers="process",
            max_events=100,
            supervised=True,
            request_timeout_s=7.5,
            fault_retries=4,
            backoff_base_s=0.01,
            recovery_rounds=2,
        )
        rebuilt = ScheduleConfig.from_dict(wire(config.to_dict()))
        assert rebuilt == config
        assert rebuilt.vcpus == (4, 8, 12)  # tuple restored, not list


def _live_worker(**overrides):
    """A mixed-fleet (two shapes) shard that has placed eight arrivals."""
    config = ScheduleConfig(
        machine="mixed", hosts=4, requests=8, churn=True, shards=1, **overrides
    )
    worker = ShardWorker(0, config)
    for request in generate_request_stream(8, seed=1, vcpus_choices=(8,)):
        worker.handle(
            {"op": "arrive", "events": [encode_arrival(request, 0.0)]}
        )
    return worker


def _assert_summary_row_round_trips(summary):
    row = encode_summary(summary)
    json.dumps(row)  # scalars and nested rows only
    for carried in (row, wire(row), pickled(row)):
        assert decode_summary(carried, summary.shard_id) == summary
    return row


class TestSummaryWire:
    def test_shard_summary_round_trips_live_state(self):
        summary = _live_worker().summary()
        assert summary.active_containers > 0  # live, not the empty shard
        assert len(summary.shapes) == 2  # one sub-row per machine shape
        row = _assert_summary_row_round_trips(summary)
        # What a reply carries is this row, not the object.
        assert _live_worker().handle({"op": "summary"})["summary"] == row

    def test_summary_row_covers_every_declared_field(self):
        names = [f.name for f in dataclasses.fields(ShardSummary)]
        assert names[-2:] == ["shapes", "capacity"]
        summary = _live_worker(admission=True).summary()
        row = encode_summary(summary)
        assert len(row) == len(names)
        assert list(row[:-2]) == [getattr(summary, n) for n in names[:-2]]
        assert row[-2] == tuple(
            (name, e["n_hosts"], e["free_nodes"], e["largest_free_block"])
            for name, e in summary.shapes.items()
        )
        assert row[-1] == tuple(sorted(summary.capacity.counts.items()))

    def test_initial_summary_round_trips(self):
        config = ScheduleConfig(machine="mixed", hosts=5, shards=2)
        machines = config.machine_list()[1::2]
        for capacity in (None, initial_capacity(machines, config.vcpus)):
            _assert_summary_row_round_trips(
                ShardSummary.initial(1, machines, capacity=capacity)
            )

    @pytest.mark.parametrize(
        "mangle, match",
        [
            (lambda row: row[:-1], "malformed summary row"),
            (lambda row: (*row, 0), "malformed summary row"),
            (lambda row: None, "malformed summary row"),
            (
                lambda row: (*row[:-2], [["amd", 1, 2]], row[-1]),
                "malformed summary row",
            ),
            (
                lambda row: (*row[:-1], [[8, 1, 2]]),
                "malformed summary row",
            ),
        ],
    )
    def test_malformed_summary_row_raises_shard_error(self, mangle, match):
        row = encode_summary(_live_worker(admission=True).summary())
        with pytest.raises(ShardError, match=match) as caught:
            decode_summary(mangle(row), 0)
        assert caught.value.shard_id == 0

    def test_summary_of_another_shard_raises_shard_error(self):
        row = encode_summary(_live_worker().summary())
        with pytest.raises(ShardError, match="summary of shard 0"):
            decode_summary(row, 1)


class TestReportWire:
    def test_full_report_round_trips(self, churn_report, machines):
        amd = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        payload = wire(churn_report.to_dict())
        rebuilt = FleetReport.from_dict(payload, amd)
        assert rebuilt.to_dict() == payload
        assert rebuilt.placed == churn_report.placed
        assert rebuilt.rejected == churn_report.rejected
        assert rebuilt.latency_percentiles_ms() == (
            churn_report.latency_percentiles_ms()
        )

    def test_summary_only_report_snapshots_derived_values(self, churn_report):
        payload = wire(churn_report.to_dict(include_decisions=False))
        assert "decisions" not in payload
        assert payload["summary"]["placed"] == churn_report.placed
        assert payload["summary"]["requests_per_second"] == pytest.approx(
            churn_report.requests_per_second
        )
        amd = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        rebuilt = FleetReport.from_dict(payload, amd)
        assert rebuilt.decisions == []  # compact form drops the traces

    def test_one_shot_report_round_trips(self, machines):
        config = ScheduleConfig(
            machine="mixed", hosts=2, requests=20, seed=4, vcpus=(4, 8)
        )
        registry = config.build_registry()
        scheduler = FleetScheduler(
            config.build_fleet(),
            config.build_policy(registry),
            registry=registry,
            batch_size=8,
        )
        report = scheduler.run(config.build_stream())
        payload = wire(report.to_dict())
        assert FleetReport.from_dict(payload, machines).to_dict() == payload


class TestCapacityWire:
    def test_capacity_vector_round_trip_restores_int_keys(self):
        """A vector crosses inside its summary's row, as sorted pairs:
        no dict keys for JSON to turn into strings."""
        vector = CapacityVector(counts={16: 6, 8: 12, 32: 0})
        summary = dataclasses.replace(
            _live_worker().summary(), capacity=vector
        )
        row = encode_summary(summary)
        assert row[-1] == ((8, 12), (16, 6), (32, 0))
        rebuilt = decode_summary(wire(row), 0).capacity
        assert rebuilt == vector
        assert rebuilt.classes == (8, 16, 32)  # int keys, not strings
        assert rebuilt.count(16) == 6
        assert rebuilt.count(64) is None  # untracked stays untracked

    def test_capacity_vector_merge_union_sums(self):
        merged = CapacityVector(counts={8: 3, 16: 1}) + CapacityVector(
            counts={8: 2, 32: 4}
        )
        assert merged.counts == {8: 5, 16: 1, 32: 4}

    def test_live_summary_capacity_round_trips(self):
        summary = _live_worker(admission=True).summary()
        assert summary.capacity is not None
        assert summary.capacity.count(8) is not None
        row = _assert_summary_row_round_trips(summary)
        rebuilt = decode_summary(wire(row), 0)
        assert rebuilt.capacity == summary.capacity
        assert rebuilt.capacity.classes == summary.capacity.classes  # ints

    def test_summary_without_admission_omits_capacity_key(self):
        """Admission off ships no capacity vector: the row's last slot
        is ``None``, and decodes to None."""
        config = ScheduleConfig(machine="amd", hosts=2, requests=4, shards=1)
        worker = ShardWorker(0, config)
        row = wire(encode_summary(worker.summary()))
        assert row[-1] is None
        assert decode_summary(row, 0).capacity is None


class TestAdmissionWire:
    def test_admission_decision_round_trip(self):
        for decision in (
            AdmissionDecision(3, "admit"),
            AdmissionDecision(4, "hold"),
            AdmissionDecision(5, "reject", "admission:queue-full"),
        ):
            assert AdmissionDecision.from_dict(
                wire(decision.to_dict())
            ) == decision

    def test_admission_decision_validates(self):
        with pytest.raises(ValueError, match="outcome"):
            AdmissionDecision(1, "defer")
        with pytest.raises(ValueError, match="reason"):
            AdmissionDecision(1, "reject")

    def test_admission_stats_round_trip_and_merge(self):
        a = AdmissionStats(
            offered=10,
            admitted=6,
            rejected_infeasible=1,
            rejected_capacity=2,
            held=3,
            held_peak=2,
            drained=1,
            shed_queue_full=1,
            brownout_entries=1,
        )
        b = AdmissionStats(
            offered=5, admitted=5, held=1, held_peak=4, brownout_exits=1
        )
        assert AdmissionStats.from_dict(wire(a.to_dict())) == a
        merged = a + b
        assert merged.offered == 15
        assert merged.held_peak == 4  # high-water mark takes the max
        assert merged.shed_total == a.shed_total + b.shed_total
        assert merged.rejected_total == 3

    def test_service_stats_round_trip_with_admission(self):
        stats = ServiceStats(
            n_shards=2,
            window=8,
            rounds=4,
            routed=20,
            retries_short_circuited=3,
            admission=AdmissionStats(
                offered=24, admitted=20, rejected_capacity=4
            ),
        )
        rebuilt = ServiceStats.from_dict(wire(stats.to_dict()))
        assert rebuilt == stats
        assert isinstance(rebuilt.admission, AdmissionStats)

    def test_service_stats_merge_combines_admission(self):
        a = ServiceStats(
            n_shards=2,
            window=8,
            routed=4,
            retries_short_circuited=1,
            admission=AdmissionStats(offered=4, admitted=4),
        )
        b = ServiceStats(n_shards=2, window=8, routed=6)
        merged = a + b
        assert merged.routed == 10
        assert merged.retries_short_circuited == 1
        assert merged.admission is not None
        assert merged.admission.offered == 4

    def test_admission_off_payload_has_no_new_keys(self):
        """The PR-9 byte-compat gate at the stats layer: admission off
        emits exactly the pre-admission payload."""
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        assert "admission" not in payload
        assert "retries_short_circuited" not in payload

    def test_service_stats_accepts_pre_admission_payloads(self):
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        rebuilt = ServiceStats.from_dict(payload)
        assert rebuilt.admission is None
        assert rebuilt.retries_short_circuited == 0

    def test_schedule_config_round_trip_with_admission_knobs(self):
        config = ScheduleConfig(
            machine="amd",
            hosts=4,
            requests=20,
            churn=True,
            shards=2,
            admission=True,
            queue_limit=8,
            shed_policy="deadline",
            deadline_budget_s=5.0,
            brownout_watermark=0.25,
        )
        rebuilt = ScheduleConfig.from_dict(wire(config.to_dict()))
        assert rebuilt == config

    def test_initial_capacity_matches_empty_worker_summary(self):
        config = ScheduleConfig(
            machine="mixed", hosts=4, requests=4, shards=1, admission=True
        )
        worker = ShardWorker(0, config)
        expected = initial_capacity(config.machine_list(), config.vcpus)
        assert worker.summary().capacity == expected
