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
round trip; every :class:`~repro.core.serialize.Record` in the package
must be round-tripped by some test here (the guard at the end checks).
"""

import dataclasses
import importlib
import json
import pickle
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.memo import CacheInfo
from repro.core.serialize import Record, machines_by_name
from repro.scheduler import (
    AdmissionDecision,
    AdmissionStats,
    ChurnStats,
    FaultAction,
    FaultPlan,
    FleetScheduler,
    FragmentationSample,
    FragmentationTimeline,
    GradedDecision,
    LifecycleScheduler,
    MigrationRecord,
    PlacementRequest,
    RebalanceConfig,
    ScheduleConfig,
    ServiceStats,
    ShardSummary,
    ShardWorker,
    generate_churn_stream,
    available,
    brute_force_capacity,
    generate_request_stream,
    needed_nodes,
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
from repro.serving.server import PromotionRecord


def wire(payload):
    """One actual JSON round trip — what the transports do."""
    return json.loads(json.dumps(payload))


#: Records the tests below round-trip, nested ones included.
ROUND_TRIPPED = set()


def round_trips(*records):
    """Mark a test as the round trip of ``records``."""
    ROUND_TRIPPED.update(records)
    return lambda test: test


def assert_round_trips(record, machines=None):
    """``to_dict`` -> JSON -> ``from_dict`` rebuilds an equal record
    whose payload is the one it was rebuilt from."""
    payload = wire(record.to_dict())
    rebuilt = type(record).from_dict(payload, machines)
    assert type(rebuilt) is type(record)
    assert rebuilt == record
    assert rebuilt.to_dict() == payload
    return rebuilt


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
            ChurnStats(fragmentation_timeline=FragmentationTimeline(timeline))
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
        samples = len(stats.fragmentation_timeline)
        merged.fragmentation_timeline.append(*stats.fragmentation_timeline[0])
        assert len(stats.fragmentation_timeline) == samples


class TestRequestWire:
    @round_trips(PlacementRequest)
    def test_request_stream_round_trips(self):
        stream = generate_churn_stream(
            30, seed=2, vcpus_choices=(4, 8), heavy_tail=True
        ) + generate_request_stream(10, seed=2)
        for request in stream:
            assert_round_trips(request)

    def test_goal_and_lifetime_optionals_survive(self):
        stream = generate_churn_stream(40, seed=0, vcpus_choices=(8,))
        assert any(r.goal_fraction is None for r in stream)
        assert any(r.goal_fraction is not None for r in stream)
        for request in stream:
            rebuilt = assert_round_trips(request)
            assert rebuilt.goal_fraction == request.goal_fraction
            assert rebuilt.lifetime == request.lifetime


class TestDecisionWire:
    @round_trips(GradedDecision, FleetDecision)
    def test_graded_decisions_round_trip(self, churn_report):
        machines = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        assert churn_report.rejected > 0  # exercise the reject arm too
        for graded in churn_report.decisions:
            assert_round_trips(graded, machines)  # Placement == covers nodes, L2 share


class TestStatsWire:
    @round_trips(CacheInfo)
    def test_cache_info_round_trip_and_merge(self):
        a = CacheInfo(hits=3, misses=2, currsize=2)
        b = CacheInfo(hits=10, misses=0, currsize=4)
        assert_round_trips(a)
        assert a + b == CacheInfo(hits=13, misses=2, currsize=6)

    @round_trips(ChurnStats)
    def test_churn_stats_round_trip(self, churn_report):
        stats = churn_report.churn
        assert stats.fragmentation_timeline  # non-trivial payload
        rebuilt = assert_round_trips(stats)
        assert rebuilt.fit_failures == stats.fit_failures
        assert rebuilt.n_migrations == stats.n_migrations

    @round_trips(MigrationRecord)
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
        assert_round_trips(record)

    @round_trips(ServiceStats)
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
            window_wall_seconds=1.25,
            shard_service_seconds=3.5,
        )
        assert_round_trips(stats)

    def test_service_stats_accepts_pre_overlap_payloads(self):
        """A payload recorded before overlapped dispatch existed still
        loads (the dispatch-timing fields default to zero), and so does
        one from while it was optional: the retired ``overlapped_rounds``
        key, which always equalled ``rounds``, is dropped."""
        stats = ServiceStats(n_shards=2, window=8, rounds=5)
        payload = wire(stats.to_dict())
        assert "overlapped_rounds" not in payload
        for key in ("window_wall_seconds", "shard_service_seconds"):
            del payload[key]
        rebuilt = ServiceStats.from_dict(payload)
        assert rebuilt.window_wall_seconds == 0.0
        assert rebuilt.shard_service_seconds == 0.0
        retired = dict(wire(stats.to_dict()), overlapped_rounds=5)
        assert ServiceStats.from_dict(retired) == stats

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

    @round_trips(OnlineStats, PromotionRecord)
    def test_online_stats_round_trip(self):
        assert_round_trips(OnlineStats())
        fingerprint = ScheduleConfig(machine="amd", hosts=1).machine_list()[
            0
        ].fingerprint()
        stats = OnlineStats(
            observations=12,
            drift_events=1,
            retrains=1,
            promotions=[
                PromotionRecord(
                    time=40.5,
                    fingerprint=fingerprint,  # nested tuples
                    vcpus=8,
                    version=2,
                    shadow_mape_pct=4.25,
                    incumbent_mape_pct=19.5,
                    n_shadow_observations=6,
                )
            ],
            mape_timeline=[(1.5, 8, None), (2.0, 16, 12.75)],
        )
        assert_round_trips(stats)


class TestFaultWire:
    @round_trips(FaultAction)
    def test_fault_action_round_trip(self):
        action = FaultAction(shard=2, at_message=7, kind="delay", delay_ms=3.5)
        assert_round_trips(action)

    @round_trips(FaultPlan, FaultAction)
    def test_fault_plan_round_trip(self):
        plan = FaultPlan.kill_each_shard_once(4, seed=11)
        rebuilt = assert_round_trips(plan)
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
        assert FaultPlan.kill_each_shard_once(3, seed=5) != (
            FaultPlan.kill_each_shard_once(3, seed=6)
        )

    def test_fault_action_validates(self):
        with pytest.raises(ValueError):
            FaultAction(shard=0, at_message=0, kind="explode")
        with pytest.raises(ValueError):
            FaultAction(shard=0, at_message=-1, kind="crash")
        with pytest.raises(ValueError):
            FaultAction(shard=-1, at_message=0, kind="crash")


class TestConfigWire:
    @round_trips(ScheduleConfig)
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
        rebuilt = assert_round_trips(config)
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
        assert names[-1] == "shapes"
        summary = _live_worker(admission=True).summary()
        row = encode_summary(summary)
        assert len(row) == len(names)
        assert list(row[:-1]) == [getattr(summary, n) for n in names[:-1]]
        assert row[-1] == tuple(
            (name, *histogram) for name, histogram in summary.shapes.items()
        )

    def test_initial_summary_round_trips(self):
        config = ScheduleConfig(machine="mixed", hosts=5, shards=2)
        machines = config.machine_list()[1::2]
        _assert_summary_row_round_trips(ShardSummary.initial(1, machines))

    @pytest.mark.parametrize(
        "mangle, match",
        [
            (lambda row: row[:-1], "malformed summary row"),
            (lambda row: (*row, 0), "malformed summary row"),
            (lambda row: None, "malformed summary row"),
            (lambda row: (*row[:-1], [["amd", 1, 2]]), "count 3 hosts, not 4"),
            (lambda row: (*row[:-1], [8]), "malformed summary row"),
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
    @round_trips(FleetReport)
    def test_full_report_round_trips(self, churn_report, machines):
        amd = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        assert_round_trips(churn_report, amd)  # so derived counts are equal too

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

    @round_trips(FleetReport)
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
        assert_round_trips(report, machines)


class TestCapacityWire:
    def test_capacity_vector_round_trip_restores_int_keys(self):
        """A histogram crosses as the tail of its shape's sub-row: free
        counts are positions, not dict keys JSON would turn into
        strings."""
        worker = _live_worker()
        rebuilt = decode_summary(wire(encode_summary(worker.summary())), 0)
        assert rebuilt.shapes == worker.summary().shapes
        for machine in worker.fleet.index.shapes():
            histogram = rebuilt.shapes[machine.name]
            assert len(histogram) == machine.n_nodes + 1
            assert all(type(hosts) is int for hosts in histogram)

    def test_live_summary_capacity_round_trips(self):
        worker = _live_worker(admission=True)
        summary = worker.summary()
        row = _assert_summary_row_round_trips(summary)
        rebuilt = decode_summary(wire(row), 0)
        machines = {m.name: m for m in worker.fleet.index.shapes()}
        classes = (8, 16, 24, 1024)
        counts = {
            vcpus: available(
                rebuilt.shapes,
                lambda name: needed_nodes(machines[name], vcpus),
            ).count
            for vcpus in classes
        }
        assert counts == brute_force_capacity(worker.fleet.hosts, classes)

    def test_summary_without_admission_omits_capacity_key(self):
        """No summary carries a capacity slot, admission or not: both
        modes ship the same row, whose last slot is the free-node
        histograms every class is counted from."""
        off, on = _live_worker(), _live_worker(admission=True)
        row = wire(encode_summary(off.summary()))
        assert len(row) == len(dataclasses.fields(ShardSummary))
        assert row == wire(encode_summary(on.summary()))
        assert decode_summary(row, 0).shapes == off.summary().shapes


class TestAdmissionWire:
    def test_admission_decision_validates(self):
        with pytest.raises(ValueError, match="outcome"):
            AdmissionDecision(1, "defer")
        with pytest.raises(ValueError, match="reason"):
            AdmissionDecision(1, "reject")

    @round_trips(AdmissionStats)
    def test_admission_stats_round_trip(self):
        stats = AdmissionStats(
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
        assert_round_trips(stats)

    @round_trips(ServiceStats, AdmissionStats)
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
        rebuilt = assert_round_trips(stats)
        assert isinstance(rebuilt.admission, AdmissionStats)

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

    @round_trips(ScheduleConfig)
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
        assert_round_trips(config)

    def test_initial_capacity_matches_empty_worker_summary(self):
        config = ScheduleConfig(
            machine="mixed", hosts=4, requests=4, shards=1, admission=True
        )
        worker = ShardWorker(0, config)
        expected = ShardSummary.initial(0, config.machine_list())
        assert worker.summary() == expected


class TestRecords:
    def test_every_record_has_a_round_trip_test(self):
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):  # that runs the CLI
                importlib.import_module(module.name)
        records, pending = set(), [Record]
        while pending:
            for cls in pending.pop().__subclasses__():
                pending.append(cls)
                if cls.__module__.startswith("repro."):
                    records.add(cls.__qualname__)
        assert len(records) >= 14
        assert records - {cls.__qualname__ for cls in ROUND_TRIPPED} == set()

    def test_slotted_records_get_no_instance_dict(self, churn_report):
        # A mixin without ``__slots__`` would add a __dict__ (24 bytes)
        # to every decision a run keeps.
        graded = churn_report.decisions[0]
        for record in (graded, graded.decision, graded.decision.request):
            assert not hasattr(record, "__dict__")

    def test_unknown_key_raises_and_derived_or_retired_keys_load(
        self, churn_report
    ):
        action = FaultAction(shard=0, at_message=3, kind="crash")
        with pytest.raises(TypeError, match="no field named 'bogus'"):
            FaultAction.from_dict(dict(action.to_dict(), bogus=1))
        with pytest.raises(TypeError):
            FaultAction.from_dict({"shard": 0, "kind": "crash"})
        # FleetReport's derived summary block and ServiceStats' retired
        # overlapped_rounds are the two extras a payload may carry.
        payload = wire(churn_report.to_dict(include_decisions=False))
        assert "summary" in payload
        rebuilt = FleetReport.from_dict(payload)
        assert rebuilt.churn == churn_report.churn
        with pytest.raises(TypeError, match="no field named 'bogus'"):
            FleetReport.from_dict(dict(payload, bogus=None))
        stats = ServiceStats(n_shards=2, window=4, rounds=3)
        retired = dict(wire(stats.to_dict()), overlapped_rounds=3)
        assert ServiceStats.from_dict(retired) == stats
