"""Round-trip tests for the wire surface.

Two formats cross process boundaries.  Shard messages are row-coded
(:mod:`repro.scheduler.wire`): arrivals in, state change records out,
the shard summary on every reply —
each must decode to an equal object after a JSON round trip *and* after
a pickle round trip, because the inline transport hands rows over
untouched, the process transport pickles them, and journals and traces
may store them as JSON.  Reports (``--emit-json``) use ``to_dict`` ->
``json`` -> ``from_dict``.  The tests push real objects (produced by
real scheduler runs, not hand-built minimal ones) through an actual
round trip.  Beside them, one generated property (``TestRecords``)
round-trips drawn instances of every class in the package that has a
``to_dict``, and seeded codec faults must fail it.
"""

import dataclasses
import importlib
import inspect
import json
import pickle
import pkgutil
import types
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import Phase, given, reject, settings, strategies as st

import repro
import repro.scheduler.service as service_module
import repro.scheduler.wire as wire_codec
from repro.analysis import Finding
from repro.core.memo import CacheInfo, cached_enumerate_important_placements
from repro.core.placements import Placement
from repro.core.serialize import Record, machines_by_name
from repro.scheduler import (
    AdmissionDecision,
    AdmissionStats,
    ChurnFold,
    ChurnStats,
    FaultAction,
    FaultPlan,
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
    events_from_requests,
    generate_churn_stream,
    available,
    brute_force_capacity,
    generate_request_stream,
    needed_nodes,
)
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.library import paper_workloads
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
from repro.scheduler.events import EventKind
from repro.scheduler.faults import FAULT_KINDS
from repro.scheduler.lifecycle import (
    DEPARTED,
    MIGRATED,
    OUTCOMES,
    PLACED,
    REGRADED,
    REJECTED,
)
from repro.scheduler.policies import FleetDecision
from repro.scheduler.scheduler import FleetReport
from repro.scheduler.service import SchedulerService
from repro.scheduler.wire import (
    SAMPLE_WIDTH,
    PlacementMemo,
    ProfileMemo,
    ShardError,
    decode_arrival,
    decode_graded,
    decode_move,
    decode_summary,
    encode_arrival,
    encode_change,
    encode_graded,
    encode_summary,
    profile_row,
)
from tests.scheduler.oracle_one_shot import one_shot_engine
from repro.serving.online import OnlineStats
from repro.serving.server import PromotionRecord
from repro.topology.machine import MachineTopology
from repro.topology.presets import PRESETS


def wire(payload):
    """One actual JSON round trip — what the transports do."""
    return json.loads(json.dumps(payload))


def assert_round_trips(record, machines=None):
    """``to_dict`` -> JSON -> ``from_dict`` (handed ``machines`` if it
    takes them) rebuilds an equal record whose payload is the one it was
    rebuilt from."""
    payload = wire(record.to_dict())
    decode = type(record).from_dict
    if len(inspect.signature(decode).parameters) > 1:
        rebuilt = decode(payload, machines)
    else:
        rebuilt = decode(payload)
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
def churn_changes():
    """Every state change record of a stream driven through
    ``step_batch`` (windows of four) and ``depart`` as a shard drives
    it, near full: outcomes of both kinds, departures that release and
    ones that do not, and rebalancer moves with their re-grades."""
    config = ScheduleConfig(
        machine="amd",
        hosts=8,
        requests=200,
        seed=3,
        churn=True,
        arrival_rate=1.0,
        mean_lifetime=30.0,
        vcpus=(8, 8, 16, 32),
    )
    registry = config.build_registry()
    engine = LifecycleScheduler(
        config.build_fleet(), config.build_policy(registry), registry=registry
    )
    changes, pending = [], []
    for event in events_from_requests(config.build_stream()).drain():
        if event.kind is EventKind.ARRIVAL:
            pending.append(event)
            if len(pending) < 4:
                continue
        changes.extend(engine.step_batch(pending))
        pending = []
        if event.kind is not EventKind.ARRIVAL:
            changes.append(engine.depart(event.request.request_id, event.time))
    changes.extend(engine.step_batch(pending))
    return changes


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
                {"op": "arrive", "events": [encode_arrival(one, 0.0)]}
            )
            with pytest.raises(ShardError, match="expected 2 at this position"):
                service._fold_reply(0, response, [other])
            with pytest.raises(ShardError, match="grades 1 request"):
                service._fold_reply(0, response, [one, other])
            with pytest.raises(ShardError, match="grades 1 request"):
                service._fold_reply(0, response, [])
            # A reply that raised folded nothing; this one folds once.
            assert service._churn.stats.arrivals == 0
            [entry] = service._fold_reply(0, response, [one])
            assert entry.decision.request is one
            assert service._churn.stats.arrivals == 1

    def test_state_change_rows_survive_json_and_pickle(
        self, churn_changes
    ):
        """A real stream's records, shard-encoded, keep their layout and
        decode to the engine's payloads; a departure's row is its record."""
        kinds = {record[0] for record in churn_changes}
        assert kinds == {PLACED, REJECTED, MIGRATED, REGRADED, DEPARTED}
        released = {r[2] for r in churn_changes if r[0] == DEPARTED}
        assert released == {False, True}
        amd = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        for record in churn_changes:
            kind, request_id, payload, *sample = record
            row = encode_change(record)
            assert len(sample) == (SAMPLE_WIDTH if kind in (*OUTCOMES, DEPARTED) else 0)
            for carried in (row, wire(row), pickled(row)):
                assert len(carried) == len(record)
                assert tuple(carried[:2]) == (kind, request_id)
                assert list(carried[3:]) == sample
                if kind == MIGRATED:
                    assert decode_move(carried[2], 0, 1) == payload
                elif kind == DEPARTED:
                    assert carried[2] is payload
                else:
                    rebuilt = decode_graded(
                        carried[2], payload.decision.request, amd
                    )
                    assert _graded_fields(rebuilt) == _graded_fields(payload)
            if kind == DEPARTED:
                assert row is record

    def test_unknown_state_change_raises(self):
        """A row of no known kind, or a closing row whose sample is not
        five fields, is a ``ShardError`` against the shard that sent it,
        and the reply folds nothing."""
        config = ScheduleConfig(
            machine="amd", hosts=2, policy="first-fit", shards=2
        )
        good = (DEPARTED, 1, True, 0.0, 8, 8, 0, 0)
        bad = {
            "unknown state change 'moved'": ("moved", 1),
            "ends with 1 sample field": (DEPARTED, 1, True, 0.0),
        }
        with SchedulerService(config) as service:
            for match, row in bad.items():
                with pytest.raises(ShardError, match=match) as raised:
                    service._fold_reply(1, {"records": [good, row]}, ())
                assert raised.value.shard_id == 1
            assert service._churn.stats.departures == 0
            assert len(service._churn.timelines[1]) == 0


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


def _departure(sample):
    """A departure record closing with ``sample``."""
    return (DEPARTED, 0, True, *sample)


class TestChurnMerge:
    @settings(max_examples=100, deadline=None)
    @given(
        timelines=st.lists(
            st.lists(_samples, max_size=12), min_size=2, max_size=4
        ),
        data=st.data(),
    )
    def test_running_totals_equal_the_resummed_timeline(self, timelines, data):
        fold = ChurnFold(len(timelines))
        for shard, timeline in enumerate(timelines):
            fold.fold(map(_departure, timeline), shard)
        per_shard = [
            ChurnStats(fragmentation_timeline=FragmentationTimeline(timeline))
            for timeline in timelines
        ]
        initial = [data.draw(_samples) for _ in timelines]
        merged = fold.churn(arrivals=7, initial=initial)
        assert merged.fragmentation_timeline == _merge_by_summing(
            per_shard, initial
        )
        assert merged.arrivals == 7
        assert merged.departures == sum(map(len, timelines))

    def test_single_shard_churn_is_an_independent_copy(self, churn_report):
        stats = churn_report.churn
        fold = ChurnFold()
        fold.fold(map(_departure, stats.fragmentation_timeline))
        churn = fold.churn(arrivals=99, initial=[])
        assert churn.arrivals == 99
        assert churn.fragmentation_timeline == stats.fragmentation_timeline
        samples = len(stats.fragmentation_timeline)
        churn.fragmentation_timeline.append(*stats.fragmentation_timeline[0])
        assert len(fold.timelines[0]) == samples

    def test_fold_of_a_shards_records_is_the_engines_report(
        self, churn_changes
    ):
        """Folding what ``step_batch`` and ``depart`` returned gives the
        churn statistics ``step()`` would have kept, rebalance attempts
        and recoveries included (read off the moves before an outcome)."""
        fold = ChurnFold()
        fold.fold(churn_changes)
        stats = fold.stats
        outcomes = [r for r in churn_changes if r[0] in OUTCOMES]
        assert stats.arrivals == len(outcomes)
        assert stats.departures == sum(
            r[2] for r in churn_changes if r[0] == DEPARTED
        )
        assert stats.migrations == [
            r[2] for r in churn_changes if r[0] == MIGRATED
        ]
        triggers = {m.triggered_by for m in stats.migrations}
        assert 0 < stats.rebalance_attempts == len(triggers)
        assert stats.rebalance_recovered == sum(
            r[0] == PLACED for r in outcomes if r[1] in triggers
        )
        assert list(stats.fragmentation_timeline) == [
            FragmentationSample(*r[3:]) for r in churn_changes if len(r) > 3
        ]


class TestRequestWire:
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
    def test_graded_decisions_round_trip(self, churn_report):
        machines = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        assert churn_report.rejected > 0  # exercise the reject arm too
        for graded in churn_report.decisions:
            assert_round_trips(graded, machines)  # Placement == covers nodes, L2 share


class TestStatsWire:
    def test_cache_info_round_trip_and_merge(self):
        a = CacheInfo(hits=3, misses=2, currsize=2)
        b = CacheInfo(hits=10, misses=0, currsize=4)
        assert_round_trips(a)
        assert a + b == CacheInfo(hits=13, misses=2, currsize=6)

    def test_churn_stats_round_trip(self, churn_report):
        stats = churn_report.churn
        assert stats.fragmentation_timeline  # non-trivial payload
        rebuilt = assert_round_trips(stats)
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
        assert_round_trips(record)

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
    def test_fault_action_round_trip(self):
        action = FaultAction(shard=2, at_message=7, kind="delay", delay_ms=3.5)
        assert_round_trips(action)

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

    def test_one_shot_report_round_trips(self, machines):
        config = ScheduleConfig(
            machine="mixed", hosts=2, requests=20, seed=4, vcpus=(4, 8)
        )
        registry = config.build_registry()
        report = one_shot_engine(
            config.build_fleet(),
            config.build_policy(registry),
            registry=registry,
        ).run(config.build_stream(), window=8)
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


# ----------------------------------------------------------------------
# The round-trip property: every codec class in the package
# ----------------------------------------------------------------------


def _codec_classes():
    """Every class defined in ``repro`` that has a ``to_dict``, its own
    or inherited (the :class:`Record` mixin itself aside)."""
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):  # that runs the CLI
            continue
        for value in vars(importlib.import_module(info.name)).values():
            if (
                isinstance(value, type)
                and value.__module__ == info.name
                and hasattr(value, "to_dict")
                and value is not Record
            ):
                found.add(value)
    return sorted(found, key=lambda cls: (cls.__qualname__, cls.__module__))


CODEC_CLASSES = _codec_classes()
PRESET_MACHINES = tuple(factory() for factory in PRESETS.values())
PRESETS_BY_NAME = machines_by_name(PRESET_MACHINES)

_ints = st.integers(1, 10**6)
_floats = st.floats(0.001, 1e6)
_samples = st.builds(FragmentationSample, _floats, _ints, _ints, _ints, _ints)

#: Values by annotated type.  Scalars stay inside what every validating
#: constructor accepts and never equal a zero default, so a field lost
#: on the way shows as an unequal record; domain types come from the
#: catalogues the scheduler itself uses.
STRATEGIES = {
    int: _ints,
    float: _floats,
    str: st.text(min_size=1, max_size=8),
    bool: st.booleans(),
    type(None): st.none(),
    MachineTopology: st.sampled_from(PRESET_MACHINES),
    Placement: st.tuples(
        st.sampled_from(PRESET_MACHINES), st.sampled_from((4, 8, 16))
    ).flatmap(
        lambda shape: st.sampled_from(
            list(cached_enumerate_important_placements(*shape))
        )
    ),
    WorkloadProfile: st.sampled_from(paper_workloads()),
    FragmentationSample: _samples,
    FragmentationTimeline: st.lists(_samples, max_size=3).map(
        FragmentationTimeline
    ),
}
#: Fields whose constructor accepts only named values.
FIELD_STRATEGIES = {(FaultAction, "kind"): st.sampled_from(FAULT_KINDS)}


def _constructed(cls, values):
    try:
        return cls(**values)
    except ValueError:  # a validating constructor refused the draw
        reject()


def strategy_for(hint):
    """Values annotated ``hint``: a registered type, ``X | None``, a list
    or tuple (at most three items), or a dataclass built from its own
    field annotations.  Any other type raises — a new codec class whose
    fields need one registers it in :data:`STRATEGIES`."""
    if hint in STRATEGIES:
        return STRATEGIES[hint]
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        return st.one_of(*map(strategy_for, args))
    if origin is list:
        return st.lists(strategy_for(args[0]), max_size=3)
    if origin is tuple and not args:  # a bare Tuple
        return st.lists(_ints, max_size=3).map(tuple)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(strategy_for(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(strategy_for, args))
    if dataclasses.is_dataclass(hint):
        # Annotations may name a record their module imports only under
        # TYPE_CHECKING; every codec class resolves by name.
        hints = get_type_hints(
            hint, localns={cls.__name__: cls for cls in CODEC_CLASSES}
        )
        return st.fixed_dictionaries(
            {
                spec.name: FIELD_STRATEGIES[hint, spec.name]
                if (hint, spec.name) in FIELD_STRATEGIES
                else strategy_for(hints[spec.name])
                for spec in dataclasses.fields(hint)
                if spec.init
            }
        ).map(lambda values: _constructed(hint, values))
    raise TypeError(f"no strategy for {hint!r}: register one in STRATEGIES")


def check_round_trips(cls):
    """The property: drawn instances of ``cls`` survive ``to_dict`` ->
    JSON -> ``from_dict`` (:func:`assert_round_trips`).  A failure is
    reported as drawn, unshrunk: shrinking a nested report takes a
    minute, and the first broken field is already in the message.  No
    example database, so a mutant's failures are never replayed."""

    @settings(
        max_examples=10,
        deadline=None,
        database=None,
        phases=[Phase.explicit, Phase.generate],
        report_multiple_bugs=False,
    )
    @given(strategy_for(cls))
    def round_trip(record):
        assert_round_trips(record, PRESETS_BY_NAME)

    round_trip()


def _editing_to_dict(cls, edit):
    """``cls.to_dict`` with ``edit`` applied to every payload it emits."""
    original = cls.to_dict

    def to_dict(self):
        data = original(self)
        edit(data)
        return data

    return to_dict


def _editing_from_dict(cls, edit):
    """``cls.from_dict`` with ``edit`` applied to every payload it reads."""
    original = cls.from_dict

    def from_dict(_, data, machines=None):
        values = dict(data)
        edit(values)
        return original(values, machines)

    return classmethod(from_dict)


#: Hand-written codec faults, each seeded into one class as (class,
#: method, replacement or None to delete it): the property on that class
#: must fail.
MUTANTS = {
    "to-dict-without-from-dict": (Placement, "from_dict", None),
    "from-dict-never-reads-a-field": (
        Placement,
        "from_dict",
        _editing_from_dict(Placement, lambda d: d.update(l2_share=1)),
    ),
    "to-dict-omits-a-field": (
        Finding,
        "to_dict",
        _editing_to_dict(Finding, lambda d: d.pop("message")),
    ),
    "wildcard-from-dict-pops-a-field": (
        WorkloadProfile,
        "from_dict",
        _editing_from_dict(WorkloadProfile, lambda d: d.pop("n_tasks")),
    ),
    "from-dict-reads-a-key-never-emitted": (
        CacheInfo,
        "from_dict",
        _editing_from_dict(CacheInfo, lambda d: d.update(currsize=d["size"])),
    ),
    "hand-built-record-override-drops-a-field": (
        AdmissionStats,
        "to_dict",
        lambda self: {"offered": self.offered},
    ),
    "pop-after-super-to-dict": (
        ServiceStats,
        "to_dict",
        _editing_to_dict(ServiceStats, lambda d: d.pop("retries")),
    ),
    "from-dict-override-pops-a-field": (
        FleetReport,
        "from_dict",
        _editing_from_dict(FleetReport, lambda d: d.pop("elapsed_seconds")),
    ),
    "service-stats-from-dict-pops-window": (
        ServiceStats,
        "from_dict",
        _editing_from_dict(ServiceStats, lambda d: d.pop("window")),
    ),
    "plain-class-key-mismatch": (
        Placement,
        "to_dict",
        _editing_to_dict(Placement, lambda d: d.update(share=d.pop("l2_share"))),
    ),
    "fragmentation-sample-drops-fit-failures": (
        FragmentationSample,
        "to_dict",
        _editing_to_dict(FragmentationSample, lambda d: d.pop("fit_failures")),
    ),
}


def _omit_none(*keys):
    def edit(data):
        for key in keys:
            if data[key] is None:
                data.pop(key)

    return edit


#: Codec shapes that lose nothing, seeded the same way: the property on
#: that class must still pass, so it asks only that every field survive,
#: not that each payload carry exactly the fields in declaration order.
LEGAL_VARIANTS = {
    "extra-emitted-key-the-decoder-drops": (
        ServiceStats,
        "to_dict",
        _editing_to_dict(ServiceStats, lambda d: d.update(overlapped_rounds=1)),
    ),
    "field-emitted-only-off-its-default": (
        ServiceStats,
        "to_dict",
        _editing_to_dict(
            ServiceStats, lambda d: d["supervised"] or d.pop("supervised")
        ),
    ),
    "override-drops-two-fields-on-one-branch": (
        PlacementRequest,
        "to_dict",
        _editing_to_dict(PlacementRequest, _omit_none("goal_fraction", "lifetime")),
    ),
    "override-moves-a-field-last": (
        AdmissionStats,
        "to_dict",
        _editing_to_dict(AdmissionStats, lambda d: d.update(offered=d.pop("offered"))),
    ),
}


@st.composite
def _engine_events(draw):
    """One event's state change records as a shard's engine emits them:
    a departure, or an arrival's outcome after the moves the rebalancer
    made for it (mostly), each maybe followed by its re-grade.  Graded
    entries and moves are drawn from their classes' field annotations."""
    sample = tuple(draw(_samples))
    if draw(st.booleans()):
        return [(DEPARTED, draw(_ints), draw(st.booleans()), *sample)]
    graded = strategy_for(GradedDecision)
    entry = draw(graded)
    request_id = entry.decision.request.request_id
    records = []
    for move in draw(st.lists(strategy_for(MigrationRecord), max_size=2)):
        if draw(st.booleans()):
            move = dataclasses.replace(move, triggered_by=request_id)
        records.append((MIGRATED, move.request_id, move))
        if draw(st.booleans()):
            records.append((REGRADED, move.request_id, draw(graded)))
    kind = draw(st.sampled_from(sorted(OUTCOMES)))
    return records + [(kind, request_id, entry, *sample)]


def _made_global(entry, shard, shards):
    """``_graded_fields`` of ``entry`` with its host id as the front end
    numbers it."""
    decision, graded = _graded_fields(entry)
    if decision["host_id"] is not None:
        decision["host_id"] = decision["host_id"] * shards + shard
    return decision, graded


def check_record_fold():
    """The record property: drawn engine records, shard-encoded
    (``encode_change``) and carried through JSON and through pickle, are
    folded by a 2-shard front end (``_fold_reply``, as shard 1) into the
    engine's own fold, moves' host ids made global; every outcome it
    returns is the engine's entry around the request it sent, and every
    row keeps its record's layout.  Read through the modules, so a
    seeded fault in the encoder or the front end's decoding is what
    runs."""
    shard, shards = 1, 2
    config = ScheduleConfig(
        machine="amd", hosts=2, policy="first-fit", shards=shards
    )
    with SchedulerService(config) as service:
        service._by_name = PRESETS_BY_NAME  # drawn placements: every preset

        @settings(
            max_examples=40,
            deadline=None,
            database=None,
            phases=[Phase.explicit, Phase.generate],
            report_multiple_bugs=False,
        )
        @given(st.lists(_engine_events(), max_size=5))
        def fold_matches(events):
            records = [record for event in events for record in event]
            rows = [wire_codec.encode_change(record) for record in records]
            engine = ChurnFold()
            engine.fold(records)
            expected = engine.stats
            entries = [r[2] for r in records if r[0] in OUTCOMES]
            requests = [entry.decision.request for entry in entries]
            for carried in (wire(rows), pickled(rows)):
                service._churn = ChurnFold(shards)
                outcomes = service._fold_reply(
                    shard, {"records": carried}, requests
                )
                front = service._churn.stats
                assert (
                    front.arrivals,
                    front.departures,
                    front.rebalance_attempts,
                    front.rebalance_recovered,
                ) == (
                    expected.arrivals,
                    expected.departures,
                    expected.rebalance_attempts,
                    expected.rebalance_recovered,
                )
                assert front.migrations == [
                    dataclasses.replace(
                        move,
                        source_host=move.source_host * shards + shard,
                        dest_host=move.dest_host * shards + shard,
                    )
                    for move in expected.migrations
                ]
                assert service._churn.timelines[shard] == engine.timelines[0]
                assert len(service._churn.timelines[0]) == 0
                assert [o.decision.request for o in outcomes] == requests
                assert [_graded_fields(o) for o in outcomes] == [
                    _made_global(entry, shard, shards) for entry in entries
                ]
            # The front end skips re-grades, so their layout is checked
            # here: a row is its record with the payload mapped.
            assert [(len(r), r[:2], r[3:]) for r in rows] == [
                (len(r), r[:2], r[3:]) for r in records
            ]

        fold_matches()


def _editing_rows(kind, edit):
    """``encode_change`` with ``edit`` applied to every ``kind`` row."""
    original = wire_codec.encode_change

    def encode_change(record):
        row = original(record)
        return edit(row) if row[0] == kind else row

    return encode_change


def _swapping_hosts(row):
    """A move's row with its source and destination hosts swapped."""
    fields = row[2]
    return (*row[:2], (*fields[:3], fields[4], fields[3], *fields[5:]))


#: Seeded faults of the shard encoder (patched over ``encode_change``)
#: and of the front end's decoding (over what ``_fold_reply`` calls):
#: the record property must fail on each.
CHANGE_MUTANTS = {
    "departure-row-drops-released": (
        wire_codec,
        "encode_change",
        _editing_rows(DEPARTED, lambda row: row[:2] + row[3:]),
    ),
    "outcome-row-drops-its-sample": (
        wire_codec,
        "encode_change",
        _editing_rows(PLACED, lambda row: row[:-SAMPLE_WIDTH]),
    ),
    "regrade-row-carries-a-sample": (
        wire_codec,
        "encode_change",
        _editing_rows(REGRADED, lambda row: row + (0.0, 1, 1, 1, 1)),
    ),
    "migration-row-swaps-its-hosts": (
        wire_codec,
        "encode_change",
        _editing_rows(MIGRATED, _swapping_hosts),
    ),
    "fold-leaves-move-hosts-local": (
        service_module,
        "decode_move",
        lambda row, shard, shards: MigrationRecord(*row),
    ),
}


class TestRecords:
    @pytest.mark.parametrize(
        "cls", CODEC_CLASSES, ids=[cls.__qualname__ for cls in CODEC_CLASSES]
    )
    def test_every_codec_class_round_trips(self, cls):
        check_round_trips(cls)

    def test_the_scan_finds_every_record(self):
        records, pending = set(), [Record]
        while pending:
            for cls in pending.pop().__subclasses__():
                pending.append(cls)
                if cls.__module__.startswith("repro."):
                    records.add(cls.__qualname__)
        assert len(CODEC_CLASSES) >= 18
        assert records - {cls.__qualname__ for cls in CODEC_CLASSES} == set()

    def test_a_field_type_without_a_strategy_errors(self):
        @dataclasses.dataclass
        class Unregistered:
            machine: MachineTopology
            when: complex

        with pytest.raises(TypeError, match="no strategy for <class 'complex'>"):
            check_round_trips(Unregistered)

    def test_front_end_fold_of_shard_rows_is_the_engines(self):
        check_record_fold()

    @pytest.mark.parametrize("mutant", sorted(CHANGE_MUTANTS))
    def test_record_fold_property_catches(self, mutant, monkeypatch):
        monkeypatch.setattr(*CHANGE_MUTANTS[mutant])
        with pytest.raises((AssertionError, ShardError)):
            check_record_fold()

    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_round_trip_property_catches(self, mutant, monkeypatch):
        cls, name, method = MUTANTS[mutant]
        if method is None:
            monkeypatch.delattr(cls, name)
        else:
            monkeypatch.setattr(cls, name, method)
        with pytest.raises(
            (AssertionError, AttributeError, KeyError, TypeError, ValueError)
        ):
            check_round_trips(cls)

    @pytest.mark.parametrize("variant", sorted(LEGAL_VARIANTS))
    def test_round_trip_property_passes(self, variant, monkeypatch):
        cls, name, method = LEGAL_VARIANTS[variant]
        monkeypatch.setattr(cls, name, method)
        check_round_trips(cls)

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
