"""Tests for one-shot scheduling and the fleet report.

A one-shot stream — nothing departs — runs through the lifecycle engine
with the rebalancer off, ``window`` arrivals per policy batch; the batch
loop it replaced is the oracle in ``oracle_one_shot.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduler import (
    POLICIES,
    Fleet,
    FirstFitFleetPolicy,
    GoalAwareFleetPolicy,
    ModelRegistry,
    ScheduleConfig,
    generate_request_stream,
    make_policy,
)
from repro.topology import amd_opteron_6272
from tests.scheduler.oracle_linear import (
    LinearGoalAwarePolicy,
    UnmemoizedRegistry,
)
from tests.scheduler.oracle_one_shot import one_shot_engine, one_shot_oracle


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)


def _ml_scheduler(n_hosts, registry):
    return one_shot_engine(
        Fleet.homogeneous(amd_opteron_6272(), n_hosts),
        GoalAwareFleetPolicy(registry),
        registry=registry,
    )


class TestFleetScheduler:
    def test_report_accounting(self, registry):
        requests = generate_request_stream(20, seed=1, vcpus_choices=(16,))
        report = _ml_scheduler(6, registry).run(requests, window=8)
        assert report.n_requests == 20
        assert report.n_hosts == 6
        assert report.placed + report.rejected == 20
        assert len(report.decisions) == 20
        assert 0.0 <= report.thread_utilization <= 1.0
        assert report.goal_bearing == sum(
            1 for r in requests if r.goal_fraction is not None
        )
        assert report.violations <= report.goal_bearing
        assert report.requests_per_second > 0
        mean_ms, p95_ms = report.decision_latency_ms()
        assert 0 <= mean_ms <= p95_ms

    def test_graded_decisions_have_achieved_performance(self, registry):
        requests = generate_request_stream(8, seed=2, vcpus_choices=(16,))
        report = _ml_scheduler(4, registry).run(requests, window=4)
        for graded in report.decisions:
            if graded.decision.placed:
                assert graded.achieved_relative is not None
                assert graded.achieved_relative > 0
                assert "achieved" in graded.describe()
            else:
                assert graded.achieved_relative is None

    def test_violation_flag_consistent_with_goal(self, registry):
        requests = generate_request_stream(
            16, seed=3, vcpus_choices=(16,), goal_choices=(1.0,)
        )
        report = _ml_scheduler(4, registry).run(requests, window=8)
        for graded in report.decisions:
            if graded.decision.placed:
                expected = graded.achieved_relative < 1.0
                assert graded.violated == expected

    def test_describe_mentions_key_lines(self, registry):
        requests = generate_request_stream(6, seed=4, vcpus_choices=(16,))
        report = _ml_scheduler(3, registry).run(requests, window=8)
        text = report.describe()
        assert "fleet report" in text
        assert "goal violations" in text
        assert "enumeration pipeline runs" in text
        assert "requests/s" in text

    def test_heuristic_policy_report_has_no_prediction_stats(self, registry):
        requests = generate_request_stream(6, seed=5, vcpus_choices=(16,))
        report = one_shot_engine(
            Fleet.homogeneous(amd_opteron_6272(), 2),
            FirstFitFleetPolicy(),
            registry=registry,
        ).run(requests, window=64)
        assert report.policy == "first-fit"
        assert report.predict_calls == 0
        assert "batched prediction" not in report.describe()

    def test_batch_size_validation(self, registry):
        with pytest.raises(ValueError, match="window"):
            _ml_scheduler(2, registry).run([], window=0)

    def test_zero_admitted_report_percentages_are_zero(self, registry):
        """Regression: a report where nothing was admitted must describe
        itself (percentages print 0) instead of dividing by zero."""
        # 7 vCPUs cannot be balanced on the AMD shape -> all infeasible,
        # and best-effort goals keep goal_bearing at 0 too.
        requests = generate_request_stream(
            5, seed=1, vcpus_choices=(7,), goal_choices=(None,)
        )
        report = _ml_scheduler(2, registry).run(requests, window=4)
        assert report.placed == 0
        assert report.goal_bearing == 0
        assert report.admission_pct == 0.0
        assert report.violation_pct == 0.0
        text = report.describe()
        assert "placed 0 (0.0% admitted)" in text
        assert "(0.0%)" in text

    def test_empty_stream_report(self, registry):
        """The API path can hand the scheduler an empty stream; every
        report aggregate must degrade to zero, not raise."""
        report = _ml_scheduler(2, registry).run([], window=64)
        assert report.n_requests == 0
        assert report.admission_pct == 0.0
        assert report.violation_pct == 0.0
        assert report.decision_latency_ms() == (0.0, 0.0)
        assert "placed 0" in report.describe()

    def test_admission_and_violation_percentages(self, registry):
        requests = generate_request_stream(20, seed=1, vcpus_choices=(16,))
        report = _ml_scheduler(6, registry).run(requests, window=8)
        assert report.admission_pct == pytest.approx(
            100.0 * report.placed / report.n_requests
        )
        assert report.violation_pct == pytest.approx(
            100.0 * report.violations / report.goal_bearing
        )

    def test_memoized_runs_once_per_key(self, empty_artifact_store):
        registry = ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)
        requests = generate_request_stream(12, seed=6, vcpus_choices=(8, 16))
        report = _ml_scheduler(4, registry).run(requests, window=4)
        # Two vcpu sizes on one shape: exactly two pipeline runs, the rest
        # of the stream hits the cache.
        assert report.enumeration_runs == 2
        assert report.cache_info.hits > 0

    def test_naive_and_fast_paths_agree(self):
        """The memo caches, batched prediction and the fleet index are
        pure optimizations: the per-request pipeline of the oracles
        (unmemoized registry, linear scan, batches of one) must make
        identical decisions."""
        requests = generate_request_stream(14, seed=7, vcpus_choices=(8, 16))

        fast_registry = ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)
        fast = _ml_scheduler(4, fast_registry).run(requests, window=8)

        naive_registry = UnmemoizedRegistry(n_estimators=6, n_synthetic=2, seed=0)
        naive = one_shot_engine(
            Fleet.homogeneous(amd_opteron_6272(), 4),
            LinearGoalAwarePolicy(naive_registry),
            registry=naive_registry,
        ).run(requests, window=1)

        assert naive.enumeration_runs > fast.enumeration_runs
        fast_outcomes = [
            (
                g.decision.host_id,
                g.decision.placement.nodes if g.decision.placed else None,
                g.decision.placement_id,
            )
            for g in fast.decisions
        ]
        naive_outcomes = [
            (
                g.decision.host_id,
                g.decision.placement.nodes if g.decision.placed else None,
                g.decision.placement_id,
            )
            for g in naive.decisions
        ]
        assert fast_outcomes == naive_outcomes


def _timeless(graded):
    return [dict(entry.to_dict(), decision_seconds=None) for entry in graded]


@st.composite
def _streams(draw):
    """A window, then a stream of whole windows and a tail — often a
    tail of one, which ``step_batch`` decides through ``policy.decide``."""
    window = draw(st.integers(1, 64))
    full = draw(st.integers(0, max(1, 96 // window)))
    tail = draw(st.one_of(st.just(1), st.integers(0, window - 1)))
    length = max(full * window + tail, 1)
    vcpus = draw(
        st.lists(st.sampled_from((4, 8, 10, 16, 32)), min_size=1, max_size=3)
    )
    seed = draw(st.integers(0, 10_000))
    return window, generate_request_stream(
        length, seed=seed, vcpus_choices=tuple(vcpus)
    )


@pytest.mark.parametrize("name", sorted(POLICIES))
@settings(max_examples=10, deadline=None)
@given(
    machine=st.sampled_from(("amd", "intel", "mixed")),
    hosts=st.integers(2, 6),
    drawn=_streams(),
)
def test_windowed_run_equals_the_one_shot_oracle(name, machine, hosts, drawn):
    """``run(window=b)`` over arrivals alone, rebalancer off, is the
    batch loop: every graded decision, the prediction and IPC-memo
    counters and the utilizations agree."""
    window, requests = drawn
    config = ScheduleConfig(machine=machine, hosts=hosts)

    def fresh():
        registry = ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)
        return config.build_fleet(), make_policy(name, registry=registry), registry

    fleet, policy, registry = fresh()
    engine = one_shot_engine(fleet, policy, registry=registry).run(
        requests, window=window
    )
    fleet, policy, registry = fresh()
    oracle = one_shot_oracle(
        fleet, policy, requests, window=window, registry=registry
    )
    assert engine.churn.departures == engine.churn.n_migrations == 0
    assert _timeless(engine.decisions) == _timeless(oracle.decisions)
    assert engine.placed == oracle.placed
    assert engine.predict_calls == oracle.predict_calls
    assert engine.predicted_rows == oracle.predicted_rows
    assert engine.ipc_cache_info == oracle.ipc_cache_info
    assert engine.thread_utilization == oracle.thread_utilization
    assert engine.node_utilization == oracle.node_utilization
    assert engine.busiest_host_utilization == oracle.busiest_host_utilization
