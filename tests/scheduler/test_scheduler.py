"""Tests for the fleet scheduler control loop and report."""

import pytest

from repro.scheduler import (
    Fleet,
    FirstFitFleetPolicy,
    FleetScheduler,
    GoalAwareFleetPolicy,
    ModelRegistry,
    generate_request_stream,
)
from repro.topology import amd_opteron_6272


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)


def _ml_scheduler(n_hosts, registry, **kwargs):
    return FleetScheduler(
        Fleet.homogeneous(amd_opteron_6272(), n_hosts),
        GoalAwareFleetPolicy(registry),
        registry=registry,
        **kwargs,
    )


class TestFleetScheduler:
    def test_report_accounting(self, registry):
        requests = generate_request_stream(20, seed=1, vcpus_choices=(16,))
        report = _ml_scheduler(6, registry, batch_size=8).run(requests)
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
        report = _ml_scheduler(4, registry, batch_size=4).run(requests)
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
        report = _ml_scheduler(4, registry, batch_size=8).run(requests)
        for graded in report.decisions:
            if graded.decision.placed:
                expected = graded.achieved_relative < 1.0
                assert graded.violated == expected

    def test_describe_mentions_key_lines(self, registry):
        requests = generate_request_stream(6, seed=4, vcpus_choices=(16,))
        report = _ml_scheduler(3, registry, batch_size=8).run(requests)
        text = report.describe()
        assert "fleet report" in text
        assert "goal violations" in text
        assert "enumeration pipeline runs" in text
        assert "requests/s" in text

    def test_heuristic_policy_report_has_no_prediction_stats(self, registry):
        requests = generate_request_stream(6, seed=5, vcpus_choices=(16,))
        scheduler = FleetScheduler(
            Fleet.homogeneous(amd_opteron_6272(), 2),
            FirstFitFleetPolicy(),
            registry=registry,
        )
        report = scheduler.run(requests)
        assert report.policy == "first-fit"
        assert report.predict_calls == 0
        assert "batched prediction" not in report.describe()

    def test_batch_size_validation(self, registry):
        with pytest.raises(ValueError):
            _ml_scheduler(2, registry, batch_size=0)

    def test_zero_admitted_report_percentages_are_zero(self, registry):
        """Regression: a report where nothing was admitted must describe
        itself (percentages print 0) instead of dividing by zero."""
        # 7 vCPUs cannot be balanced on the AMD shape -> all infeasible,
        # and best-effort goals keep goal_bearing at 0 too.
        requests = generate_request_stream(
            5, seed=1, vcpus_choices=(7,), goal_choices=(None,)
        )
        report = _ml_scheduler(2, registry, batch_size=4).run(requests)
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
        report = _ml_scheduler(2, registry).run([])
        assert report.n_requests == 0
        assert report.admission_pct == 0.0
        assert report.violation_pct == 0.0
        assert report.decision_latency_ms() == (0.0, 0.0)
        assert "placed 0" in report.describe()

    def test_admission_and_violation_percentages(self, registry):
        requests = generate_request_stream(20, seed=1, vcpus_choices=(16,))
        report = _ml_scheduler(6, registry, batch_size=8).run(requests)
        assert report.admission_pct == pytest.approx(
            100.0 * report.placed / report.n_requests
        )
        assert report.violation_pct == pytest.approx(
            100.0 * report.violations / report.goal_bearing
        )

    def test_memoized_runs_once_per_key(self, empty_artifact_store):
        registry = ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)
        requests = generate_request_stream(12, seed=6, vcpus_choices=(8, 16))
        report = _ml_scheduler(4, registry, batch_size=4).run(requests)
        # Two vcpu sizes on one shape: exactly two pipeline runs, the rest
        # of the stream hits the cache.
        assert report.enumeration_runs == 2
        assert report.cache_info.hits > 0

    def test_naive_and_fast_paths_agree(self):
        """The memo cache and batched prediction are pure optimizations:
        the naive per-request pipeline must make identical decisions."""
        requests = generate_request_stream(14, seed=7, vcpus_choices=(8, 16))

        fast_registry = ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)
        fast = _ml_scheduler(4, fast_registry, batch_size=8).run(requests)

        naive_registry = ModelRegistry(
            n_estimators=6, n_synthetic=2, seed=0, memoize_enumeration=False
        )
        naive = _ml_scheduler(4, naive_registry, batch_size=1).run(requests)

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
