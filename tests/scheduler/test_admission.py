"""Admission control: screens, shed policies, brown-out, and the
equivalence gates.

The contracts under test:

* **Controller semantics** — feasibility/saturation screens, the three
  shed policies, deadline expiry, cancel/drain/flush, and brown-out
  hysteresis, all against a bare :class:`AdmissionController`.
* **Equivalence gates** — admission off is the PR-9 service (the
  pre-existing suites pin that); admission on under no overload changes
  *decisions* not at all — only the typed counters differ — on both
  transports and under fault injection.
* **Saturation** — with the fleet provably full, the front end rejects
  up front: the same requests are placed, the same requests are
  rejected (with ``admission:capacity`` standing in for the shard-side
  ``capacity``), and retry fan-outs are short-circuited.
* **Brown-out** — with a shard down for multiple rounds, best-effort
  arrivals are held/shed while strict-goal traffic keeps flowing, and
  every request is still decided exactly once.
"""

import dataclasses

import pytest

from repro.scheduler import (
    AdmissionController,
    FaultPlan,
    ScheduleConfig,
    SchedulerService,
    generate_request_stream,
)
from repro.scheduler.admission import (
    REASON_BROWNOUT,
    REASON_CAPACITY,
    REASON_DEADLINE,
    REASON_EVICTED,
    REASON_EXPIRED,
    REASON_INFEASIBLE,
    REASON_QUEUE_FULL,
)
from repro.topology import amd_opteron_6272
from tests.scheduler.test_faults import FAST_REFERENCE
from tests.scheduler.test_service import CHURN_REFERENCE, _fingerprints

#: Queue-shed reasons that must never hit strict-goal traffic.
_QUEUE_REASONS = (
    REASON_QUEUE_FULL,
    REASON_EVICTED,
    REASON_DEADLINE,
    REASON_EXPIRED,
    REASON_BROWNOUT,
)

#: The reference churn config with enough hosts that nothing is ever
#: rejected: with zero capacity rejects the admission path may not
#: change one byte of the report.
ROOMY = dict(CHURN_REFERENCE, hosts=10, shards=2, window=4)

#: A tiny fleet under a sustained burst of immortal containers: the
#: fleet fills early and every later arrival is provably unplaceable.
SATURATED = dict(
    machine="amd",
    hosts=2,
    requests=40,
    seed=11,
    churn=True,
    policy="first-fit",
    arrival_rate=5.0,
    mean_lifetime=100000.0,
    heavy_tail=True,
    vcpus=(8, 16),
    shards=2,
    window=4,
)


def _serve(config, faults=None):
    with SchedulerService(config, faults=faults) as service:
        report = service.serve()
        return report, service.stats


def _signature(report):
    return (
        _fingerprints(report.decisions),
        report.placed,
        report.rejected,
        report.churn.to_dict(),
    )


def _outcomes(report):
    """request_id -> (placed, reject_reason) with the admission-typed
    capacity reason folded onto the shard-side one."""
    out = {}
    for graded in report.decisions:
        decision = graded.decision
        reason = decision.reject_reason
        if reason == REASON_CAPACITY:
            reason = "capacity"
        out[decision.request.request_id] = (decision.placed, reason)
    return out


def _requests(n, *, vcpus=8, goal=None, seed=0):
    stream = generate_request_stream(n, seed=seed, vcpus_choices=(vcpus,))
    return [
        dataclasses.replace(request, goal_fraction=goal)
        for request in stream
    ]


class TestAdmissionController:
    def _controller(self, **overrides):
        values = dict(machines=[amd_opteron_6272()], classes=(8, 16))
        values.update(overrides)
        return AdmissionController(**values)

    def test_feasibility_screen(self):
        controller = self._controller()
        assert controller.feasible(8)
        assert not controller.feasible(1024)
        request = _requests(1, vcpus=1024)[0]
        decision, sheds = controller.screen(request, 0.0)
        assert decision.outcome == "reject"
        assert decision.reason == REASON_INFEASIBLE
        assert sheds == []
        assert controller.stats.rejected_infeasible == 1

    def test_saturation_screen(self):
        controller = self._controller()
        request = _requests(1)[0]
        decision, _ = controller.screen(request, 0.0, saturated=True)
        assert decision.reason == REASON_CAPACITY
        assert controller.stats.rejected_capacity == 1

    def test_admit_outside_brownout(self):
        controller = self._controller()
        decision, _ = controller.screen(_requests(1)[0], 0.0)
        assert decision.outcome == "admit"
        assert controller.stats.admitted == 1

    def test_brownout_holds_best_effort_not_strict(self):
        controller = self._controller()
        assert controller.observe(1, None) == "entered"
        best_effort, strict = _requests(1), _requests(1, goal=0.9, seed=1)
        held, _ = controller.screen(best_effort[0], 1.0)
        admitted, _ = controller.screen(strict[0], 1.0)
        assert held.outcome == "hold"
        assert admitted.outcome == "admit"
        assert len(controller._held) == 1
        assert controller.is_held(best_effort[0].request_id)

    def test_drop_newest_rejects_overflow(self):
        controller = self._controller(queue_limit=2)
        controller.observe(1, None)
        first, second, third = _requests(3)
        controller.screen(first, 0.0)
        controller.screen(second, 0.0)
        decision, sheds = controller.screen(third, 0.0)
        assert decision.outcome == "reject"
        assert decision.reason == REASON_QUEUE_FULL
        assert sheds == []
        assert len(controller._held) == 2

    def test_drop_oldest_evicts_head(self):
        controller = self._controller(
            queue_limit=2, shed_policy="drop-oldest"
        )
        controller.observe(1, None)
        first, second, third = _requests(3)
        controller.screen(first, 0.0)
        controller.screen(second, 1.0)
        decision, sheds = controller.screen(third, 2.0)
        assert decision.outcome == "hold"
        assert [
            (request.request_id, reason) for request, _, reason in sheds
        ] == [(first.request_id, REASON_EVICTED)]
        assert not controller.is_held(first.request_id)
        assert controller.is_held(third.request_id)

    def test_deadline_expiry_sheds_stale_heads(self):
        controller = self._controller(
            shed_policy="deadline", deadline_budget_s=5.0
        )
        controller.observe(1, None)
        first, second = _requests(2)
        controller.screen(first, 0.0)
        controller.screen(second, 4.0)
        assert controller.expire(4.5) == []
        sheds = controller.expire(6.0)
        assert [r.request_id for r, _, _ in sheds] == [first.request_id]
        assert sheds[0][2] == REASON_DEADLINE
        assert len(controller._held) == 1

    def test_cancel_and_flush(self):
        controller = self._controller()
        controller.observe(1, None)
        first, second = _requests(2)
        controller.screen(first, 0.0)
        controller.screen(second, 0.0)
        shed = controller.cancel(first.request_id)
        assert shed is not None and shed[2] == REASON_EXPIRED
        assert controller.cancel(999) is None
        flushed = controller.flush()
        assert [r.request_id for r, _, _ in flushed] == [second.request_id]
        assert flushed[0][2] == REASON_BROWNOUT
        assert len(controller._held) == 0

    def test_drain_releases_holds_in_order(self):
        controller = self._controller()
        controller.observe(1, None)
        held = _requests(3)
        for position, request in enumerate(held):
            controller.screen(request, float(position))
        drained = controller.drain()
        assert [r.request_id for r, _ in drained] == [
            r.request_id for r in held
        ]
        assert controller.stats.drained == 3
        assert len(controller._held) == 0

    def test_hysteresis_band(self):
        controller = self._controller(brownout_watermark=0.5)
        assert controller.exit_watermark == 0.75
        assert controller.observe(0, 0.6) is None  # above entry watermark
        assert controller.observe(0, 0.4) == "entered"
        # Recovery to just above the entry watermark is not enough.
        assert controller.observe(0, 0.6) is None
        assert controller.in_brownout
        assert controller.observe(0, 0.8) == "exited"
        assert controller.stats.brownout_entries == 1
        assert controller.stats.brownout_exits == 1

    def test_down_shard_blocks_exit(self):
        controller = self._controller(brownout_watermark=0.5)
        controller.observe(1, 1.0)
        assert controller.in_brownout
        assert controller.observe(1, 1.0) is None  # still down: no exit
        assert controller.observe(0, 1.0) == "exited"

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="shed_policy"):
            self._controller(shed_policy="drop-random")
        with pytest.raises(ValueError, match="queue_limit"):
            self._controller(queue_limit=0)
        with pytest.raises(ValueError, match="brownout_watermark"):
            self._controller(brownout_watermark=1.5)
        with pytest.raises(ValueError, match="deadline_budget_s"):
            self._controller(deadline_budget_s=0.0)


class TestConfigValidation:
    def test_admission_knobs_require_admission(self):
        with pytest.raises(ValueError, match="require --admission"):
            ScheduleConfig(queue_limit=4).validate()
        with pytest.raises(ValueError, match="require --admission"):
            ScheduleConfig(brownout_watermark=0.5).validate()

    def test_shed_policy_membership(self):
        with pytest.raises(ValueError, match="unknown shed policy"):
            ScheduleConfig(admission=True, shed_policy="nope").validate()


class TestNoOverloadEquivalence:
    """Admission on, fleet never stressed: the report is bit-for-bit
    the admission-off report; only the typed counters differ."""

    def test_inline_signature_identical(self):
        protected, on_stats = _serve(
            ScheduleConfig(**ROOMY, admission=True)
        )
        baseline, off_stats = _serve(ScheduleConfig(**ROOMY))
        assert _signature(protected) == _signature(baseline)
        assert off_stats.admission is None
        assert on_stats.admission is not None
        assert on_stats.admission.offered == on_stats.admission.admitted
        assert on_stats.admission.rejected_total == 0
        assert on_stats.retries_short_circuited == 0

    def test_process_signature_identical(self):
        config = dict(ROOMY, requests=30, workers="process")
        protected, _ = _serve(ScheduleConfig(**config, admission=True))
        baseline, _ = _serve(ScheduleConfig(**config))
        assert _signature(protected) == _signature(baseline)

    def test_faulted_signature_identical(self):
        """Immediate recovery keeps every health observation UP, so
        admission stays out of brown-out even under the chaos plan."""
        config = dict(ROOMY, backoff_base_s=0.0)
        plan = FaultPlan.kill_each_shard_once(2, seed=config["seed"])
        protected, on_stats = _serve(
            ScheduleConfig(**config, admission=True), faults=plan
        )
        baseline, _ = _serve(ScheduleConfig(**config), faults=plan)
        assert _signature(protected) == _signature(baseline)
        assert on_stats.crashes == 2

    def test_decisions_identical_with_shard_side_rejects(self):
        """On the tighter reference fleet (shard-side capacity rejects
        exist) decisions still match decision-for-decision; only the
        skipped retry fan-outs' fragmentation samples may differ."""
        config = dict(CHURN_REFERENCE, shards=2, window=4)
        protected, on_stats = _serve(
            ScheduleConfig(**config, admission=True)
        )
        baseline, _ = _serve(ScheduleConfig(**config))
        assert _fingerprints(protected.decisions) == _fingerprints(
            baseline.decisions
        )
        assert protected.placed == baseline.placed
        assert protected.rejected == baseline.rejected
        assert on_stats.admission.rejected_capacity == 0


class TestSaturation:
    def test_front_end_rejects_match_shard_rejects(self):
        protected, on_stats = _serve(
            ScheduleConfig(**SATURATED, admission=True)
        )
        baseline, off_stats = _serve(ScheduleConfig(**SATURATED))
        # Same requests placed, same requests rejected — the typed
        # admission:capacity reason stands in for the shard-side one.
        assert _outcomes(protected) == _outcomes(baseline)
        assert on_stats.admission.rejected_capacity > 0
        # Front-end rejects never reach a shard: routing traffic drops.
        assert on_stats.routed < off_stats.routed
        # The satellite fix: with every summary proving zero capacity,
        # the retry path skips its pointless fan-outs too.
        assert on_stats.retries_short_circuited > 0
        assert on_stats.retries < off_stats.retries

    def test_admission_counters_reach_the_report(self):
        report, stats = _serve(ScheduleConfig(**SATURATED, admission=True))
        assert report.service is not None
        assert report.service.admission is not None
        assert (
            report.service.admission.rejected_capacity
            == stats.admission.rejected_capacity
        )
        ids = [d.decision.request.request_id for d in report.decisions]
        assert len(ids) == len(set(ids)) == SATURATED["requests"]


class TestBrownout:
    def _chaos_config(self, **overrides):
        values = dict(
            FAST_REFERENCE,
            shards=2,
            window=4,
            backoff_base_s=0.0,
            recovery_rounds=2,
            admission=True,
        )
        values.update(overrides)
        return ScheduleConfig(**values)

    def test_down_shard_sheds_best_effort_only(self):
        config = self._chaos_config()
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        report, stats = _serve(config, faults=plan)
        admission = stats.admission
        assert admission.brownout_entries >= 1
        assert admission.held > 0
        # Strict-goal traffic is never queued or queue-shed.
        for graded in report.decisions:
            decision = graded.decision
            if decision.request.goal_fraction is not None:
                assert decision.reject_reason not in _QUEUE_REASONS
        # Strict-goal goodput survives the brown-out.
        assert any(
            g.decision.placed
            and g.decision.request.goal_fraction is not None
            for g in report.decisions
        )
        # Every request is decided exactly once, shed or placed.
        ids = [d.decision.request.request_id for d in report.decisions]
        assert len(ids) == len(set(ids)) == config.requests

    def test_recovery_exits_and_drains(self):
        config = self._chaos_config(requests=60)
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        _, stats = _serve(config, faults=plan)
        admission = stats.admission
        assert admission.brownout_exits >= 1
        assert admission.drained > 0

    def test_queue_limit_bounds_the_held_backlog(self):
        config = self._chaos_config(queue_limit=2)
        plan = FaultPlan.kill_each_shard_once(2, seed=config.seed)
        report, stats = _serve(config, faults=plan)
        admission = stats.admission
        assert admission.held_peak <= 2
        assert admission.shed_total + admission.drained >= 0
        ids = [d.decision.request.request_id for d in report.decisions]
        assert len(ids) == len(set(ids)) == config.requests
