"""``capacity`` read off the index == ``capacity`` found by the full walk.

The goal-aware policy rejects for capacity without probing when the
fleet index says no host of any hostable shape has a candidate's worth
of free nodes.  That is only an optimisation if it changes nothing, so a
near-full churn on a mixed fleet is replayed under three policies — the
production one, its ``indexed=False`` linear twin and
:class:`~tests.scheduler.oracle_policy.FullWalkPolicy`, which always
probes, predicts and walks every rank — through the lifecycle engine
(window 1 and window 8, rebalancer on and off), and everything the
engine produced must match: decisions, migrations, rebalance counters,
the fragmentation timeline and every host's final free mask.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.perfsim import workload_by_name
from repro.scheduler import (
    EventKind,
    Fleet,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    ModelRegistry,
    PlacementRequest,
    RebalanceConfig,
    events_from_requests,
    generate_churn_stream,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from tests.scheduler.oracle_policy import FullWalkPolicy

#: 10 vCPUs have no important placement on the AMD shape (one lane is
#: None), 200 fit no shape at all (``infeasible`` must keep winning over
#: ``capacity`` on a full fleet).
VCPUS = (8, 10, 16, 32, 200)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)


def _policies(registry):
    return {
        "indexed": GoalAwareFleetPolicy(registry),
        "linear": GoalAwareFleetPolicy(registry, indexed=False),
        "full walk": FullWalkPolicy(registry),
    }


def _fleet():
    return Fleet.mixed(
        [(amd_opteron_6272(), 5), (intel_xeon_e7_4830_v3(), 4)]
    )


def _stream(seed, mean_lifetime, vcpus_choices):
    return generate_churn_stream(
        100,
        seed=seed,
        vcpus_choices=tuple(vcpus_choices),
        arrival_rate=2.0,
        mean_lifetime=mean_lifetime,
    )


def _replay(policy, fleet, requests, window, rebalance):
    """Drive the engine the way a shard does: consecutive arrivals go
    through ``step_batch`` up to ``window`` at a time, a departure
    flushes the window first.  Returns everything observable."""
    engine = LifecycleScheduler(
        fleet,
        policy,
        registry=policy.registry,
        config=RebalanceConfig(enabled=rebalance),
    )
    pending = []
    for event in events_from_requests(requests).drain():
        if event.kind is EventKind.ARRIVAL:
            pending.append(event)
            if len(pending) < window:
                continue
        if pending:
            engine.step_batch(pending)
            pending = []
        if event.kind is not EventKind.ARRIVAL:
            engine.step(event)
    fleet.index.assert_consistent(fleet.hosts)
    stats = engine.stats
    return {
        "decisions": [
            (
                g.decision.request.request_id,
                g.decision.host_id,
                g.decision.placement_id,
                g.decision.reject_reason,
                g.decision.block_exact,
                g.achieved_relative,
            )
            for g in engine.graded
        ],
        "migrations": stats.migrations,
        "rebalance": (stats.rebalance_attempts, stats.rebalance_recovered),
        "timeline": stats.fragmentation_timeline,
        "hosts": [
            (host.host_id, host.free_mask, sorted(host.placements))
            for host in fleet.hosts
        ],
    }


@pytest.mark.parametrize("rebalance", [True, False], ids=["rebalance", "static"])
@pytest.mark.parametrize("window", [1, 8])
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mean_lifetime=st.sampled_from([20.0, 40.0]),
    vcpus_choices=st.lists(st.sampled_from(VCPUS), min_size=2, max_size=6),
)
# Streams known to fragment: 4 and 2 rebalance recoveries at window 8.
@example(seed=1, mean_lifetime=20.0, vcpus_choices=[8, 16, 32])
@example(seed=2, mean_lifetime=40.0, vcpus_choices=[8, 8, 16, 32, 10, 200])
def test_near_full_churn_is_decided_identically(
    registry, window, rebalance, seed, mean_lifetime, vcpus_choices
):
    requests = _stream(seed, mean_lifetime, vcpus_choices)
    outcomes = {
        name: _replay(policy, _fleet(), requests, window, rebalance)
        for name, policy in _policies(registry).items()
    }
    assert outcomes["indexed"] == outcomes["full walk"]
    assert outcomes["linear"] == outcomes["full walk"]


def test_the_streams_above_do_saturate(registry):
    """The property is only worth its name if rejects of both kinds and
    recoveries happen under it: one fixed draw of it, counted."""
    requests = _stream(2, 40.0, [8, 8, 16, 32, 10, 200])
    outcome = _replay(FullWalkPolicy(registry), _fleet(), requests, 8, True)
    reasons = [row[3] for row in outcome["decisions"]]
    assert reasons.count("capacity") >= 20
    assert reasons.count("infeasible") >= 5
    assert reasons.count(None) >= 20
    assert outcome["rebalance"] == (2, 2) and len(outcome["migrations"]) == 2


@pytest.mark.parametrize("name", ["indexed", "linear", "full walk"])
def test_a_group_that_runs_out_of_room_mid_batch(registry, name):
    """Room at batch start, none by the last request: the group is
    probed (it was feasible when the batch began), the first requests
    take the space and the rest are ``capacity`` — while a request no
    shape can host stays ``infeasible`` on the now full fleet."""
    policy = _policies(registry)[name]
    fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
    profile = workload_by_name("gcc")
    requests = [
        PlacementRequest(request_id=2 * i, profile=profile, vcpus=32)
        for i in range(5)
    ] + [PlacementRequest(request_id=100, profile=profile, vcpus=200)]
    rows_before = policy.predicted_rows
    decisions = policy.decide_batch(requests, fleet)
    placed = [d for d in decisions if d.placed]
    assert 1 <= len(placed) < 5
    assert [d.reject_reason for d in decisions[: len(placed)]] == [None] * len(
        placed
    )
    assert [d.reject_reason for d in decisions[len(placed) : 5]] == [
        "capacity"
    ] * (5 - len(placed))
    assert decisions[5].reject_reason == "infeasible"
    assert policy.predicted_rows - rows_before == 5
    assert fleet.index.free_nodes_total < 4  # a 32-vCPU block needs 4 nodes

    # The next batch finds the fleet full from the start: same answers,
    # and only the oracle still probes to get them.
    again = policy.decide_batch(
        [
            PlacementRequest(request_id=200, profile=profile, vcpus=32),
            PlacementRequest(request_id=202, profile=profile, vcpus=200),
        ],
        fleet,
    )
    assert [d.reject_reason for d in again] == ["capacity", "infeasible"]
