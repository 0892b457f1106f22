"""Tests for the fleet policies."""

import pytest

from repro.scheduler import (
    Fleet,
    FirstFitFleetPolicy,
    GoalAwareFleetPolicy,
    ModelRegistry,
    PlacementRequest,
    SpreadFleetPolicy,
    minimal_l2_share,
    minimal_node_count,
)
from repro.core.placements import Placement
from repro.perfsim import workload_by_name
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3


def _request(request_id, vcpus=16, goal=None, workload="gcc"):
    return PlacementRequest(
        request_id=request_id,
        profile=workload_by_name(workload),
        vcpus=vcpus,
        goal_fraction=goal,
    )


@pytest.fixture(scope="module")
def registry():
    # Tiny models keep the suite fast; accuracy is not under test here.
    return ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)


class TestHelpers:
    def test_minimal_node_count(self):
        machine = amd_opteron_6272()
        assert minimal_node_count(machine, 8) == 1
        assert minimal_node_count(machine, 16) == 2
        assert minimal_node_count(machine, 32) == 4
        with pytest.raises(ValueError):
            minimal_node_count(machine, machine.total_threads * 2)

    def test_minimal_l2_share(self):
        machine = amd_opteron_6272()  # 8 L2 groups x 2 threads per node
        assert minimal_l2_share(machine, 4) == 1
        assert minimal_l2_share(machine, 8) == 2
        with pytest.raises(ValueError):
            minimal_l2_share(machine, 3 * machine.threads_per_node)

    def test_minimal_shape_skips_l2_infeasible_node_counts(self):
        from repro.scheduler import minimal_shape

        machine = amd_opteron_6272()
        # 10 vCPUs: 2 nodes divide evenly but 5-per-node cannot balance
        # over 4 L2 groups; the cheapest realizable shape is 5 nodes.
        assert minimal_shape(machine, 10) == (5, 1)
        assert minimal_node_count(machine, 10) == 5


class TestHeuristicPolicies:
    def test_first_fit_packs_in_host_order(self):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 3)
        policy = FirstFitFleetPolicy()
        decisions = policy.decide_batch(
            [_request(k, vcpus=16) for k in range(1, 5)], fleet
        )
        assert all(d.placed for d in decisions)
        # 16 vCPUs need two AMD nodes; four requests fill host 0 exactly.
        assert {d.host_id for d in decisions} == {0}

    def test_spread_balances(self):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 3)
        decisions = SpreadFleetPolicy().decide_batch(
            [_request(k, vcpus=16) for k in range(1, 4)], fleet
        )
        assert sorted(d.host_id for d in decisions) == [0, 1, 2]

    def test_rejects_when_full(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 1)
        requests = [_request(k, vcpus=16) for k in range(1, 11)]
        decisions = FirstFitFleetPolicy().decide_batch(requests, fleet)
        placed = [d for d in decisions if d.placed]
        rejected = [d for d in decisions if not d.placed]
        assert len(placed) == machine.n_nodes // 2  # two nodes each
        assert rejected and all(d.reject_reason == "capacity" for d in rejected)

    def test_places_l2_awkward_vcpus(self):
        # Regression: 10 vCPUs cannot balance on the minimal even divisor
        # (2 nodes) of the AMD machine, but must still be placed (5 nodes).
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        decision = FirstFitFleetPolicy().decide_batch(
            [_request(1, vcpus=10)], fleet
        )[0]
        assert decision.placed
        assert decision.placement.n_nodes == 5

    def test_rejects_infeasible_vcpus(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 1)
        decisions = FirstFitFleetPolicy().decide_batch(
            [_request(1, vcpus=machine.total_threads * 2)], fleet
        )
        assert not decisions[0].placed
        assert decisions[0].reject_reason == "infeasible"

    def test_decision_describe(self):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        decision = FirstFitFleetPolicy().decide_batch([_request(1)], fleet)[0]
        assert "host 0" in decision.describe()


class TestGoalAwarePolicy:
    def test_places_and_reports_prediction(self, registry):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 2)
        policy = GoalAwareFleetPolicy(registry)
        decisions = policy.decide_batch(
            [_request(1, goal=0.9), _request(2, goal=None)], fleet
        )
        assert all(d.placed for d in decisions)
        for decision in decisions:
            assert decision.placement_id is not None
            assert decision.predicted_relative is not None
            assert decision.block_exact

    def test_batched_prediction_accounting(self, registry):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 2)
        policy = GoalAwareFleetPolicy(registry)
        requests = [_request(k, vcpus=16) for k in range(1, 9)]
        policy.decide_batch(requests, fleet)
        assert policy.predict_calls == 1
        assert policy.predicted_rows == len(requests)

    def test_one_fused_forest_call_per_batch(self, registry):
        """A batch spanning several (shape, vcpus) keys — several distinct
        models — still costs exactly one fused forest call."""
        from repro.ml.arena import ARENA_STATS

        fleet = Fleet.mixed(
            [(amd_opteron_6272(), 2), (intel_xeon_e7_4830_v3(), 2)]
        )
        policy = GoalAwareFleetPolicy(registry)
        requests = [
            _request(k, vcpus=8 if k % 2 else 16) for k in range(1, 9)
        ]
        before = ARENA_STATS.fused_calls
        policy.decide_batch(requests, fleet)
        assert policy.predict_calls == 1
        assert policy.predicted_rows == 2 * len(requests), (
            "every request is predicted once per hosting shape"
        )
        assert ARENA_STATS.fused_calls == before + 1

    def test_preference_order_matches_the_keyed_sorts(self, registry):
        """The tuple sort over precomputed node counts orders candidates
        exactly as the two stable keyed sorts it replaced, ties included
        (coarse predictions tie often)."""
        import numpy as np

        def reference(policy, sizes, vector, goal_fraction):
            indices = list(range(len(sizes)))
            if goal_fraction is None:
                threshold = policy.best_effort_slack * float(max(vector))
            else:
                threshold = goal_fraction * (1.0 + policy.safety_margin)
            meeting = [k for k in indices if vector[k] >= threshold]
            rest = [k for k in indices if vector[k] < threshold]
            meeting.sort(key=lambda k: (sizes[k], -vector[k]))
            rest.sort(key=lambda k: -vector[k])
            return meeting + rest

        policy = GoalAwareFleetPolicy(registry)
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            sizes = tuple(int(size) for size in rng.integers(1, 5, size=n))
            vector = np.round(rng.uniform(0.6, 1.3, size=n), 1)
            for goal in (None, 0.9, 1.0):
                assert policy._preference_order(
                    sizes, vector, goal
                ) == reference(policy, sizes, vector, goal)

    def test_goal_bearing_prefers_cheap_placements(self, registry):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        policy = GoalAwareFleetPolicy(registry)
        low_goal, best_effort = policy.decide_batch(
            [
                _request(1, goal=0.5, workload="swaptions"),
                _request(2, goal=None, workload="swaptions"),
            ],
            fleet,
        )
        # An easy goal is met with fewer (or equal) nodes than a
        # maximize-performance best-effort request needs.
        assert low_goal.placement.n_nodes <= best_effort.placement.n_nodes

    def test_mixed_fleet_uses_both_shapes(self, registry):
        fleet = Fleet.mixed(
            [(amd_opteron_6272(), 2), (intel_xeon_e7_4830_v3(), 2)]
        )
        policy = GoalAwareFleetPolicy(registry)
        requests = [_request(k, vcpus=8) for k in range(1, 13)]
        decisions = policy.decide_batch(requests, fleet)
        shapes = {
            fleet.hosts[d.host_id].machine.name
            for d in decisions
            if d.placed
        }
        assert len(shapes) == 2

    def test_rejects_when_fleet_full(self, registry):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        policy = GoalAwareFleetPolicy(registry)
        decisions = policy.decide_batch(
            [_request(k, vcpus=16, goal=1.0) for k in range(1, 20)], fleet
        )
        rejected = [d for d in decisions if not d.placed]
        assert rejected
        assert all(d.reject_reason == "capacity" for d in rejected)

    def test_full_fleet_is_answered_without_probing(self, registry):
        """``capacity`` on a fleet with no room costs no probe and no
        forest call, for either host-selection path; ``infeasible``
        keeps its precedence, and the accounting counts probed requests
        only."""
        machine = amd_opteron_6272()
        for indexed in (True, False):
            fleet = Fleet.homogeneous(machine, 2)
            policy = GoalAwareFleetPolicy(registry, indexed=indexed)
            for host in fleet.hosts:
                host.allocate(
                    1000 + host.host_id,
                    Placement(machine, range(8), 64, l2_share=2),
                )
            calls, rows = policy.predict_calls, policy.predicted_rows
            probes = registry.ipc_cache_info()
            decisions = policy.decide_batch(
                [
                    _request(10, vcpus=8),
                    _request(12, vcpus=machine.total_threads * 2),
                    _request(14, vcpus=16, goal=1.0),
                ],
                fleet,
            )
            assert [d.reject_reason for d in decisions] == [
                "capacity",
                "infeasible",
                "capacity",
            ]
            assert (policy.predict_calls, policy.predicted_rows) == (calls, rows)
            assert registry.ipc_cache_info() == probes

    def test_smallest_block_has_one_definition(self, registry):
        """What the rebalancer frees (``min_block_nodes``) and what the
        capacity check asks for (the lane's ``smallest``) are one number:
        the smallest important placement of the key."""
        policy = GoalAwareFleetPolicy(registry)
        for machine in (amd_opteron_6272(), intel_xeon_e7_4830_v3()):
            for vcpus in (8, 16, 32):
                smallest = min(
                    p.n_nodes for p in registry.placements(machine, vcpus)
                )
                assert policy.min_block_nodes(machine, vcpus) == smallest
                assert policy._lane(machine, vcpus).smallest == smallest
            assert policy.min_block_nodes(machine, 4096) is None
        # 10 vCPUs have no important placement on the AMD shape.
        assert policy.min_block_nodes(amd_opteron_6272(), 10) is None

    def test_rejects_infeasible_everywhere(self, registry):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 1)
        policy = GoalAwareFleetPolicy(registry)
        decisions = policy.decide_batch(
            [_request(1, vcpus=machine.total_threads * 2)], fleet
        )
        assert decisions[0].reject_reason == "infeasible"

    def test_validation(self, registry):
        with pytest.raises(ValueError):
            GoalAwareFleetPolicy(registry, safety_margin=-0.1)
        with pytest.raises(ValueError):
            GoalAwareFleetPolicy(registry, best_effort_slack=0.0)


def _signature(decisions):
    return [
        (
            d.request.request_id,
            d.host_id,
            d.placement_id,
            None if d.placement is None else d.placement.nodes,
            d.predicted_relative,
            d.block_exact,
            d.reject_reason,
        )
        for d in decisions
    ]


def _mixed_requests(n, first_id=1):
    workloads = ("gcc", "swaptions", "WTbtree", "kmeans")
    return [
        _request(
            k,
            vcpus=(8, 16, 8, 32)[k % 4],
            goal=(None, 0.9, 1.0)[k % 3],
            workload=workloads[k % 4],
        )
        for k in range(first_id, first_id + n)
    ]


class TestLanes:
    """The per-(placement set, model) lanes under ``decide_batch``."""

    def test_lane_lru_eviction(self, registry):
        from repro.core.enumeration import enumerate_important_placements

        machine = amd_opteron_6272()
        model = registry.model(machine, 16)

        class _Serving:
            """Registry stand-in serving whichever set the test names."""

            current = None

            def placements(self, machine, vcpus):
                return self.current

            def model(self, machine, vcpus):
                return model

            probe_row = registry.probe_row

        serving = _Serving()
        policy = GoalAwareFleetPolicy(serving)
        policy._lanes_max = 3

        def lane_of(placements):
            serving.current = placements
            return policy._lane(machine, 16)

        def resident(placements):
            return (id(placements), id(model)) in policy._lanes

        sets = [enumerate_important_placements(machine, 16) for _ in range(5)]
        lanes = [lane_of(s) for s in sets]
        assert len(policy._lanes) == 3
        # Newest three survive, oldest two were evicted.
        assert not resident(sets[0]) and not resident(sets[1])
        assert resident(sets[4])
        # A hit returns the same lane and refreshes recency: touch
        # sets[2], insert a new set, and sets[3] (now the stalest) is the
        # one evicted.
        assert lane_of(sets[2]) is lanes[2]
        lane_of(enumerate_important_placements(machine, 16))
        assert resident(sets[2]) and not resident(sets[3])
        assert len(policy._lanes) == 3

    def test_promotion_between_batches_is_picked_up(self, monkeypatch):
        """A lane is found by the identity of what the registry serves,
        so the batch after a ``ModelServer.promote`` predicts with the
        promoted forest and searches the version-bumped block-state memo.
        Oracle: the same policy with its lanes dropped before every
        batch, which cannot carry anything across the promotion."""
        from repro.core.blockscores import block_state_memo
        from repro.scheduler import policies
        from repro.serving import ModelServer

        machine = amd_opteron_6272()
        requests = [_request(k, vcpus=8, goal=(None, 0.9)[k % 2])
                    for k in range(1, 25)]
        forests = []
        fused = policies.predict_fused
        monkeypatch.setattr(
            policies,
            "predict_fused",
            lambda plans: forests.append([f for f, _ in plans]) or fused(plans),
        )

        def run(*, drop_lanes):
            server = ModelServer(seed=0)
            policy = GoalAwareFleetPolicy(server)
            fleet = Fleet.homogeneous(machine, 6)

            def batch(chunk):
                if drop_lanes:
                    policy._lanes.clear()
                return policy.decide_batch(chunk, fleet)

            decisions = batch(requests[:8])
            retired = server.model(machine, 8)
            old_memo = block_state_memo(machine, "interconnect")
            old_states = old_memo.n_states
            candidate = retired.warm_refit(
                server.training_set(machine, 8), n_grow=4
            )
            server.add_candidate(
                machine, 8, candidate, time=1.0,
                n_training_rows=len(server.training_set(machine, 8)),
            )
            server.promote(machine, 8, time=2.0)
            decisions += batch(requests[8:16]) + batch(requests[16:])
            # The promoted forest predicted every batch after the swap...
            assert forests[-3] == [retired.forest]
            assert forests[-2] == forests[-1] == [candidate.forest]
            assert candidate.forest is not retired.forest
            # ...and the searches went to the memo the bump minted.
            new_memo = block_state_memo(machine, "interconnect")
            assert new_memo is not old_memo
            assert new_memo.n_states > 0
            assert old_memo.n_states == old_states
            return _signature(decisions), policy

        kept, policy = run(drop_lanes=False)
        dropped, _ = run(drop_lanes=True)
        assert kept == dropped
        assert any(row[1] is not None for row in kept[8:])
        # One lane per model version seen, not one per batch.
        assert len(policy._lanes) == 2

    def test_unmemoized_enumeration_stays_under_the_bound(self, registry):
        """``memoize_enumeration=False`` mints a placement set per call,
        hence a lane per batch: the bound evicts them, and the decisions
        are the memoized registry's."""
        naive = ModelRegistry(
            n_estimators=6, n_synthetic=2, seed=0, memoize_enumeration=False
        )
        machine = amd_opteron_6272()
        requests = _mixed_requests(20)
        signatures = []
        for source in (registry, naive):
            policy = GoalAwareFleetPolicy(source)
            policy._lanes_max = 4
            fleet = Fleet.homogeneous(machine, 8)
            decisions = []
            for k in range(0, len(requests), 2):
                decisions += policy.decide_batch(requests[k : k + 2], fleet)
                assert len(policy._lanes) <= 4
            signatures.append(_signature(decisions))
        assert signatures[0] == signatures[1]
        assert len(policy._lanes) == 4  # the naive run filled and evicted
        assert naive.uncached_enumerations > 10

    def test_realized_placements_are_shared_across_hosts(self, registry):
        """Requests realized on the same (candidate, block) of different
        hosts hold one ``Placement`` object — it is validated once — and
        still release independently."""
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 6)
        policy = GoalAwareFleetPolicy(registry)
        decisions = policy.decide_batch(
            [_request(k, vcpus=32, goal=0.9) for k in range(1, 13)], fleet
        )
        by_block = {}
        for d in decisions:
            assert d.placed
            by_block.setdefault((d.placement_id, d.placement.nodes), []).append(d)
        shared = [group for group in by_block.values() if len(group) > 1]
        assert shared, "the stream must realize some block on two hosts"
        for group in shared:
            assert len({d.host_id for d in group}) == len(group)
            assert all(d.placement is group[0].placement for d in group)
        first, second = shared[0][:2]
        host_a, host_b = fleet.hosts[first.host_id], fleet.hosts[second.host_id]
        free_b = host_b.free_mask
        fleet.release(first.request.request_id)
        assert set(first.placement.nodes) <= host_a.free_nodes
        assert host_b.free_mask == free_b
        assert fleet.locate(second.request.request_id) == second.host_id
        fleet.release(second.request.request_id)
        assert set(second.placement.nodes) <= host_b.free_nodes
        fleet.index.assert_consistent(fleet.hosts)


class TestRegistry:
    def test_memoizes_models_and_enumeration(self, empty_artifact_store):
        registry = ModelRegistry(n_estimators=4, n_synthetic=2)
        machine = amd_opteron_6272()
        first = registry.model(machine, 16)
        second = registry.model(amd_opteron_6272(), 16)
        assert second is first
        assert registry.enumeration_runs() == 1
        assert registry.enumeration_runs() == registry.enumeration_info().misses
        registry.placements(machine, 16)
        runs = registry.enumeration_runs()
        registry.placements(amd_opteron_6272(), 16)
        assert registry.enumeration_runs() == runs  # cache hit

    def test_naive_mode_reenumerates(self):
        registry = ModelRegistry(memoize_enumeration=False)
        machine = amd_opteron_6272()
        registry.placements(machine, 16)
        registry.placements(machine, 16)
        assert registry.uncached_enumerations == 2
        assert registry.enumeration_runs() == 2

    def test_canonical_pair_for_paper_configuration(self):
        registry = ModelRegistry()
        assert registry.input_pair(amd_opteron_6272(), 16) == (6, 12)
        # Non-paper vCPU count falls back to (first, last).
        pair = registry.input_pair(amd_opteron_6272(), 8)
        assert pair[0] == 0 and pair[1] > 0

    def test_baseline_placement_matches_pair(self):
        registry = ModelRegistry()
        machine = amd_opteron_6272()
        baseline = registry.baseline_placement(machine, 16)
        assert baseline is registry.placements(machine, 16)[6]
