"""Tests for the fleet and its per-host capacity accounting."""

import pytest

from repro.core.blockscores import BlockStateMemo, mask_nodes
from repro.core.placements import Placement
from repro.scheduler import (
    Fleet,
    FleetHost,
    NodesBusyError,
    UnknownNodeError,
    minimal_l2_share,
    minimal_shape,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from tests.scheduler.oracle_linear import hosts_by_load


def _scorer(machine):
    return lambda nodes: machine.interconnect.aggregate_bandwidth(nodes)


def _memo(machine):
    """The shape's block-state memo over the interconnect scorer."""
    return BlockStateMemo(machine, _scorer(machine))


class TestFleetHost:
    def test_fresh_host_is_empty(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        assert host.n_free_nodes == machine.n_nodes
        assert host.used_threads == 0
        assert host.thread_utilization == 0.0
        assert host.node_utilization == 0.0

    def test_allocate_claims_nodes(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        placement = Placement(machine, (0, 1), 16, l2_share=2)
        host.allocate(7, placement)
        assert frozenset(mask_nodes(host.free_mask)) == frozenset(range(2, 8))
        assert host.used_threads == 16
        assert host.placements == {7: placement}

    def test_double_allocate_same_request_rejected(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        host.allocate(1, Placement(machine, (0, 1), 16, l2_share=2))
        with pytest.raises(ValueError):
            host.allocate(1, Placement(machine, (2, 3), 16, l2_share=2))

    def test_allocate_taken_nodes_rejected(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        host.allocate(1, Placement(machine, (0, 1), 16, l2_share=2))
        with pytest.raises(ValueError, match=r"nodes \[0, 1\]"):
            host.allocate(2, Placement(machine, (0, 1), 16, l2_share=2))

    def test_release_returns_nodes(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        placement = Placement(machine, (0, 1), 16, l2_share=2)
        host.allocate(1, placement)
        assert host.release(1) is placement
        assert host.n_free_nodes == machine.n_nodes
        with pytest.raises(KeyError):
            host.release(1)

    def test_find_block_prefers_best_score(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        scorer = _scorer(machine)
        table = BlockStateMemo(machine, scorer)
        block = host.find_block(2, table=table)
        best = max(
            (
                scorer(frozenset((a, b)))
                for a in machine.nodes
                for b in machine.nodes
                if a < b
            ),
        )
        assert scorer(frozenset(block)) == best

    def test_find_block_exact_score(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        scorer = _scorer(machine)
        table = BlockStateMemo(machine, scorer)
        target = scorer(frozenset((0, 7)))
        block = host.find_block(2, table=table, target_score=target)
        assert round(scorer(frozenset(block)), 3) == round(target, 3)

    def test_find_block_too_large_returns_none(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        host.allocate(1, Placement(machine, tuple(range(8)), 8))
        assert host.find_block(1, table=_memo(machine)) is None

    def test_find_block_unmatchable_target_returns_none(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        assert host.find_block(2, table=_memo(machine), target_score=-1.0) is None

    def test_find_block_size_validation(self):
        host = FleetHost(0, amd_opteron_6272())
        with pytest.raises(ValueError):
            host.find_block(0, table=_memo(host.machine))

    def test_find_block_tolerates_rounding_boundary_scores(self):
        """Regression: scores a hair's width apart that straddle a
        3-decimal rounding boundary must still match the target.

        ``round(1.0015001, 3) == 1.002`` but ``round(1.0014999, 3) ==
        1.001`` — the old bucketed comparison silently failed to find the
        block and the request was rejected despite capacity.
        """
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        scorer = lambda nodes: 1.0014999 if nodes == frozenset((0, 1)) else 0.0
        table = BlockStateMemo(machine, scorer)
        block = host.find_block(2, table=table, target_score=1.0015001)
        assert block == (0, 1)

    def test_find_block_keeps_matching_same_bucket_scores(self):
        """Scores up to a full rounding step apart but in the same
        3-decimal bucket matched before the tolerance fix and must keep
        matching (the enumeration treats them as identical)."""
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        # Both round to 1.001, yet sit 8.5e-4 apart — beyond the absolute
        # tolerance, inside the bucket.
        scorer = lambda nodes: 1.00140 if nodes == frozenset((0, 1)) else 0.0
        table = BlockStateMemo(machine, scorer)
        assert host.find_block(2, table=table, target_score=1.00055) == (0, 1)

    def test_find_block_rejects_scores_outside_tolerance(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        scorer = lambda nodes: 1.0 if nodes == frozenset((0, 1)) else 0.0
        table = BlockStateMemo(machine, scorer)
        assert host.find_block(2, table=table, target_score=1.01) is None

    def test_find_block_exclude(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        scorer = _scorer(machine)
        table = BlockStateMemo(machine, scorer)
        full = host.find_block(2, table=table)
        excluded = host.find_block(2, table=table, exclude=full)
        assert excluded is not None
        assert not set(excluded) & set(full)
        # Excluding everything leaves nothing to grant.
        assert host.find_block(8, table=table, exclude=(0,)) is None

    def test_allocate_unknown_nodes_distinct_error(self):
        """A placement built for a bigger machine must fail with
        UnknownNodeError, not masquerade as a capacity conflict."""
        amd, intel = amd_opteron_6272(), intel_xeon_e7_4830_v3()
        host = FleetHost(0, intel)  # 4 nodes
        rogue = Placement(amd, (5, 6), 16, l2_share=2)  # nodes intel lacks
        with pytest.raises(UnknownNodeError, match=r"nodes \[5, 6\] do not exist"):
            host.allocate(1, rogue)
        assert host.n_free_nodes == intel.n_nodes  # nothing was claimed

    def test_allocate_busy_nodes_distinct_error(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        host.allocate(1, Placement(machine, (0, 1), 16, l2_share=2))
        with pytest.raises(NodesBusyError, match=r"nodes \[0, 1\] are not free"):
            host.allocate(2, Placement(machine, (0, 1), 16, l2_share=2))
        assert not isinstance(
            NodesBusyError("x"), UnknownNodeError
        )  # the two failure modes stay distinguishable

    def test_largest_free_block_tracks_allocations(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        assert host.largest_free_block == machine.n_nodes
        host.allocate(1, Placement(machine, (0, 1, 2), 24, l2_share=2))
        assert host.largest_free_block == machine.n_nodes - 3


class TestMinimalShapeValidation:
    def test_zero_vcpus_rejected(self):
        """Regression: 0 % n == 0 for every n, so a zero-vCPU request used
        to 'fit' as (1 node, l2_share=1) and reserve a whole node."""
        machine = amd_opteron_6272()
        with pytest.raises(ValueError, match="vcpus must be >= 1"):
            minimal_shape(machine, 0)
        with pytest.raises(ValueError, match="vcpus must be >= 1"):
            minimal_shape(machine, -8)

    def test_zero_per_node_vcpus_rejected(self):
        machine = amd_opteron_6272()
        with pytest.raises(ValueError, match="per_node_vcpus must be >= 1"):
            minimal_l2_share(machine, 0)
        with pytest.raises(ValueError, match="per_node_vcpus must be >= 1"):
            minimal_l2_share(machine, -1)

    def test_valid_vcpus_still_fit(self):
        machine = amd_opteron_6272()
        # 8 vCPUs fill one AMD node only by sharing its 4 L2 modules.
        assert minimal_shape(machine, 8) == (1, 2)
        assert minimal_l2_share(machine, 8) == 2


class TestChurnCycles:
    """allocate -> release -> re-allocate: freed blocks must be reusable
    and accounting must return to baseline."""

    def test_host_release_reallocate_cycle(self):
        machine = amd_opteron_6272()
        host = FleetHost(0, machine)
        placement = Placement(machine, (2, 3), 16, l2_share=2)
        for cycle in range(3):
            host.allocate(cycle, placement)
            assert host.used_threads == 16
            assert frozenset(mask_nodes(host.free_mask)) == frozenset(machine.nodes) - {2, 3}
            assert host.release(cycle) is placement
            assert host.used_threads == 0
            assert host.node_utilization == 0.0
            assert frozenset(mask_nodes(host.free_mask)) == frozenset(machine.nodes)

    def test_fleet_release_by_request_id(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 3)
        placement = Placement(machine, (0, 1), 16, l2_share=2)
        fleet.hosts[2].allocate(42, placement)
        assert fleet._locations.get(42) == 2
        host_id, released = fleet.release(42)
        assert host_id == 2
        assert released is placement
        assert fleet._locations.get(42) is None
        assert fleet.used_threads == 0
        assert fleet.node_utilization == 0.0

    def test_fleet_cross_host_double_allocate_raises(self):
        """The same request id on a second host would silently overwrite
        the fleet's location index and orphan the first host's nodes."""
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 2)
        placement = Placement(machine, (0, 1), 16, l2_share=2)
        fleet.hosts[0].allocate(7, placement)
        with pytest.raises(ValueError, match="already placed on host 0"):
            fleet.hosts[1].allocate(7, placement)
        # The original placement is untouched and releasable.
        assert fleet._locations.get(7) == 0
        assert fleet.release(7) == (0, placement)

    def test_fleet_double_release_raises(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 2)
        fleet.hosts[0].allocate(1, Placement(machine, (0,), 8, l2_share=2))
        fleet.release(1)
        with pytest.raises(KeyError):
            fleet.release(1)
        with pytest.raises(KeyError):
            fleet.release(999)  # never placed

    def test_freed_block_is_reusable_by_another_request(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 1)
        host = fleet.hosts[0]
        # Fill the host completely.
        for node in machine.nodes:
            host.allocate(node, Placement(machine, (node,), 8, l2_share=2))
        assert host.n_free_nodes == 0
        fleet.release(3)
        block = host.find_block(1, table=_memo(machine))
        assert block == (3,)
        host.allocate(100, Placement(machine, block, 8, l2_share=2))
        assert fleet._locations.get(100) == 0
        assert host.n_free_nodes == 0

    def test_fleet_fragmentation_aggregates(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 2)
        assert fleet.free_nodes_total == 16
        assert fleet.largest_free_block == 8
        fleet.hosts[0].allocate(1, Placement(machine, range(6), 48, l2_share=2))
        fleet.hosts[1].allocate(2, Placement(machine, range(5), 40, l2_share=2))
        # 5 free nodes in total, but at most 3 together on one host.
        assert fleet.free_nodes_total == 5
        assert fleet.largest_free_block == 3


class TestFleet:
    def test_homogeneous(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 5)
        assert len(fleet) == 5
        assert [host.host_id for host in fleet] == list(range(5))
        assert len(fleet.shapes) == 1
        assert fleet.total_threads == 5 * machine.total_threads

    def test_mixed_interleaves_shapes(self):
        amd, intel = amd_opteron_6272(), intel_xeon_e7_4830_v3()
        fleet = Fleet.mixed([(amd, 3), (intel, 3)])
        assert len(fleet) == 6
        assert len(fleet.shapes) == 2
        names = [host.machine.name for host in fleet.hosts[:2]]
        assert names[0] != names[1]

    def test_mixed_skips_zero_counts(self):
        fleet = Fleet.mixed([(amd_opteron_6272(), 2), (intel_xeon_e7_4830_v3(), 0)])
        assert len(fleet) == 2
        assert len(fleet.shapes) == 1

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            Fleet([])
        with pytest.raises(ValueError):
            Fleet.homogeneous(amd_opteron_6272(), 0)
        with pytest.raises(ValueError):
            Fleet.mixed([(amd_opteron_6272(), 0)])

    def test_utilization_aggregates(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 2)
        fleet.hosts[0].allocate(1, Placement(machine, (0, 1), 16, l2_share=2))
        assert fleet.used_threads == 16
        assert fleet.thread_utilization == 16 / (2 * machine.total_threads)
        assert fleet.node_utilization == 2 / 16

    def test_hosts_by_load(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 3)
        fleet.hosts[0].allocate(1, Placement(machine, (0, 1), 16, l2_share=2))
        order = [host.host_id for host in hosts_by_load(fleet)]
        assert order == [1, 2, 0]
