"""Structural tests for the machine presets.

These assert the Section-4 claims of the paper that the AMD model was
calibrated to satisfy (see DESIGN.md, "Calibration targets").
"""

import itertools

import pytest

from repro.topology import (
    amd_opteron_6272,
    amd_epyc_zen,
    intel_haswell_cod,
    intel_xeon_e7_4830_v3,
)


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def intel():
    return intel_xeon_e7_4830_v3()


class TestAmdShape:
    def test_figure2_dimensions(self, amd):
        assert amd.n_nodes == 8
        assert amd.total_threads == 64  # 64 cores
        assert amd.l2_count == 32  # paper: "an L2Count of 32"
        assert amd.l2_capacity == 2  # pairs of cores share the module
        assert amd.l3_count == 8
        assert amd.l3_capacity == 8  # "eight hardware threads per L3 cache"

    def test_every_node_has_four_links(self, amd):
        degree = {n: 0 for n in amd.nodes}
        for link in amd.interconnect.links:
            for node in link:
                degree[node] += 1
        assert all(d == 4 for d in degree.values())

    def test_interconnect_is_asymmetric(self, amd):
        assert not amd.interconnect.is_symmetric

    def test_diameter_is_two(self, amd):
        assert amd.interconnect.diameter == 2


class TestAmdSection4Claims:
    def test_nodes_0_5_and_3_6_are_two_hops_apart(self, amd):
        # Section 4: "there is a two-hop distance between nodes {0,5} and
        # nodes {3,6}".
        assert amd.interconnect.hop_distance(0, 5) == 2
        assert amd.interconnect.hop_distance(3, 6) == 2

    def test_eight_node_aggregate_is_35000(self, amd):
        # The paper's example score vector for 8 nodes is [16, 8, 35000].
        assert amd.interconnect.aggregate_bandwidth(range(8)) == pytest.approx(
            35_000.0
        )

    def test_2345_is_best_connected_4_node_set(self, amd):
        ic = amd.interconnect
        best = max(
            itertools.combinations(range(8), 4), key=ic.aggregate_bandwidth
        )
        assert set(best) == {2, 3, 4, 5}

    def test_0246_pair_dominates_0145_pair(self, amd):
        # Section 4: the {0,2,4,6}/{1,3,5,7} pair of placements is a better
        # way to pack the machine than {0,1,4,5}/{2,3,6,7}.
        ic = amd.interconnect
        good = sorted(
            [
                ic.aggregate_bandwidth([0, 2, 4, 6]),
                ic.aggregate_bandwidth([1, 3, 5, 7]),
            ]
        )
        bad = sorted(
            [
                ic.aggregate_bandwidth([0, 1, 4, 5]),
                ic.aggregate_bandwidth([2, 3, 6, 7]),
            ]
        )
        assert all(g > b for g, b in zip(good, bad))

    def test_complement_of_best_set_is_worst_4_node_candidate(self, amd):
        ic = amd.interconnect
        assert ic.aggregate_bandwidth([0, 1, 6, 7]) < ic.aggregate_bandwidth(
            [2, 3, 4, 5]
        )


class TestIntelShape:
    def test_figure2_dimensions(self, intel):
        assert intel.n_nodes == 4
        assert intel.total_threads == 96
        assert intel.l2_groups_per_node == 12  # 12 physical cores per node
        assert intel.threads_per_l2 == 2  # SMT
        assert intel.l3_count == 4

    def test_interconnect_is_symmetric(self, intel):
        assert intel.interconnect.is_symmetric


class TestSection8Machines:
    def test_zen_has_split_l3(self):
        zen = amd_epyc_zen()
        assert zen.l3_groups_per_node == 2
        assert zen.l3_count == 2 * zen.n_nodes

    def test_cod_is_asymmetric(self):
        cod = intel_haswell_cod()
        assert not cod.interconnect.is_symmetric
        # On-die pairs are better connected than cross-socket pairs.
        ic = cod.interconnect
        assert ic.aggregate_bandwidth({0, 1}) > ic.aggregate_bandwidth({0, 2})
