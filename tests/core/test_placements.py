"""Unit and property tests for Placement."""

import pytest
from hypothesis import given, strategies as st

from repro.core import Placement, important_placements
from repro.topology import amd_opteron_6272, amd_epyc_zen, intel_xeon_e7_4830_v3


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def intel():
    return intel_xeon_e7_4830_v3()


class TestValidation:
    def test_rejects_empty_node_set(self, amd):
        with pytest.raises(ValueError):
            Placement(amd, [], 16)

    def test_rejects_unknown_node(self, amd):
        with pytest.raises(ValueError, match="unknown node"):
            Placement(amd, [9], 8)

    def test_rejects_unbalanced_node_split(self, amd):
        with pytest.raises(ValueError, match="unbalanced"):
            Placement(amd, [0, 1, 2], 16)

    def test_rejects_infeasible_density(self, amd):
        # 16 vCPUs on one AMD node would need 16 threads; a node has 8.
        with pytest.raises(ValueError, match="infeasible"):
            Placement(amd, [0], 16)

    def test_rejects_bad_l2_share(self, amd):
        with pytest.raises(ValueError, match="l2_share"):
            Placement(amd, [0, 1], 16, l2_share=3)

    def test_rejects_unbalanced_l2_share(self, intel):
        # 9 vCPUs per node cannot be split into pairs.
        with pytest.raises(ValueError, match="unbalanced L2"):
            Placement(intel, [0, 1], 18, l2_share=2)


class TestScores:
    def test_paper_example_no_smt(self, amd):
        # Section 4: 16 vCPUs on 8 nodes without SMT uses 16 L2 caches.
        p = Placement.balanced(amd, range(8), 16, use_smt=False)
        assert p.l2_score == 16
        assert p.l3_score == 8
        assert not p.uses_smt

    def test_paper_example_smt(self, amd):
        # Same placement with SMT: 8 L2 caches.
        p = Placement.balanced(amd, range(8), 16, use_smt=True)
        assert p.l2_score == 8
        assert p.l3_score == 8
        assert p.uses_smt

    def test_from_l2_score(self, amd):
        # Enumeration parametrizes by L2 score: l2_share = vcpus // score.
        p = Placement(amd, [0, 1], 16, l2_share=16 // 8)
        assert p.l2_score == 8
        assert p.l2_share == 2

    def test_from_l2_score_rejects_non_divisor(self, amd, intel):
        # Enumeration only builds from L2 scores that divide the vCPUs, and
        # the placement built from one reports it back.
        for machine in (amd, intel):
            for vcpus in (12, 16, 24):
                for p in important_placements(machine, vcpus):
                    assert vcpus % p.l2_score == 0
                    rebuilt = Placement(
                        machine, p.nodes, vcpus, l2_share=vcpus // p.l2_score
                    )
                    assert rebuilt.l2_score == p.l2_score


class TestThreadAssignment:
    def test_each_vcpu_gets_own_thread(self, amd):
        p = Placement.balanced(amd, [2, 3], 16, use_smt=True)
        assert len(p.threads) == 16
        assert len(set(p.threads)) == 16

    def test_affinity_masks_are_singletons(self, intel):
        # Every vCPU of a whole-machine SMT placement is pinned to its own
        # hardware thread, and together they cover every thread once.
        p = Placement.balanced(intel, range(intel.n_nodes), 96, use_smt=True)
        assert sorted(p.threads) == list(range(intel.total_threads))

    def test_threads_live_on_declared_nodes(self, amd):
        p = Placement.balanced(amd, [2, 5], 16, use_smt=True)
        for thread in p.threads:
            assert amd.node_of_thread(thread) in {2, 5}

    def test_no_smt_uses_one_thread_per_group(self, intel):
        p = Placement.balanced(intel, [0, 1], 24, use_smt=False)
        groups = [intel.l2_group_of_thread(t) for t in p.threads]
        assert len(set(groups)) == 24

    def test_smt_pairs_share_groups(self, intel):
        p = Placement.balanced(intel, [0], 24, use_smt=True)
        groups = [intel.l2_group_of_thread(t) for t in p.threads]
        assert len(set(groups)) == 12


class TestSplitL3:
    def test_default_prefers_fewest_l3_groups(self):
        zen = amd_epyc_zen()
        # 8 vCPUs on 1 node, no SMT: needs 8 L2 groups = the whole node,
        # hence both L3 groups.
        p = Placement(zen, [0], 8, l2_share=1)
        assert p.l3_score == 2
        # With SMT, 4 L2 groups fit into a single CCX.
        p = Placement(zen, [0], 8, l2_share=2)
        assert p.l3_score == 1

    def test_explicit_l3_spread(self):
        zen = amd_epyc_zen()
        p = Placement(zen, [0], 8, l2_share=2, l3_groups_per_node=2)
        assert p.l3_score == 2
        assert p.l2_score == 4

    def test_rejects_unbalanced_l3_split(self):
        zen = amd_epyc_zen()
        # 3 L2 groups per node cannot split evenly over 2 L3 groups.
        with pytest.raises(ValueError, match="unbalanced L3"):
            Placement(zen, [0, 1], 12, l2_share=2, l3_groups_per_node=2)


class TestEquality:
    def test_equal_placements_hash_alike(self, amd):
        a = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        b = Placement.balanced(amd, [1, 0], 16, use_smt=True)
        assert a == b
        assert hash(a) == hash(b)

    def test_different_smt_differs(self, amd):
        a = Placement.balanced(amd, range(4), 16, use_smt=True)
        b = Placement.balanced(amd, range(4), 16, use_smt=False)
        assert a != b

    def test_describe_mentions_smt(self, amd):
        assert "SMT" in Placement.balanced(amd, [0, 1], 16, use_smt=True).describe()


@given(
    n_nodes=st.sampled_from([1, 2, 4, 8]),
    smt=st.booleans(),
)
def test_balanced_placement_is_always_balanced(n_nodes, smt):
    """Property: every constructible balanced placement spreads vCPUs evenly
    over nodes and L2 groups."""
    amd = amd_opteron_6272()
    vcpus = 16
    if vcpus % n_nodes != 0:
        return
    nodes = list(range(n_nodes))
    try:
        p = Placement.balanced(amd, nodes, vcpus, use_smt=smt)
    except ValueError:
        return  # infeasible combinations are allowed to be rejected
    per_node = {}
    for thread in p.threads:
        node = amd.node_of_thread(thread)
        per_node[node] = per_node.get(node, 0) + 1
    assert set(per_node.values()) == {vcpus // n_nodes}
    per_group = {}
    for thread in p.threads:
        group = amd.l2_group_of_thread(thread)
        per_group[group] = per_group.get(group, 0) + 1
    assert len(set(per_group.values())) == 1
