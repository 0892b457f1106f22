"""Unit and property tests for Algorithms 1-3 (important placements)."""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Packing,
    concerns_for,
    enumerate_important_placements,
    gen_packings,
    generate_scores,
    important_placements,
    pareto_filter_packings,
)
from repro.core.enumeration import _distinct_packings
from repro.core.policies import best_min_node_sets
from repro.topology import (
    PRESETS,
    TopologyBuilder,
    amd_epyc_zen,
    amd_opteron_6272,
    intel_xeon_e7_4830_v3,
)
from tests.core import oracle_enumeration as oracle

#: Container sizes the fleet services route (the benchmark's 8, 16 and
#: 32 among them); a size a preset cannot host raises, as it must.
VCPU_CLASSES = (4, 8, 16, 24, 32)


def _enumerations(enumerate_fn):
    """``(preset, vcpus) -> ImportantPlacementSet or the error type`` for
    every preset and vCPU class."""
    results = {}
    for name, factory in sorted(PRESETS.items()):
        machine = factory()
        for vcpus in VCPU_CLASSES:
            try:
                results[name, vcpus] = enumerate_fn(machine, vcpus)
            except ValueError as error:
                results[name, vcpus] = type(error)
    return results


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def intel():
    return intel_xeon_e7_4830_v3()


class TestGenerateScores:
    """Algorithm 1."""

    def test_amd_paper_values(self):
        assert generate_scores(8, 8, 16) == [2, 4, 8]
        assert generate_scores(32, 2, 16) == [8, 16]

    def test_intel_paper_values(self):
        assert generate_scores(4, 24, 24) == [1, 2, 3, 4]
        assert generate_scores(48, 2, 24) == [12, 24]

    def test_rejects_invalid_input(self):
        with pytest.raises(ValueError):
            generate_scores(0, 8, 16)
        with pytest.raises(ValueError):
            generate_scores(8, 8, 0)

    @given(
        count=st.integers(min_value=1, max_value=64),
        capacity=st.integers(min_value=1, max_value=8),
        vcpus=st.integers(min_value=1, max_value=128),
    )
    def test_scores_are_balanced_and_feasible(self, count, capacity, vcpus):
        for score in generate_scores(count, capacity, vcpus):
            assert vcpus % score == 0, "balance violated"
            assert vcpus // score <= capacity, "feasibility violated"
            assert 1 <= score <= count


class TestGenPackings:
    """Algorithm 2."""

    def test_amd_partition_count(self):
        # Partitions of 8 nodes into blocks of sizes {2,4,8}:
        # 8          -> 1
        # 4+4        -> 35
        # 4+2+2      -> 210
        # 2+2+2+2    -> 105
        packings = gen_packings([2, 4, 8], range(8))
        assert len(packings) == 1 + 35 + 210 + 105

    def test_pairs_partition_count(self):
        # Perfect matchings of 6 elements: 5!! = 15.
        assert len(gen_packings([2], range(6))) == 15

    def test_every_packing_covers_all_nodes(self):
        for packing in gen_packings([2, 4], range(4)):
            covered = set()
            for block in packing.blocks:
                covered |= block
            assert covered == {0, 1, 2, 3}

    def test_no_duplicate_partitions(self):
        packings = gen_packings([2, 4, 8], range(8))
        seen = {tuple(sorted(tuple(sorted(b)) for b in p.blocks)) for p in packings}
        assert len(seen) == len(packings)

    def test_impossible_sizes_give_no_packings(self):
        # 3-blocks cannot tile 8 nodes.
        assert gen_packings([3], range(8)) == []

    def test_rejects_empty_sizes(self):
        with pytest.raises(ValueError):
            gen_packings([], range(4))

    @given(
        n_nodes=st.integers(min_value=1, max_value=7),
        sizes=st.sets(st.integers(min_value=1, max_value=7), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_blocks_are_disjoint_and_sized(self, n_nodes, sizes):
        packings = gen_packings(sorted(sizes), range(n_nodes))
        for packing in packings:
            covered = set()
            for block in packing.blocks:
                assert len(block) in sizes
                assert not (covered & block)
                covered |= block
            assert covered == set(range(n_nodes))


class TestPacking:
    def test_rejects_overlapping_blocks(self):
        with pytest.raises(ValueError, match="disjoint"):
            Packing((frozenset([0, 1]), frozenset([1, 2])))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="non-empty"):
            Packing((frozenset(),))

    def test_sizes_are_sorted(self):
        p = Packing((frozenset([0, 1, 2, 3]), frozenset([4, 5])))
        assert p.sizes == (2, 4)

    def test_blocks_canonical_order(self):
        a = Packing((frozenset([4, 5]), frozenset([0, 1])))
        b = Packing((frozenset([0, 1]), frozenset([4, 5])))
        assert a.blocks == b.blocks


class TestParetoFilter:
    """Algorithm 3, packing filter."""

    @staticmethod
    def scorer_from(table):
        return lambda block: table[frozenset(block)]

    def test_dominated_packing_removed(self):
        table = {
            frozenset([0, 1]): 10.0,
            frozenset([2, 3]): 10.0,
            frozenset([0, 2]): 5.0,
            frozenset([1, 3]): 5.0,
        }
        good = Packing((frozenset([0, 1]), frozenset([2, 3])))
        bad = Packing((frozenset([0, 2]), frozenset([1, 3])))
        survivors = pareto_filter_packings([good, bad], self.scorer_from(table))
        assert survivors == [good]

    def test_incomparable_packings_both_kept(self):
        table = {
            frozenset([0, 1]): 10.0,
            frozenset([2, 3]): 1.0,
            frozenset([0, 2]): 5.0,
            frozenset([1, 3]): 5.0,
        }
        a = Packing((frozenset([0, 1]), frozenset([2, 3])))  # [1, 10]
        b = Packing((frozenset([0, 2]), frozenset([1, 3])))  # [5, 5]
        survivors = pareto_filter_packings([a, b], self.scorer_from(table))
        assert set(survivors) == {a, b}

    def test_different_size_classes_do_not_compete(self):
        table = {
            frozenset([0, 1, 2, 3]): 100.0,
            frozenset([0, 1]): 1.0,
            frozenset([2, 3]): 1.0,
        }
        whole = Packing((frozenset([0, 1, 2, 3]),))
        pairs = Packing((frozenset([0, 1]), frozenset([2, 3])))
        survivors = pareto_filter_packings([whole, pairs], self.scorer_from(table))
        assert set(survivors) == {whole, pairs}

    def test_equal_score_packings_both_survive(self):
        # Equal sorted IC lists must not eliminate each other.
        table = {
            frozenset([0, 1]): 5.0,
            frozenset([2, 3]): 5.0,
            frozenset([0, 2]): 5.0,
            frozenset([1, 3]): 5.0,
        }
        a = Packing((frozenset([0, 1]), frozenset([2, 3])))
        b = Packing((frozenset([0, 2]), frozenset([1, 3])))
        survivors = pareto_filter_packings([a, b], self.scorer_from(table))
        assert set(survivors) == {a, b}

    def test_dedup_collapses_identical_signatures(self):
        # All three pairings of four nodes score alike: the first is kept,
        # and all three are counted.
        unique, total = _distinct_packings([2], range(4), lambda block: 5.0)
        assert unique == [Packing((frozenset([0, 1]), frozenset([2, 3])))]
        assert total == 3

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_survivor_is_dominated(self, data):
        """Property: after filtering, no surviving packing is elementwise
        dominated by another survivor of the same size class."""
        scores = data.draw(
            st.lists(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                min_size=3,
                max_size=3,
            )
        )
        table = {
            frozenset([0, 1]): scores[0],
            frozenset([2, 3]): scores[1],
            frozenset([0, 2]): scores[2],
            frozenset([1, 3]): scores[2],
        }
        packings = [
            Packing((frozenset([0, 1]), frozenset([2, 3]))),
            Packing((frozenset([0, 2]), frozenset([1, 3]))),
        ]
        scorer = self.scorer_from(table)
        survivors = pareto_filter_packings(packings, scorer)
        assert survivors, "filter must never remove everything"

        def rounded(p):
            # Domination is decided on rounded scores (sub-noise differences
            # are ties), so the invariant is stated on the same values.
            return tuple(round(s, 3) for s in p.ic_scores(scorer))

        for a in survivors:
            for b in survivors:
                if a is b or rounded(a) == rounded(b):
                    continue
                assert not all(x <= y for x, y in zip(rounded(a), rounded(b)))


class TestImportantPlacementsAmd:
    """The headline Section-4 result for the AMD machine."""

    @pytest.fixture(scope="class")
    def ips(self, amd):
        return enumerate_important_placements(amd, 16)

    def test_exactly_13(self, ips):
        assert len(ips) == 13

    def test_paper_composition(self, ips):
        # "two 8-node placements ... three 2-node placements ... and eight
        # 4-node placements"
        assert ips.counts_by_node_count() == {2: 3, 4: 8, 8: 2}

    def test_eight_node_placements_differ_only_in_smt(self, ips):
        eight = [p for p in ips if p.n_nodes == 8]
        assert sorted(p.l2_score for p in eight) == [8, 16]

    def test_two_node_placements_are_smt_only(self, ips):
        # 16 vCPUs on 2 nodes require sharing L2 groups (score 8 only).
        two = [p for p in ips if p.n_nodes == 2]
        assert all(p.l2_score == 8 for p in two)

    def test_two_node_ic_scores_are_best_second_best_and_packing(self, ips, amd):
        # Section 4: "three 2-node placements (with the best and second-best
        # interconnect score, and one placement used to pack when specific
        # 4-node placements are used)".
        ic = amd.interconnect
        all_pair_scores = sorted(
            (
                ic.aggregate_bandwidth(pair)
                for pair in itertools.combinations(range(8), 2)
            ),
            reverse=True,
        )
        two_node_scores = sorted(
            (
                ic.aggregate_bandwidth(p.nodes)
                for p in ips
                if p.n_nodes == 2
            ),
            reverse=True,
        )
        assert two_node_scores[0] == all_pair_scores[0]  # best
        # second-best distinct pair score
        second_best = max(s for s in all_pair_scores if s < all_pair_scores[0])
        assert two_node_scores[1] == second_best
        # the third is the intra-package score of the {0,1}/{6,7} leftovers
        assert two_node_scores[2] == ic.aggregate_bandwidth([0, 1])

    def test_four_node_placements_have_four_distinct_ic_scores(self, ips, amd):
        ic = amd.interconnect
        scores = {
            round(ic.aggregate_bandwidth(p.nodes), 3)
            for p in ips
            if p.n_nodes == 4
        }
        assert len(scores) == 4

    def test_best_4_node_placement_is_2345(self, ips):
        four = [p for p in ips if p.n_nodes == 4]
        ic = ips.machine.interconnect
        best = max(four, key=lambda p: ic.aggregate_bandwidth(p.nodes))
        assert set(best.nodes) == {2, 3, 4, 5}

    def test_0167_is_kept_for_packing(self, ips):
        assert any(set(p.nodes) == {0, 1, 6, 7} for p in ips)

    def test_paper_example_score_vectors(self, ips):
        # Section 4: 8-node no-SMT scores [16, 8, 35000]; SMT [8, 8, 35000].
        vectors = {ips.concerns.score_vector(p).values for p in ips}
        assert (16.0, 8.0, 35_000.0) in vectors
        assert (8.0, 8.0, 35_000.0) in vectors

    def test_score_vectors_are_unique(self, ips):
        assert len({ips.concerns.score_vector(p) for p in ips}) == len(ips)

    def test_ids_are_one_based_and_stable(self, ips):
        assert ips.id_of(ips.placements[0]) == 1
        assert ips.id_of(ips.placements[12]) == 13

    def test_describe_lists_all(self, ips):
        text = ips.describe()
        assert "13 important placements" in text
        assert "#13" in text


class TestImportantPlacementsIntel:
    @pytest.fixture(scope="class")
    def ips(self, intel):
        return enumerate_important_placements(intel, 24)

    def test_exactly_7(self, ips):
        assert len(ips) == 7

    def test_paper_composition(self, ips):
        # "a one node placement sharing L2 caches, two 2-node placements,
        # two 3-node placements, and two 4-node placements"
        assert ips.counts_by_node_count() == {1: 1, 2: 2, 3: 2, 4: 2}

    def test_single_node_placement_uses_smt(self, ips):
        one = [p for p in ips if p.n_nodes == 1]
        assert len(one) == 1
        assert one[0].uses_smt

    def test_multi_node_placements_come_in_smt_pairs(self, ips):
        for n in (2, 3, 4):
            group = [p for p in ips if p.n_nodes == n]
            assert sorted(p.l2_score for p in group) == [12, 24]


class TestEdgeCasesAndExtensions:
    def test_vcpus_exceeding_machine_rejected(self, intel):
        with pytest.raises(ValueError, match="dedicated threads"):
            enumerate_important_placements(intel, 97)

    def test_impossible_vcpu_count_rejected(self):
        # A prime vCPU count larger than a node cannot be balanced on this
        # toy machine (2 nodes of 4 threads): 7 % 2 != 0.
        machine = (
            TopologyBuilder("tiny")
            .nodes(2)
            .l2_groups_per_node(2, threads_per_l2=2)
            .dram_bandwidth(1000)
            .cache_sizes(l3_mb=4, l2_kb=256)
            .symmetric_interconnect(bandwidth_mbps=1000)
            .build()
        )
        with pytest.raises(ValueError, match="no balanced"):
            enumerate_important_placements(machine, 7)

    def test_concern_set_must_match_machine(self, amd, intel):
        with pytest.raises(ValueError, match="different machine"):
            enumerate_important_placements(amd, 16, concerns_for(intel))

    def test_important_placements_shortcut(self, amd):
        assert len(important_placements(amd, 16)) == 13

    def test_single_node_machine(self):
        machine = (
            TopologyBuilder("uniprocessor")
            .nodes(1)
            .l2_groups_per_node(4, threads_per_l2=2)
            .dram_bandwidth(10_000)
            .cache_sizes(l3_mb=8, l2_kb=512)
            .symmetric_interconnect(bandwidth_mbps=1.0)
            .build()
        )
        ips = enumerate_important_placements(machine, 4)
        # 4 vCPUs on 1 node: L2 scores {2, 4} -> two placements.
        assert len(ips) == 2

    def test_zen_split_l3_produces_l3_variants(self):
        zen = amd_epyc_zen()
        ips = enumerate_important_placements(zen, 16)
        # On a split-L3 machine some placements differ only in how many L3
        # complexes they spread over.
        vectors = [ips.concerns.score_vector(p) for p in ips]
        l3_scores = {v["l3"] for v in vectors}
        assert len(l3_scores) > 1
        # Node counts and L3 counts are decoupled somewhere.
        assert any(
            v["l3"] != v["node"] * zen.l3_groups_per_node for v in vectors
        )

    def test_smaller_container_on_amd(self, amd):
        # 8 vCPUs: node scores {1,2,4,8}; enumeration must still work.
        ips = enumerate_important_placements(amd, 8)
        assert len(ips) >= 4
        assert all(p.vcpus == 8 for p in ips)

    @given(vcpus=st.sampled_from([2, 4, 8, 16, 32]))
    @settings(max_examples=5, deadline=None)
    def test_all_placements_satisfy_invariants(self, vcpus):
        """Property: every enumerated placement is balanced, feasible, and
        scored uniquely."""
        amd = amd_opteron_6272()
        ips = enumerate_important_placements(amd, vcpus)
        assert len({ips.concerns.score_vector(p) for p in ips}) == len(ips)
        for p in ips:
            assert vcpus % p.n_nodes == 0
            assert len(set(p.threads)) == vcpus


class TestStreamedEnumeration:
    """The streamed Algorithm 2 with on-the-fly dedup against the
    materialise-then-dedup pipeline it replaced
    (``tests/core/oracle_enumeration.py``)."""

    @staticmethod
    def assert_same(streamed, materialised):
        assert streamed.placements == materialised.placements
        assert [streamed.id_of(p) for p in streamed] == [
            materialised.id_of(p) for p in materialised
        ]
        assert (
            streamed.packings_total,
            streamed.packings_after_dedup,
            streamed.packings_after_pareto,
        ) == (
            materialised.packings_total,
            materialised.packings_after_dedup,
            materialised.packings_after_pareto,
        )
        assert streamed.surviving_packings == materialised.surviving_packings

    def test_every_preset_and_class_matches_the_oracle(self):
        streamed = _enumerations(enumerate_important_placements)
        materialised = _enumerations(oracle.oracle_enumerate_important_placements)
        assert streamed.keys() == materialised.keys()
        hosted = 0
        for key, result in streamed.items():
            if isinstance(result, type):
                assert materialised[key] is result, key
                continue
            hosted += 1
            self.assert_same(result, materialised[key])
        assert hosted >= 2 * len(PRESETS)

    @given(
        n_nodes=st.integers(min_value=1, max_value=8),
        sizes=st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
        # Scores that tie only after rounding to three decimals, or not.
        levels=st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 2.5, 100.0]),
                st.sampled_from([0.0, 1e-4, 4e-4, 6e-4, 2e-3]),
            ),
            min_size=1,
            max_size=6,
        ),
        salt=st.integers(min_value=1, max_value=997),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_partitions_and_scorers_match_the_oracle(
        self, n_nodes, sizes, levels, salt
    ):
        scores = [base + offset for base, offset in levels]

        def scorer(block):
            mask = sum(1 << node for node in block)
            return scores[(mask * salt) % len(scores)]

        nodes = range(n_nodes)
        materialised = oracle.gen_packings(sizes, nodes)
        expected = oracle.dedup_packings(materialised, scorer)
        unique, total = _distinct_packings(sizes, nodes, scorer)
        assert total == len(materialised)
        assert unique == expected
        assert pareto_filter_packings(unique, scorer) == pareto_filter_packings(
            expected, scorer
        )
        assert gen_packings(sizes, nodes) == materialised

    def test_rejects_what_the_oracle_rejects(self):
        for sizes, nodes in (([], range(4)), ([0, 2], range(4)), ([2], [])):
            with pytest.raises(ValueError):
                oracle.gen_packings(sizes, nodes)
            with pytest.raises(ValueError):
                gen_packings(sizes, nodes)
            with pytest.raises(ValueError):
                _distinct_packings(sizes, nodes, lambda block: 0.0)


def test_enumeration_leaves_no_cyclic_garbage():
    """What an enumeration throws away is freed at once: nothing is left
    for the cycle collector (a service that forks after set-up would copy
    it into every worker)."""
    gc.collect()
    gc.disable()
    try:
        kept = [
            _enumerations(enumerate_important_placements),
            gen_packings([2, 4, 8], range(8)),
            best_min_node_sets(amd_opteron_6272(), 2, 4),
        ]
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    assert kept
    assert found == 0, sorted({type(o).__name__ for o in garbage})
