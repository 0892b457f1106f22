"""Tests for the shared per-shape block-score tables.

The contract is exact equivalence with the naive combinations loop in
``FleetHost.find_block`` — same blocks, same tie-breaking, same tolerance
behaviour — plus the sharing/caching properties that make the table a
fleet-scale win.
"""

import itertools
import random

import pytest

import repro.core.blockscores as blockscores
from repro.core.blockscores import (
    DEFAULT_BLOCK_SCORE_CACHE,
    MAX_TABLE_NODES,
    BlockScoreCache,
    BlockScoreTable,
    BlockStateMemo,
    block_score_table,
    block_state_memo,
    mask_nodes,
    node_mask,
)
from repro.core.memo import cached_block_score_table
from repro.core.placements import Placement
from repro.scheduler.fleet import SCORE_TOLERANCE, FleetHost, scores_match
from repro.topology import (
    TopologyBuilder,
    amd_epyc_zen,
    amd_opteron_6272,
    intel_xeon_e7_4830_v3,
)


def _interconnect_scorer(machine):
    return lambda nodes: machine.interconnect.aggregate_bandwidth(nodes)


def _jumbo():
    """A shape one node too large to tabulate."""
    return (
        TopologyBuilder("jumbo")
        .nodes(MAX_TABLE_NODES + 1)
        .l2_groups_per_node(2, threads_per_l2=2)
        .dram_bandwidth(10000.0)
        .cache_sizes(l3_mb=8.0, l2_kb=512.0)
        .symmetric_interconnect(bandwidth_mbps=6000.0)
        .build()
    )


def _naive_find(free, size, scorer, *, target_score=None, exclude=()):
    """Verbatim reimplementation of the pre-table find_block loop."""
    nodes = sorted(set(free) - set(exclude))
    if size > len(nodes):
        return None
    best, best_score = None, float("-inf")
    for combo in itertools.combinations(nodes, size):
        score = scorer(frozenset(combo))
        if target_score is not None:
            if scores_match(score, target_score):
                return combo
            continue
        if score > best_score:
            best_score = score
            best = combo
    return best


class TestToleranceConsistency:
    def test_scheduler_reexports_the_canonical_rule(self):
        # One definition: the scheduler's names must be the core objects,
        # so the table's bucket filter and the naive loop cannot drift.
        assert SCORE_TOLERANCE is blockscores.SCORE_TOLERANCE
        assert scores_match is blockscores.scores_match


class TestBlockScoreTable:
    @pytest.mark.parametrize(
        "factory", [amd_opteron_6272, intel_xeon_e7_4830_v3, amd_epyc_zen]
    )
    def test_scores_match_scorer(self, factory):
        machine = factory()
        scorer = _interconnect_scorer(machine)
        table = BlockScoreTable(machine, scorer)
        assert len(table._scores) == 2 ** machine.n_nodes - 1
        for size in range(1, machine.n_nodes + 1):
            for combo in itertools.combinations(machine.nodes, size):
                assert table.score(combo) == scorer(frozenset(combo))

    @pytest.mark.parametrize(
        "factory", [amd_opteron_6272, intel_xeon_e7_4830_v3, amd_epyc_zen]
    )
    def test_best_block_equals_naive_loop_on_random_free_sets(self, factory):
        machine = factory()
        scorer = _interconnect_scorer(machine)
        table = BlockScoreTable(machine, scorer)
        rng = random.Random(42)
        for _ in range(200):
            free = {
                n for n in machine.nodes if rng.random() < rng.random() + 0.2
            }
            size = rng.randint(1, machine.n_nodes)
            exclude = tuple(
                n for n in machine.nodes if rng.random() < 0.15
            )
            assert table.find(free, size, exclude=exclude) == _naive_find(
                free, size, scorer, exclude=exclude
            )

    @pytest.mark.parametrize(
        "factory", [amd_opteron_6272, intel_xeon_e7_4830_v3, amd_epyc_zen]
    )
    def test_target_match_equals_naive_loop(self, factory):
        machine = factory()
        scorer = _interconnect_scorer(machine)
        table = BlockScoreTable(machine, scorer)
        rng = random.Random(7)
        # Every achievable score is used as a target at least once, plus
        # perturbed targets that exercise the tolerance window.
        targets = sorted(
            {
                scorer(frozenset(c))
                for size in range(1, machine.n_nodes + 1)
                for c in itertools.combinations(machine.nodes, size)
            }
        )
        for _ in range(200):
            free = {n for n in machine.nodes if rng.random() < 0.7}
            size = rng.randint(1, machine.n_nodes)
            base = rng.choice(targets)
            target = base + rng.choice(
                (0.0, 2e-4, -2e-4, 6e-4, -6e-4, 1.1e-3)
            )
            assert table.find(
                free, size, target_score=target
            ) == _naive_find(free, size, scorer, target_score=target)

    def test_zero_table_prefers_first_enumeration_order(self):
        machine = intel_xeon_e7_4830_v3()
        table = BlockScoreTable(machine, lambda block: 0.0)
        # All scores equal: the first combination in enumeration order
        # wins, exactly as the naive loop's strict > keeps the first max.
        assert table.find(set(machine.nodes), 2) == (0, 1)
        assert table.find({1, 3}, 2) == (1, 3)
        assert table.find({2}, 2) is None

    def test_find_block_with_table_matches_loop_on_host(self):
        machine = amd_opteron_6272()
        scorer = _interconnect_scorer(machine)
        table = BlockScoreTable(machine, scorer)
        host = FleetHost(0, machine)
        host.allocate(1, Placement(machine, (0, 3), 16, l2_share=2))
        for size in (1, 2, 4, 6, 7):
            assert host.find_block(size, table=table) == (
                _naive_find(frozenset(mask_nodes(host.free_mask)), size, scorer)
            )
        target = scorer(frozenset((1, 2)))
        assert host.find_block(
            2, table=table, target_score=target
        ) == _naive_find(frozenset(mask_nodes(host.free_mask)), 2, scorer, target_score=target)

    @pytest.mark.parametrize(
        "factory", [amd_opteron_6272, intel_xeon_e7_4830_v3]
    )
    def test_mask_keyed_lookup_equals_find_for_every_mask(self, factory):
        machine = factory()
        scorer = _interconnect_scorer(machine)
        table = BlockScoreTable(machine, scorer)
        sizes = range(1, machine.n_nodes + 1)
        targets = {
            size: sorted(
                {
                    scorer(frozenset(c))
                    for c in itertools.combinations(machine.nodes, size)
                }
            )
            for size in sizes
        }
        asked = 0
        for mask in range(2**machine.n_nodes):
            free = set(mask_nodes(mask))
            assert node_mask(free) == mask
            for size in sizes:
                for target in [None, -1.0] + targets[size]:
                    expected = table.find(free, size, target_score=target)
                    # First ask fills the memo, the second reads it.
                    assert table.find_mask(mask, size, target) == expected
                    assert table.find_mask(mask, size, target) == expected
                    asked += 1
        assert len(table._states) == asked

    def test_find_block_exclude_reads_the_excluded_state(self):
        machine = amd_opteron_6272()
        scorer = _interconnect_scorer(machine)
        table = BlockScoreTable(machine, scorer)
        host = FleetHost(0, machine)
        host.allocate(1, Placement(machine, (0, 3), 16, l2_share=2))
        assert host.free_mask == 0b11110110
        for exclude in ((), (1,), (1, 2, 4), tuple(machine.nodes)):
            assert host.find_block(
                2, exclude=exclude, table=table
            ) == _naive_find(frozenset(mask_nodes(host.free_mask)), 2, scorer, exclude=exclude)

    def test_oversized_machine_rejected(self):
        machine = _jumbo()
        with pytest.raises(ValueError, match="capped"):
            BlockScoreTable(machine, lambda block: 0.0)
        assert block_score_table(machine) is None


class TestLoopFilledStateMemo:
    """Shapes above MAX_TABLE_NODES get the same memo, filled by the
    combinations loop instead of a table."""

    def test_answers_equal_the_loop_and_are_computed_once(self):
        machine = _jumbo()
        calls = []

        def scorer(block):
            calls.append(block)
            return machine.interconnect.aggregate_bandwidth(block)

        memo = BlockStateMemo(machine, scorer)
        rng = random.Random(3)
        target = machine.interconnect.aggregate_bandwidth((0, 1))
        for _ in range(40):
            mask = rng.getrandbits(machine.n_nodes)
            for size, wanted in ((1, None), (2, target), (2, -1.0), (3, None)):
                expected = _naive_find(
                    mask_nodes(mask),
                    size,
                    machine.interconnect.aggregate_bandwidth,
                    target_score=wanted,
                )
                assert memo.find_mask(mask, size, wanted) == expected
                scored = len(calls)
                assert memo.find_mask(mask, size, wanted) == expected
                assert len(calls) == scored  # second ask never re-scores

    def test_cache_serves_untabulable_shapes_and_drops_them_with_the_table(
        self,
    ):
        cache = BlockScoreCache()
        jumbo, amd = _jumbo(), amd_opteron_6272()
        memo = cache.states(jumbo)
        assert not isinstance(memo, BlockScoreTable)
        assert cache.get(jumbo) is None  # no table, as before
        assert cache.states(jumbo) is memo  # one per shape
        assert cache.states(amd) is cache.get(amd)  # the table is the memo
        memo.find_mask(0b111, 2)
        cache.get(amd).find_mask(0b111, 2)
        cache.invalidate(jumbo.fingerprint())
        cache.invalidate(amd.fingerprint())
        assert cache.states(jumbo) is not memo
        assert len(cache.states(jumbo)._states) == 0
        assert len(cache.get(amd)._states) == 0
        cache.assert_version_consistency()

    def test_module_level_helper_shares_default_cache(self):
        machine = amd_opteron_6272()
        assert block_state_memo(machine) is block_score_table(machine)


class TestBlockScoreCache:
    def test_tables_shared_per_fingerprint(self):
        cache = BlockScoreCache()
        first = cache.get(amd_opteron_6272())
        again = cache.get(amd_opteron_6272())  # distinct object, same shape
        assert first is again
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_kinds_are_distinct_entries(self):
        cache = BlockScoreCache()
        machine = amd_opteron_6272()
        assert cache.get(machine, "interconnect") is not cache.get(
            machine, "zero"
        )
        assert cache.info().currsize == 2
        with pytest.raises(ValueError, match="unknown scorer kind"):
            cache.get(machine, "nope")

    def test_module_level_helpers_share_default_cache(self):
        machine = amd_opteron_6272()
        assert block_score_table(machine) is cached_block_score_table(machine)
        assert DEFAULT_BLOCK_SCORE_CACHE.get(machine) is block_score_table(
            machine
        )


class TestVersionConsistencyHook:
    def test_clean_cache_passes(self):
        cache = BlockScoreCache()
        machine = amd_opteron_6272()
        cache.get(machine)
        cache.assert_version_consistency()

    def test_invalidate_keeps_consistency(self):
        cache = BlockScoreCache()
        machine = amd_opteron_6272()
        cache.get(machine)
        cache.invalidate(machine.fingerprint())
        cache.get(machine)
        cache.assert_version_consistency()

    def test_skipped_bump_is_caught(self):
        cache = BlockScoreCache()
        machine = amd_opteron_6272()
        cache.get(machine)
        # Simulate a buggy mutation path: bump the version without
        # dropping the shape's tables.
        fingerprint = machine.fingerprint()
        cache._versions[fingerprint] = cache._versions.get(fingerprint, 0) + 1
        with pytest.raises(AssertionError, match="invalidation was skipped"):
            cache.assert_version_consistency()
