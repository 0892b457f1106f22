"""Tests for the topology-fingerprint-keyed enumeration memo cache."""

import pytest

from repro.core import enumerate_important_placements
from repro.core.memo import (
    DEFAULT_ENUMERATION_CACHE,
    ENUMERATION_CACHE_MAX,
    EnumerationCache,
    cached_enumerate_important_placements,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from repro.topology.builder import TopologyBuilder


def _counting_cache(monkeypatch):
    """A cache whose underlying pipeline invocations are counted."""
    import repro.core.memo as memo

    calls = {"n": 0}
    real = memo.enumerate_important_placements

    def counted(machine, vcpus, concerns=None):
        calls["n"] += 1
        return real(machine, vcpus, concerns)

    monkeypatch.setattr(memo, "enumerate_important_placements", counted)
    return EnumerationCache(), calls


class TestFingerprint:
    def test_equal_for_independent_builds(self):
        assert amd_opteron_6272().fingerprint() == amd_opteron_6272().fingerprint()

    def test_distinct_shapes_differ(self):
        assert (
            amd_opteron_6272().fingerprint()
            != intel_xeon_e7_4830_v3().fingerprint()
        )

    def test_hashable(self):
        assert {amd_opteron_6272().fingerprint()}


class TestEnumerationCache:
    def test_same_fingerprint_hits(self, monkeypatch):
        cache, calls = _counting_cache(monkeypatch)
        first = cache.get(amd_opteron_6272(), 16)
        # A *different object* with the same shape must hit.
        second = cache.get(amd_opteron_6272(), 16)
        assert calls["n"] == 1
        assert second is first
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_distinct_topologies_miss(self, monkeypatch):
        cache, calls = _counting_cache(monkeypatch)
        cache.get(amd_opteron_6272(), 16)
        cache.get(intel_xeon_e7_4830_v3(), 16)
        assert calls["n"] == 2
        assert cache.info().misses == 2

    def test_distinct_vcpus_miss(self, monkeypatch):
        cache, calls = _counting_cache(monkeypatch)
        cache.get(amd_opteron_6272(), 16)
        cache.get(amd_opteron_6272(), 8)
        assert calls["n"] == 2

    def test_structurally_different_same_name_misses(self, monkeypatch):
        cache, calls = _counting_cache(monkeypatch)

        def build(threads_per_l2):
            return (
                TopologyBuilder("twin")
                .nodes(4)
                .l2_groups_per_node(4, threads_per_l2=threads_per_l2)
                .dram_bandwidth(10000)
                .cache_sizes(l3_mb=8, l2_kb=512)
                .symmetric_interconnect(bandwidth_mbps=6000)
                .build()
            )

        cache.get(build(2), 8)
        cache.get(build(1), 8)
        assert calls["n"] == 2

    def test_cached_results_not_mutated_by_callers(self):
        cache = EnumerationCache()
        machine = amd_opteron_6272()
        first = cache.get(machine, 16)
        n_placements = len(first)
        vectors = tuple(first.concerns.score_vector(p) for p in first)

        # A caller copying the views and mutating the copies must not be
        # able to corrupt the cached entry.
        as_list = list(first)
        as_list.clear()
        packings = list(first.surviving_packings)
        packings.clear()

        second = cache.get(machine, 16)
        assert len(second) == n_placements
        assert tuple(second.concerns.score_vector(p) for p in second) == vectors
        # The exposed views themselves are immutable tuples.
        assert isinstance(second.placements, tuple)
        assert isinstance(second.surviving_packings, tuple)

    def test_matches_uncached_enumeration(self):
        machine = amd_opteron_6272()
        cached = EnumerationCache().get(machine, 16)
        direct = enumerate_important_placements(machine, 16)
        assert list(cached.placements) == list(direct.placements)
        assert [cached.concerns.score_vector(p) for p in cached] == [
            direct.concerns.score_vector(p) for p in direct
        ]

    def test_maxsize_evicts_fifo(self, monkeypatch):
        cache, calls = _counting_cache(monkeypatch)
        cache.maxsize = 1
        cache.get(amd_opteron_6272(), 16)
        cache.get(amd_opteron_6272(), 8)  # evicts the 16-vCPU entry
        cache.get(amd_opteron_6272(), 16)
        assert calls["n"] == 3
        assert cache.info().currsize == 1

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            EnumerationCache(maxsize=0)

    def test_clear_resets_counters(self):
        cache = EnumerationCache()
        cache.get(amd_opteron_6272(), 16)
        cache.get(amd_opteron_6272(), 16)
        cache.clear()
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        # Re-enumerates after a clear.
        cache.get(amd_opteron_6272(), 16)
        assert cache.info().misses == 1


    def test_contains_neither_counts_nor_enumerates(self):
        cache = EnumerationCache()
        machine = amd_opteron_6272()
        assert (machine, 16) not in cache
        cache.get(machine, 16)
        assert (amd_opteron_6272(), 16) in cache  # keyed by fingerprint
        assert (machine, 8) not in cache
        info = cache.info()
        assert (info.hits, info.misses, info.currsize) == (0, 1, 1)


class TestModuleLevelCache:
    def test_default_cache_is_bounded(self):
        assert DEFAULT_ENUMERATION_CACHE.maxsize == ENUMERATION_CACHE_MAX

    def test_cached_convenience_function(self):
        machine = intel_xeon_e7_4830_v3()
        before = DEFAULT_ENUMERATION_CACHE.info()
        first = cached_enumerate_important_placements(machine, 24)
        second = cached_enumerate_important_placements(machine, 24)
        after = DEFAULT_ENUMERATION_CACHE.info()
        assert second is first
        assert after.hits >= before.hits + 1
