"""Memoized important-placement enumeration.

The Algorithm 1-3 pipeline in :mod:`repro.core.enumeration` depends only on
the machine's topology fingerprint and the container's vCPU count, so a
fleet scheduler handling thousands of requests against a handful of machine
shapes should run it once per distinct ``(fingerprint, vcpus)`` key, not
once per request.  :class:`EnumerationCache` provides exactly that: a
dictionary keyed by :meth:`repro.topology.machine.MachineTopology.fingerprint`
with hit/miss accounting, so callers (and tests) can verify how many times
the pipeline actually ran.

Cached :class:`~repro.core.enumeration.ImportantPlacementSet` objects are
shared between callers.  That is safe because the set exposes only
immutable views (tuples of :class:`~repro.core.placements.Placement` and
score vectors); a caller that copies them into a list and mutates the copy
cannot corrupt the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.enumeration import (
    ImportantPlacementSet,
    enumerate_important_placements,
)
from repro.core.serialize import Record
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class CacheInfo(Record):
    """Snapshot of a cache's accounting counters."""

    hits: int
    misses: int
    currsize: int

    def __add__(self, other: "CacheInfo") -> "CacheInfo":
        """Merge two caches' accounting (the sharded service sums its
        workers' per-shard counters into one fleet-level snapshot)."""
        if not isinstance(other, CacheInfo):
            return NotImplemented
        return CacheInfo(
            self.hits + other.hits,
            self.misses + other.misses,
            self.currsize + other.currsize,
        )


class EnumerationCache:
    """Topology-fingerprint-keyed memo cache for placement enumeration.

    Parameters
    ----------
    maxsize:
        Maximum number of distinct ``(fingerprint, vcpus)`` entries kept;
        ``None`` means unbounded.  Eviction is FIFO — distinct machine
        shapes are few and enumeration is cheap to redo, so anything
        smarter would be ceremony.
    """

    def __init__(self, maxsize: int | None = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be >= 1 or None")
        self.maxsize = maxsize
        self._entries: Dict[Tuple, ImportantPlacementSet] = {}
        self._hits = 0
        self._misses = 0

    def get(
        self, machine: MachineTopology, vcpus: int
    ) -> ImportantPlacementSet:
        """The important placements for ``(machine shape, vcpus)``, running
        the enumeration pipeline only on the first request for this key.

        A hit returns the set enumerated for the *first* machine seen with
        this fingerprint; fingerprint-equal machines are interchangeable
        for every consumer in this repository.  The cache always derives
        the concern set from the machine — callers with a hand-built
        :class:`~repro.core.concerns.ConcernSet` must use
        :func:`~repro.core.enumeration.enumerate_important_placements`
        directly, since custom concerns are not part of the cache key.
        """
        key = (machine.fingerprint(), int(vcpus))
        cached = self._entries.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        result = enumerate_important_placements(machine, vcpus)
        if self.maxsize is not None and len(self._entries) >= self.maxsize:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
        self._entries[key] = result
        return result

    def __contains__(self, key: Tuple[MachineTopology, int]) -> bool:
        """Whether ``(machine, vcpus)`` would be served without running the
        pipeline.  Not counted as a lookup."""
        machine, vcpus = key
        return (machine.fingerprint(), int(vcpus)) in self._entries

    def info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, len(self._entries))

    def clear(self) -> None:
        self._entries.clear()
        self._hits = 0
        self._misses = 0


#: Entries the process-wide cache keeps.  A fleet sees a handful of
#: ``(shape, vcpus)`` keys; the bound only matters to a long-lived process
#: that keeps meeting new shapes.
ENUMERATION_CACHE_MAX = 256

#: Process-wide default cache, used by every fleet scheduler registry (each
#: :class:`~repro.scheduler.registry.ModelRegistry` is a view of it) and by
#: anyone who wants cross-call memoization without threading a cache
#: object through their API.
DEFAULT_ENUMERATION_CACHE = EnumerationCache(ENUMERATION_CACHE_MAX)


def cached_enumerate_important_placements(
    machine: MachineTopology, vcpus: int
) -> ImportantPlacementSet:
    """Drop-in memoized variant of
    :func:`repro.core.enumeration.enumerate_important_placements`."""
    return DEFAULT_ENUMERATION_CACHE.get(machine, vcpus)


def cached_block_score_table(machine: MachineTopology, kind: str = "interconnect"):
    """The process-wide shared per-shape block-score table (see
    :mod:`repro.core.blockscores`; same fingerprint-keyed memoization
    discipline as the enumeration cache).  Returns None for machines too
    large to tabulate."""
    # Imported lazily: blockscores borrows CacheInfo from this module.
    from repro.core.blockscores import DEFAULT_BLOCK_SCORE_CACHE

    return DEFAULT_BLOCK_SCORE_CACHE.get(machine, kind)
