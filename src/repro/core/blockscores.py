"""Shared per-shape block-score tables.

``FleetHost.find_block`` used to re-score ``itertools.combinations`` of the
host's free nodes on every call — per request, per host, per candidate
rank.  But a block's interconnect score depends only on the machine shape
and the node subset, never on the host, so a fleet of a thousand
identically shaped hosts asks the exact same questions a thousand times
over.  A :class:`BlockScoreTable` answers them from a table instead: it
scores every node subset of one machine shape exactly once and keeps

* a ``frozenset -> score`` map (direct score lookups),
* per block size, the enumeration-rank order and the best-score-first
  order (the Smart-Aggressive "highest bandwidth wins" rule), and
* an inverted ``rounded score -> blocks`` map, so finding a free block
  matching a target interconnect score is a bucket probe instead of a
  combinations loop.

Lookups are *bit-for-bit equivalent* to the combinations loop
(:func:`search_blocks`): the same tolerance rules
(:func:`repro.scheduler.fleet.scores_match`), the same tie-breaking (first
block in combinations order wins), the same floats (scores come from the
same scorer).  ``tests/core/test_blockscores.py`` asserts the equivalence
exhaustively.

Above the table sits a second, coarser collapse.  The answer to "which
block does a host grant?" depends on the host only through *which of its
nodes are free*, and an n-node shape has at most 2^n such states however
many hosts share it.  :class:`BlockStateMemo` keys the answer on
``(free-node bitmask, block size, target score)`` and computes it once per
shape: :meth:`~repro.scheduler.fleet.FleetHost.find_block` reads it for
one host, and :meth:`~repro.scheduler.index.FleetIndex.lowest_host` reads
it once per distinct state *present in the fleet* instead of once per
host.  A :class:`BlockScoreTable` is a state memo whose misses are table
lookups.

Memos are cached per ``(machine fingerprint, scorer kind)`` in a
:class:`BlockScoreCache` (same accounting scheme as
:class:`repro.core.memo.EnumerationCache`); all hosts of one shape share
one.  Machines with more than :data:`MAX_TABLE_NODES` nodes would need
exponentially many table entries, so :func:`block_score_table` returns
``None`` for them; :func:`block_state_memo` still serves them, its misses
filled by the combinations loop (:func:`search_blocks`), so callers have
one path for every shape.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import itertools

from repro.core.memo import CacheInfo
from repro.topology.machine import MachineTopology

#: Largest machine (in NUMA nodes) a table is built for: 2^12 = 4096
#: subsets.  Beyond that the table costs more than the loops it replaces.
MAX_TABLE_NODES = 12

#: Decimals used for the inverted score buckets — the granularity the
#: enumeration rounds scores to (see ``repro.core.concerns.SCORE_DECIMALS``).
_BUCKET_DECIMALS = 3

#: Interconnect scores within this of each other are the same score even
#: when they straddle a 3-decimal rounding boundary.  Canonical home of
#: the constant; ``repro.scheduler.fleet`` re-exports it.
SCORE_TOLERANCE = 5e-4


def node_mask(nodes: Iterable[int]) -> int:
    """The bitmask with bit ``n`` set for every node id ``n``."""
    mask = 0
    for node in nodes:
        mask |= 1 << node
    return mask


def mask_nodes(mask: int) -> List[int]:
    """The node ids of a bitmask, ascending."""
    return [node for node in range(mask.bit_length()) if mask >> node & 1]


def scores_match(score: float, target: float) -> bool:
    """Whether two interconnect scores identify the same block class.

    Two conditions, because each covers the other's blind spot: the
    absolute tolerance catches scores a hair's width apart that round to
    different 3-decimal buckets (the silent-rejection bug), while the
    rounded comparison keeps accepting scores in the same bucket that sit
    up to a full rounding step apart — which the enumeration, deduping on
    ``round(score, 3)``, treats as identical.

    This is the single definition both :func:`search_blocks` and the
    table's bucket filter use — they cannot drift apart.
    """
    return (
        abs(score - target) <= SCORE_TOLERANCE
        or round(score, _BUCKET_DECIMALS) == round(target, _BUCKET_DECIMALS)
    )


def search_blocks(
    free: Iterable[int],
    size: int,
    scorer,
    target_score: float | None = None,
) -> Tuple[int, ...] | None:
    """The combinations loop: the reference every table and memo answer
    must equal.

    With ``target_score`` the first block of ``size`` free nodes (in
    ``itertools.combinations`` order over the sorted free nodes) whose
    score matches per :func:`scores_match`; without, the best-scoring
    block, first-in-order on ties.
    """
    nodes = sorted(free)
    if size > len(nodes):
        return None
    best: Tuple[int, ...] | None = None
    best_score = float("-inf")
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


class BlockStateMemo:
    """Block-search answers of one machine shape, one per free-node state.

    ``(free-node mask, size, target score) -> block | None`` is a pure
    function of the shape and the scorer, so it is computed on first ask
    and shared by every host that is ever in that state.  Entries are
    bounded by ``2^n states x n sizes x distinct targets`` (targets are
    the interconnect scores of a shape's important placements — a
    handful); only states some host actually reached are stored.

    This base class fills misses with :func:`search_blocks` and serves
    shapes too large to tabulate; :class:`BlockScoreTable` overrides
    :meth:`find` with table lookups.
    """

    def __init__(self, machine: MachineTopology, scorer) -> None:
        self.machine = machine
        self._scorer = scorer
        self._states: Dict[
            Tuple[int, int, float | None], Tuple[int, ...] | None
        ] = {}

    def find(
        self,
        free: Set[int],
        size: int,
        *,
        target_score: float | None = None,
    ) -> Tuple[int, ...] | None:
        """Unmemoized block search over an explicit free-node set."""
        if size < 1:
            raise ValueError("block size must be >= 1")
        return search_blocks(free, size, self._scorer, target_score)

    def find_mask(
        self, mask: int, size: int, target_score: float | None = None
    ) -> Tuple[int, ...] | None:
        """:meth:`find` for the free-node set ``mask`` encodes, memoized."""
        key = (mask, size, target_score)
        try:
            return self._states[key]
        except KeyError:
            block = self._states[key] = self.find(
                set(mask_nodes(mask)), size, target_score=target_score
            )
            return block


class _SizeTable:
    """All blocks of one size on one machine shape, pre-scored."""

    __slots__ = ("entries", "best_order", "buckets", "near_cache", "match_cache")

    def __init__(
        self, nodes: Tuple[int, ...], size: int, scorer
    ) -> None:
        #: rank -> (block as frozenset, block as sorted tuple, score).
        #: Rank is the position in ``itertools.combinations`` order over
        #: the machine's full node list — restricting that enumeration to
        #: the subsets of any free-node set preserves relative order, so
        #: rank ties break exactly like :func:`search_blocks`.
        self.entries: List[Tuple[FrozenSet[int], Tuple[int, ...], float]] = []
        for combo in itertools.combinations(nodes, size):
            block = frozenset(combo)
            self.entries.append((block, combo, scorer(block)))
        #: Ranks sorted best score first, enumeration order within a score
        #: (:func:`search_blocks`'s strict ``>`` keeps the first max).
        self.best_order: Tuple[int, ...] = tuple(
            sorted(
                range(len(self.entries)),
                key=lambda rank: (-self.entries[rank][2], rank),
            )
        )
        #: Inverted map: rounded score -> ranks (ascending).
        self.buckets: Dict[float, List[int]] = {}
        for rank, (_, _, score) in enumerate(self.entries):
            self.buckets.setdefault(
                round(score, _BUCKET_DECIMALS), []
            ).append(rank)
        #: rounded target -> merged rank list of its 3-bucket
        #: neighbourhood (distinct targets are few; the merge is paid
        #: once, not per lookup).
        self.near_cache: Dict[float, Tuple[int, ...]] = {}
        #: exact target -> (block set, block tuple) of every matching
        #: block, ascending rank.  The tolerance filter depends on the
        #: exact target, not its rounding, so this is keyed separately.
        self.match_cache: Dict[
            float, Tuple[Tuple[FrozenSet[int], Tuple[int, ...]], ...]
        ] = {}

    def ranks_near(self, center: float) -> Tuple[int, ...]:
        """Ascending ranks of all blocks whose rounded score is within
        one rounding step of ``center`` — the superset any target with
        this rounding can match (the exact tolerance rule still runs per
        candidate)."""
        cached = self.near_cache.get(center)
        if cached is None:
            step = 10.0**-_BUCKET_DECIMALS
            merged: List[int] = []
            for key in (
                center,
                round(center - step, _BUCKET_DECIMALS),
                round(center + step, _BUCKET_DECIMALS),
            ):
                merged.extend(self.buckets.get(key, ()))
            cached = tuple(sorted(set(merged)))
            self.near_cache[center] = cached
        return cached

    def matching_blocks(
        self, target: float
    ) -> Tuple[Tuple[FrozenSet[int], Tuple[int, ...]], ...]:
        """Every block matching ``target`` per the tolerance rules,
        ascending rank — filtered once per distinct target, so the
        per-host question reduces to subset tests."""
        cached = self.match_cache.get(target)
        if cached is None:
            cached = tuple(
                (block, combo)
                for block, combo, score in (
                    self.entries[rank]
                    for rank in self.ranks_near(
                        round(target, _BUCKET_DECIMALS)
                    )
                )
                if scores_match(score, target)
            )
            self.match_cache[target] = cached
        return cached


class BlockScoreTable(BlockStateMemo):
    """Every node subset of one machine shape, scored exactly once.

    Parameters
    ----------
    machine:
        The shape whose node subsets are tabulated.
    scorer:
        Block scorer; must be a pure function of the node set (the
        interconnect bandwidth scorer and the constant-zero scorer both
        are).
    """

    def __init__(self, machine: MachineTopology, scorer) -> None:
        if machine.n_nodes > MAX_TABLE_NODES:
            raise ValueError(
                f"{machine.name} has {machine.n_nodes} nodes; block-score "
                f"tables are capped at {MAX_TABLE_NODES} (2^n subsets)"
            )
        super().__init__(machine, scorer)
        nodes = tuple(machine.nodes)
        self._sizes: Dict[int, _SizeTable] = {
            size: _SizeTable(nodes, size, scorer)
            for size in range(1, machine.n_nodes + 1)
        }
        self._scores: Dict[FrozenSet[int], float] = {
            block: score
            for table in self._sizes.values()
            for block, _, score in table.entries
        }

    # ------------------------------------------------------------------

    def score(self, nodes: Iterable[int]) -> float:
        """The precomputed score of one block."""
        return self._scores[frozenset(nodes)]

    def find(
        self,
        free: Set[int],
        size: int,
        *,
        target_score: float | None = None,
        exclude: Iterable[int] = (),
    ) -> Tuple[int, ...] | None:
        """Table-backed equivalent of :func:`search_blocks`.

        With ``target_score``: the first block (in combinations order) of
        ``size`` free nodes whose score matches per the tolerance rules.
        Without: the best-scoring free block, first-in-order on ties.
        """
        if size < 1:
            raise ValueError("block size must be >= 1")
        table = self._sizes.get(size)
        if table is None:
            return None
        avail = free.difference(exclude) if exclude else free
        if size > len(avail):
            return None
        entries = table.entries
        if target_score is None:
            for rank in table.best_order:
                block, combo, _ = entries[rank]
                if block <= avail:
                    return combo
            return None
        # Matching blocks live in the target's rounded bucket or, when the
        # absolute tolerance straddles a rounding boundary, a neighbouring
        # one; the tolerance filter is memoized per distinct target, so a
        # lookup is subset tests over the (usually few) matching blocks,
        # lowest-ranked (first-enumerated) free match first.
        for block, combo in table.matching_blocks(target_score):
            if block <= avail:
                return combo
        return None


class BlockScoreCache:
    """Fingerprint-keyed memo cache of block-score tables and state memos.

    Keys are ``(machine fingerprint, scorer kind)``; all hosts with the
    same shape share one :class:`BlockStateMemo` per kind — a
    :class:`BlockScoreTable` up to :data:`MAX_TABLE_NODES` nodes, the
    loop-filled base memo above.  Kinds:

    * ``"interconnect"`` — ``machine.interconnect.aggregate_bandwidth``,
      the scorer of the heuristic fleet policies, the rebalancer, and (via
      the bandwidth concern, which memoizes the same values) the
      goal-aware policy on asymmetric machines;
    * ``"zero"`` — the constant-0 scorer the goal-aware policy uses on
      machines without an interconnect concern.
    """

    _KINDS = ("interconnect", "zero")

    def __init__(self) -> None:
        self._tables: Dict[Tuple, BlockStateMemo] = {}
        #: fingerprint -> current version.  Entries are keyed with the
        #: version current at build time, so bumping a shape's version
        #: (model promotion) orphans exactly that shape's tables — every
        #: other shape keeps serving its existing tables untouched.
        self._versions: Dict[Tuple, int] = {}
        self._hits = 0
        self._misses = 0

    def states(
        self, machine: MachineTopology, kind: str = "interconnect"
    ) -> BlockStateMemo:
        """The shared state memo for a shape: its table when the shape is
        tabulable, the loop-filled memo otherwise."""
        if kind not in self._KINDS:
            raise ValueError(
                f"unknown scorer kind {kind!r}; choose from {self._KINDS}"
            )
        fingerprint = machine.fingerprint()
        key = (fingerprint, kind, self._versions.get(fingerprint, 0))
        memo = self._tables.get(key)
        if memo is not None:
            self._hits += 1
            return memo
        self._misses += 1
        if kind == "zero":
            scorer = lambda block: 0.0  # noqa: E731
        else:
            interconnect = machine.interconnect
            scorer = lambda block: interconnect.aggregate_bandwidth(block)  # noqa: E731
        if machine.n_nodes > MAX_TABLE_NODES:
            memo = BlockStateMemo(machine, scorer)
        else:
            memo = BlockScoreTable(machine, scorer)
        self._tables[key] = memo
        return memo

    def get(
        self, machine: MachineTopology, kind: str = "interconnect"
    ) -> BlockScoreTable | None:
        """The shared table for a shape, or None for untabulable machines."""
        memo = self.states(machine, kind)
        return memo if isinstance(memo, BlockScoreTable) else None

    def version(self, fingerprint: Tuple) -> int:
        """The shape's current table version (0 until first invalidation)."""
        return self._versions.get(fingerprint, 0)

    def invalidate(self, fingerprint: Tuple) -> int:
        """Version-bump one shape: drop its tables (all kinds, all stale
        versions) and return the new version.

        Called on model promotion.  The block *scores* are pure functions
        of the shape, but each table accumulates memoized target-match
        lists (``near_cache``/``match_cache``) and per-state answers
        (:class:`BlockStateMemo`) for exactly the target scores the
        retiring model version asked about; a promoted version asks about
        different candidate placements, so both are dropped with the
        table and the next lookup rebuilds for the new version's working
        set.  Other shapes' entries are untouched.
        """
        version = self._versions.get(fingerprint, 0) + 1
        self._versions[fingerprint] = version
        stale = [key for key in self._tables if key[0] == fingerprint]
        for key in stale:
            del self._tables[key]
        return version

    def assert_version_consistency(self) -> None:
        """Debug hook: every live table is keyed at its shape's current
        version.

        :meth:`invalidate` bumps ``_versions`` and drops the orphaned
        tables in the same call, so a surviving table keyed at an older
        version means some mutation path skipped the bump.
        ``tests/test_memo_surfaces.py`` runs it after every step of its
        block-score property.
        """
        for fingerprint, kind, version in self._tables:
            current = self._versions.get(fingerprint, 0)
            if version != current:
                raise AssertionError(
                    f"BlockScoreCache: {kind!r} table keyed at version "
                    f"{version} but its shape is at {current}; an "
                    "invalidation was skipped"
                )

    def info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, len(self._tables))

    def clear(self) -> None:
        self._tables.clear()
        self._versions.clear()
        self._hits = 0
        self._misses = 0


#: Process-wide default cache; the fleet policies and the lifecycle
#: rebalancer share tables through it.
DEFAULT_BLOCK_SCORE_CACHE = BlockScoreCache()


def block_score_table(
    machine: MachineTopology, kind: str = "interconnect"
) -> BlockScoreTable | None:
    """The process-wide shared table for a machine shape (None when the
    machine is too large to tabulate)."""
    return DEFAULT_BLOCK_SCORE_CACHE.get(machine, kind)


def block_state_memo(
    machine: MachineTopology, kind: str = "interconnect"
) -> BlockStateMemo:
    """The process-wide shared state memo for a machine shape (every
    shape has one, tabulable or not)."""
    return DEFAULT_BLOCK_SCORE_CACHE.states(machine, kind)
