"""Incremental fleet indexes: sub-linear host selection at fleet scale.

Every placement decision used to scan the whole fleet — ``for host in
fleet.hosts`` per request — and every fleet aggregate (free nodes, used
threads, largest free block) was a full-fleet sum per query, which the
lifecycle engine pays after *every* event for its fragmentation timeline.
Both costs are linear in fleet size even though almost nothing changes
between events: one allocation touches one host.

:class:`FleetIndex` makes the mutation pay for the bookkeeping instead of
the queries.  It buckets hosts by ``(machine fingerprint, largest free
block)`` — for whole-node placements a host's largest grantable block *is*
its free-node count — and keeps O(1) running counters for the fleet
aggregates.  :meth:`FleetHost.allocate <repro.scheduler.fleet.FleetHost.allocate>`
and :meth:`~repro.scheduler.fleet.FleetHost.release` notify the index on
every state change (the rebalancer's migrations go through the same two
methods, so they are covered for free), and the placement policies query
buckets instead of scanning:

* *which hosts could fit an n-node block?* — the union of a shape's
  buckets with free count >= n, skipping full and too-fragmented hosts
  entirely;
* *which distinct shapes exist?* — an O(#shapes) dict, not an O(#hosts)
  scan;
* *fleet free-node total / used threads / largest free block?* — counter
  reads, making the lifecycle fragmentation sample O(1) per event.

A second, finer bucketing answers the goal-aware policy's question —
*which is the lowest-id host that can grant a block of this size with this
interconnect score?*  Whether a host can is a pure function of its shape
and of **which** of its nodes are free, so hosts are also bucketed by
``(machine fingerprint, free-node bitmask)`` and
:meth:`FleetIndex.lowest_host` asks the shape's
:class:`~repro.core.blockscores.BlockStateMemo` once per distinct state
present (at most 2^n, a few dozen in practice), never once per host.
Each state bucket keeps its ids in a lazy-deletion heap, so its
lowest id is a peek; stale entries are compacted away once they outnumber
the live ones, which keeps bucket storage linear in the number of hosts
under arbitrarily long churn.

The index is an accelerator, not an oracle: the linear scans it replaces
are the test oracles in ``tests/scheduler/oracle_linear.py``, and
``tests/scheduler/test_index.py`` asserts both that every counter matches
a from-scratch recomputation under randomized churn and that the policies
make bit-for-bit the decisions of their linear oracles.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterable, List, Set, Tuple

from repro.topology.machine import MachineTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.blockscores import BlockStateMemo
    from repro.core.placements import Placement
    from repro.scheduler.fleet import FleetHost


class _StateBucket:
    """The hosts of one shape that share one free-node mask.

    ``live`` is the truth; ``heap`` holds every live id (plus ids that
    have since left, deleted lazily), so the lowest live id is a peek
    instead of a scan of the bucket.
    """

    __slots__ = ("live", "heap")

    def __init__(self) -> None:
        self.live: Set[int] = set()
        self.heap: List[int] = []

    def add(self, host_id: int) -> None:
        self.live.add(host_id)
        heapq.heappush(self.heap, host_id)

    def discard(self, host_id: int) -> None:
        self.live.discard(host_id)
        if len(self.heap) > 2 * len(self.live):
            # Stale entries outnumber live ones: rebuild (a sorted list
            # is a valid heap), so storage stays O(live) however long
            # hosts churn through this state.
            self.heap = sorted(self.live)

    def lowest(self) -> int:
        """Lowest live host id (the bucket must not be empty)."""
        heap, live = self.heap, self.live
        while heap[0] not in live:
            heapq.heappop(heap)
        return heap[0]


class FleetIndex:
    """Bucketed host index plus O(1) fleet aggregate counters.

    Maintained incrementally by the hosts it is registered with; queried
    by the placement policies and the lifecycle engine.  All mutation goes
    through :meth:`register`, :meth:`on_allocate`, and :meth:`on_release`.
    """

    def __init__(self) -> None:
        #: fingerprint -> machine, in first-registration (= host id) order.
        self._machines: Dict[Tuple, MachineTopology] = {}
        #: fingerprint -> free-node count -> host ids (the buckets).
        self._buckets: Dict[Tuple, Dict[int, Set[int]]] = {}
        #: fingerprint -> free-node mask -> hosts in exactly that state.
        #: Empty buckets are deleted, so a shape's dict lists the distinct
        #: states present.
        self._states: Dict[Tuple, Dict[int, _StateBucket]] = {}
        #: host id -> current free-node mask (the index's own view, so a
        #: resize never trusts the caller for the *old* buckets; the old
        #: free count is its popcount).
        self._mask_of: Dict[int, int] = {}
        #: free-node count -> number of hosts, across all shapes.
        self._size_count: Dict[int, int] = {}
        self._max_free = 0

        # O(1) aggregate counters.
        self.free_nodes_total = 0
        self.total_nodes = 0
        self.used_threads = 0
        self.total_threads = 0
        #: Cumulative capacity rejections (after any rebalance retry),
        #: recorded by the lifecycle engine via :meth:`record_fit_failure`.
        self.fit_failures = 0

    # ------------------------------------------------------------------
    # Mutation (driven by FleetHost bookkeeping)
    # ------------------------------------------------------------------

    def register(self, host: "FleetHost") -> None:
        """Add a host with its *current* state to the index."""
        if host.host_id in self._mask_of:
            raise ValueError(f"host {host.host_id} is already indexed")
        machine = host.machine
        fingerprint = machine.fingerprint()
        self._machines.setdefault(fingerprint, machine)
        mask = host.free_mask
        free = mask.bit_count()
        self._buckets.setdefault(fingerprint, {}).setdefault(
            free, set()
        ).add(host.host_id)
        self._mask_of[host.host_id] = mask
        self._enter_state(fingerprint, mask, host.host_id)
        self._size_count[free] = self._size_count.get(free, 0) + 1
        self._max_free = max(self._max_free, free)
        self.free_nodes_total += free
        self.total_nodes += machine.n_nodes
        self.used_threads += host.used_threads
        self.total_threads += machine.total_threads

    def on_allocate(self, host: "FleetHost", placement: "Placement") -> None:
        """A host claimed a placement's nodes (called after the mutation)."""
        self._resize(host)
        self.used_threads += placement.vcpus

    def on_release(self, host: "FleetHost", placement: "Placement") -> None:
        """A host freed a placement's nodes (called after the mutation)."""
        self._resize(host)
        self.used_threads -= placement.vcpus

    def record_fit_failure(self) -> None:
        self.fit_failures += 1

    def _enter_state(
        self, fingerprint: Tuple, mask: int, host_id: int
    ) -> None:
        states = self._states.setdefault(fingerprint, {})
        bucket = states.get(mask)
        if bucket is None:
            bucket = states[mask] = _StateBucket()
        bucket.add(host_id)

    def _leave_state(
        self, fingerprint: Tuple, mask: int, host_id: int
    ) -> None:
        states = self._states[fingerprint]
        bucket = states[mask]
        bucket.discard(host_id)
        if not bucket.live:
            del states[mask]

    def _resize(self, host: "FleetHost") -> None:
        """Move a host to the buckets matching its current free nodes."""
        host_id = host.host_id
        old_mask = self._mask_of[host_id]
        new_mask = host.free_mask
        if new_mask == old_mask:
            return
        fingerprint = host.machine.fingerprint()
        self._leave_state(fingerprint, old_mask, host_id)
        self._enter_state(fingerprint, new_mask, host_id)
        self._mask_of[host_id] = new_mask
        old, new = old_mask.bit_count(), new_mask.bit_count()
        if new == old:
            return
        buckets = self._buckets[fingerprint]
        bucket = buckets[old]
        bucket.discard(host_id)
        if not bucket:
            del buckets[old]
        buckets.setdefault(new, set()).add(host_id)
        self.free_nodes_total += new - old

        count = self._size_count[old] - 1
        if count:
            self._size_count[old] = count
        else:
            del self._size_count[old]
        self._size_count[new] = self._size_count.get(new, 0) + 1
        if new > self._max_free:
            self._max_free = new
        elif old == self._max_free and old not in self._size_count:
            while self._max_free > 0 and self._max_free not in self._size_count:
                self._max_free -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def largest_free_block(self) -> int:
        """Largest node block any indexed host can still grant (0 when no
        hosts are indexed)."""
        return self._max_free

    def machines(self) -> Iterable[Tuple[Tuple, MachineTopology]]:
        """(fingerprint, machine) per distinct shape, first-seen order —
        the same order ``Fleet.shapes`` derives from a full host scan."""
        return self._machines.items()

    def shapes(self) -> List[MachineTopology]:
        return list(self._machines.values())

    def buckets(self, fingerprint: Tuple) -> Dict[int, Set[int]]:
        """free-node count -> host ids for one shape.  Treat as read-only."""
        return self._buckets.get(fingerprint, {})

    def histograms(self) -> Dict[str, List[int]]:
        """machine name -> free-node histogram of that shape: ``h[k]``
        hosts have ``k`` free nodes, ``len(h) == n_nodes + 1``.  The
        bucket sizes, shapes in first-seen order: what a shard's summary
        ships, and all ``scheduler/capacity.py`` needs to answer what
        fits."""
        shapes: Dict[str, List[int]] = {}
        for fingerprint, machine in self._machines.items():
            histogram = [0] * (machine.n_nodes + 1)
            for free, ids in self._buckets[fingerprint].items():
                histogram[free] = len(ids)
            shapes[machine.name] = histogram
        return shapes

    def candidates(self, fingerprint: Tuple, min_free: int) -> List[int]:
        """Host ids of one shape with at least ``min_free`` free nodes
        (unordered; full and too-fragmented hosts are never visited)."""
        found: List[int] = []
        for size, ids in self._buckets.get(fingerprint, {}).items():
            if size >= min_free:
                found.extend(ids)
        return found

    def largest_free(self, fingerprint: Tuple) -> int:
        """Most free nodes on any one host of an indexed shape — the
        largest block the shape can still grant.  Empty buckets are
        deleted, so it is the shape's largest bucket key: O(distinct
        free counts), never a scan of its hosts."""
        return max(self._buckets[fingerprint])

    def emptiest_host(self, fingerprint: Tuple) -> Tuple[int, int]:
        """``(free-node count, host id)`` of an indexed shape's host with
        the most free nodes, lowest id on ties."""
        free = self.largest_free(fingerprint)
        return free, min(self._buckets[fingerprint][free])

    def lowest_host(
        self,
        fingerprint: Tuple,
        memo: "BlockStateMemo",
        size: int,
        target_score: float | None = None,
    ) -> int | None:
        """Lowest id among one shape's hosts that can grant a ``size``-node
        block matching ``target_score`` (any block when None).

        ``memo`` is the shape's block-state memo: one lookup per distinct
        free-node state present, one heap peek per feasible state — the
        number of hosts never enters.
        """
        best: int | None = None
        find = memo.find_mask
        for mask, bucket in self._states.get(fingerprint, {}).items():
            if find(mask, size, target_score) is None:
                continue
            lowest = bucket.lowest()
            if best is None or lowest < best:
                best = lowest
        return best

    # ------------------------------------------------------------------
    # Debugging / test support
    # ------------------------------------------------------------------

    def assert_consistent(self, hosts: Iterable["FleetHost"]) -> None:
        """Cross-check every counter and bucket against a from-scratch
        recomputation; raises AssertionError on any drift.  Used by the
        randomized replay tests and the benchmark smoke job."""
        hosts = list(hosts)
        free_total = sum(h.n_free_nodes for h in hosts)
        assert self.free_nodes_total == free_total, (
            f"free_nodes_total {self.free_nodes_total} != {free_total}"
        )
        used = sum(h.used_threads for h in hosts)
        assert self.used_threads == used, (
            f"used_threads {self.used_threads} != {used}"
        )
        largest = max((h.largest_free_block for h in hosts), default=0)
        assert self._max_free == largest, (
            f"largest_free_block {self._max_free} != {largest}"
        )
        assert self.total_nodes == sum(h.machine.n_nodes for h in hosts)
        assert self.total_threads == sum(
            h.machine.total_threads for h in hosts
        )
        for host in hosts:
            fingerprint = host.machine.fingerprint()
            assert self._mask_of.get(host.host_id) == host.free_mask, (
                f"host {host.host_id} mask {self._mask_of.get(host.host_id)}"
                f" != {host.free_mask}"
            )
            state = self._states.get(fingerprint, {}).get(host.free_mask)
            assert state is not None and host.host_id in state.live, (
                f"host {host.host_id} not in its state bucket"
            )
            assert host.host_id in self._buckets.get(fingerprint, {}).get(
                host.n_free_nodes, set()
            ), f"host {host.host_id} not in its ({host.n_free_nodes}) bucket"
        indexed = {
            host_id
            for buckets in self._buckets.values()
            for ids in buckets.values()
            for host_id in ids
        }
        assert indexed == {h.host_id for h in hosts}, (
            "index tracks a different host set than the fleet"
        )
        assert set(self._mask_of) == indexed, "mask map tracks other hosts"
        for fingerprint in self._machines:
            scanned = max(
                h.n_free_nodes
                for h in hosts
                if h.machine.fingerprint() == fingerprint
            )
            largest = self.largest_free(fingerprint)
            assert largest == scanned, (
                f"largest_free {largest} != {scanned} for shape "
                f"{self._machines[fingerprint].name}"
            )
        in_states: List[int] = []
        for states in self._states.values():
            for mask, bucket in states.items():
                assert bucket.live, f"empty state bucket {mask:#x} kept"
                assert bucket.live <= set(bucket.heap), (
                    f"state bucket {mask:#x}: live id missing from its heap"
                )
                assert len(bucket.heap) <= 2 * len(bucket.live), (
                    f"state bucket {mask:#x}: stale heap entries not "
                    "compacted"
                )
                assert bucket.lowest() == min(bucket.live)
                in_states.extend(bucket.live)
        assert sorted(in_states) == sorted(indexed), (
            "state buckets do not partition the fleet's hosts"
        )
        sizes: Dict[int, int] = {}
        for host in hosts:
            sizes[host.n_free_nodes] = sizes.get(host.n_free_nodes, 0) + 1
        assert self._size_count == sizes, (
            f"size counts {self._size_count} != {sizes}"
        )
