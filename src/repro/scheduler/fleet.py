"""The fleet: many simulated hosts with node-granular capacity accounting.

A :class:`FleetHost` wraps one machine shape and tracks which NUMA nodes
are still free.  Placements claim whole nodes — the packing discipline the
paper's ML policy establishes on a single machine (disjoint node blocks, so
co-located containers never share caches or memory controllers) lifted to
the fleet.  Utilization is therefore reported two ways: *threads in use by
vCPUs* (what the customer pays for) and *nodes reserved* (what the operator
gave up).

Hosts of the same shape share one :class:`MachineTopology` instance, which
is what makes the topology-fingerprint memo cache effective: a thousand
hosts of two shapes cost two enumerations.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.blockscores import (  # noqa: F401  (re-exported API)
    SCORE_TOLERANCE,
    BlockStateMemo,
    mask_nodes,
    node_mask,
    scores_match,
    search_blocks,
)
from repro.core.placements import Placement
from repro.scheduler.index import FleetIndex
from repro.topology.machine import MachineTopology

#: Scores a candidate node block (higher = better interconnect bandwidth).
BlockScorer = Callable[[FrozenSet[int]], float]


class UnknownNodeError(ValueError):
    """A placement names node ids the host's machine does not have."""


class NodesBusyError(ValueError):
    """A placement names nodes that exist but are already claimed."""


def minimal_l2_share(machine: MachineTopology, per_node_vcpus: int) -> int:
    """Smallest L2 sharing degree that fits ``per_node_vcpus`` in a node."""
    if per_node_vcpus < 1:
        raise ValueError(f"per_node_vcpus must be >= 1, got {per_node_vcpus}")
    for share in range(1, machine.threads_per_l2 + 1):
        if per_node_vcpus % share:
            continue
        if per_node_vcpus // share <= machine.l2_groups_per_node:
            return share
    raise ValueError(
        f"{per_node_vcpus} vCPUs per node do not fit {machine.name}'s "
        f"L2 groups in any balanced way"
    )


def minimal_shape(machine: MachineTopology, vcpus: int) -> Tuple[int, int]:
    """The cheapest realizable balanced shape: ``(node count, l2_share)``
    with the fewest nodes.

    A node count that divides the vCPUs evenly is not enough on its own —
    the per-node share must also split evenly over L2 groups (e.g. 10 vCPUs
    on a 4-L2-group node cannot balance on 2 nodes but can on 5), so the
    search advances to the next node count when the L2 constraint fails.
    """
    if vcpus < 1:
        raise ValueError(f"vcpus must be >= 1, got {vcpus}")
    for n in range(1, machine.n_nodes + 1):
        if vcpus % n or vcpus // n > machine.threads_per_node:
            continue
        try:
            return n, minimal_l2_share(machine, vcpus // n)
        except ValueError:
            continue
    raise ValueError(f"{vcpus} vCPUs cannot be balanced on {machine.name}")


def minimal_node_count(machine: MachineTopology, vcpus: int) -> int:
    """Fewest nodes a balanced placement of ``vcpus`` can use."""
    return minimal_shape(machine, vcpus)[0]


class FleetHost:
    """One machine in the fleet, with free-node bookkeeping.

    Parameters
    ----------
    host_id:
        Position in the fleet's host list.
    machine:
        The host's machine shape.
    location_index:
        Optional shared ``request_id -> host_id`` mapping kept in sync by
        :meth:`allocate` / :meth:`release`.  :class:`Fleet` passes its own
        index so fleet-level release is an O(1) lookup; standalone hosts
        leave it ``None``.
    fleet_index:
        Optional :class:`~repro.scheduler.index.FleetIndex` notified on
        every allocate/release, keeping the fleet's bucketed host index
        and aggregate counters O(1)-fresh.  :class:`Fleet` wires its own;
        standalone hosts leave it ``None``.
    """

    def __init__(
        self,
        host_id: int,
        machine: MachineTopology,
        *,
        location_index: Dict[int, int] | None = None,
        fleet_index: FleetIndex | None = None,
    ) -> None:
        self.host_id = host_id
        self.machine = machine
        #: Free nodes as a bitmask (bit n = node n is free): the host's
        #: whole placement-relevant state in one hashable int, which is
        #: what the fleet index buckets hosts by.
        self._free_mask: int = (1 << machine.n_nodes) - 1
        self._placements: Dict[int, Placement] = {}
        self._used_threads = 0
        self._location_index = location_index
        self._fleet_index = fleet_index

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------

    @property
    def free_mask(self) -> int:
        return self._free_mask

    @property
    def free_nodes(self) -> FrozenSet[int]:
        return frozenset(mask_nodes(self._free_mask))

    @property
    def n_free_nodes(self) -> int:
        return self._free_mask.bit_count()

    @property
    def placements(self) -> Dict[int, Placement]:
        """Request id -> placement for every container on this host."""
        return dict(self._placements)

    @property
    def used_threads(self) -> int:
        """Threads claimed by vCPUs — tracked incrementally, not summed
        per query (reports and the spread policy read it per host)."""
        return self._used_threads

    @property
    def thread_utilization(self) -> float:
        return self.used_threads / self.machine.total_threads

    @property
    def node_utilization(self) -> float:
        return 1.0 - self.n_free_nodes / self.machine.n_nodes

    @property
    def largest_free_block(self) -> int:
        """Largest node block this host can still grant.

        Placements claim whole nodes and a block may be *any* subset of
        free nodes, so within one host the largest grantable block is
        simply the free-node count — fragmentation in this model lives
        *across* hosts (free capacity scattered in per-host chunks too
        small for the next container), which is what the lifecycle
        engine's fragmentation timeline tracks.
        """
        return self.n_free_nodes

    # ------------------------------------------------------------------
    # Block search and allocation
    # ------------------------------------------------------------------

    def find_block(
        self,
        size: int,
        scorer: BlockScorer,
        *,
        target_score: float | None = None,
        exclude: Iterable[int] = (),
        table: BlockStateMemo | None = None,
    ) -> Tuple[int, ...] | None:
        """A free node block of ``size`` nodes.

        ``exclude`` removes free nodes from consideration — the rebalancer
        plans several migrations before executing any, so nodes already
        promised to an earlier migration in the same plan must not be
        offered twice.

        With a ``target_score`` the block must match that interconnect
        score per :func:`scores_match` — that is how a concrete block is
        found for an important placement chosen on score alone.  (A pure
        rounded-bucket comparison would reject scores a hair's width apart
        that happen to straddle a rounding boundary, silently losing the
        block and rejecting the request despite capacity.)  Without one,
        the best-scoring free block wins (the Smart-Aggressive rule:
        highest interconnect bandwidth).

        With a ``table`` (a shared per-shape
        :class:`~repro.core.blockscores.BlockStateMemo` built from the
        same scorer — a :class:`~repro.core.blockscores.BlockScoreTable`
        for tabulable shapes), the answer is read from the shape's
        per-state memo, computed once for all hosts in this state —
        bit-for-bit the same block.
        """
        if size < 1:
            raise ValueError("block size must be >= 1")
        avail = self._free_mask & ~node_mask(exclude)
        if table is not None:
            return table.find_mask(avail, size, target_score)
        return search_blocks(mask_nodes(avail), size, scorer, target_score)

    def allocate(self, request_id: int, placement: Placement) -> None:
        """Claim the placement's nodes for a request.

        Raises :class:`UnknownNodeError` when the placement names node ids
        the machine does not have (a placement built for the wrong shape —
        a lifecycle release/re-allocate bug) and :class:`NodesBusyError`
        when the nodes exist but are already claimed (a genuine capacity
        conflict).  Both are ``ValueError`` subclasses, but they surface
        very different bugs.
        """
        if request_id in self._placements:
            raise ValueError(f"request {request_id} is already on host")
        if (
            self._location_index is not None
            and request_id in self._location_index
        ):
            # Without this check a same-id allocation on a second host
            # would overwrite the fleet's location index and orphan the
            # first host's nodes forever.
            raise ValueError(
                f"request {request_id} is already placed on host "
                f"{self._location_index[request_id]} in this fleet"
            )
        mask = node_mask(placement.nodes)
        if mask >> self.machine.n_nodes:
            unknown = [
                n for n in placement.nodes if n >= self.machine.n_nodes
            ]
            raise UnknownNodeError(
                f"nodes {unknown} do not exist on host {self.host_id} "
                f"({self.machine.name} has nodes 0..{self.machine.n_nodes - 1})"
            )
        if mask & ~self._free_mask:
            taken = mask_nodes(mask & ~self._free_mask)
            raise NodesBusyError(
                f"nodes {taken} are not free on host {self.host_id}"
            )
        self._free_mask &= ~mask
        self._placements[request_id] = placement
        self._used_threads += placement.vcpus
        if self._location_index is not None:
            self._location_index[request_id] = self.host_id
        if self._fleet_index is not None:
            self._fleet_index.on_allocate(self, placement)

    def release(self, request_id: int) -> Placement:
        """Return a departed container's nodes to the free pool."""
        placement = self._placements.pop(request_id, None)
        if placement is None:
            raise KeyError(f"request {request_id} is not on host {self.host_id}")
        self._free_mask |= node_mask(placement.nodes)
        self._used_threads -= placement.vcpus
        if self._location_index is not None:
            self._location_index.pop(request_id, None)
        if self._fleet_index is not None:
            self._fleet_index.on_release(self, placement)
        return placement


class Fleet:
    """An ordered collection of hosts, possibly of mixed machine shapes.

    Parameters
    ----------
    machines:
        One entry per host.  Pass the *same* topology object for same-shape
        hosts (see :meth:`homogeneous` / :meth:`mixed`); structurally equal
        but distinct objects still work — the enumeration cache keys on the
        fingerprint, not the object.
    """

    def __init__(self, machines: Sequence[MachineTopology]) -> None:
        if not machines:
            raise ValueError("a fleet needs at least one host")
        self._locations: Dict[int, int] = {}
        self._index = FleetIndex()
        self.hosts: List[FleetHost] = [
            FleetHost(
                host_id,
                machine,
                location_index=self._locations,
                fleet_index=self._index,
            )
            for host_id, machine in enumerate(machines)
        ]
        for host in self.hosts:
            self._index.register(host)

    @classmethod
    def homogeneous(cls, machine: MachineTopology, n_hosts: int) -> "Fleet":
        if n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        return cls([machine] * n_hosts)

    @classmethod
    def mixed(
        cls, shapes: Sequence[Tuple[MachineTopology, int]]
    ) -> "Fleet":
        """A fleet from (machine shape, host count) pairs, interleaved so
        every scan order sees all shapes early."""
        rows = [
            [machine] * count
            for machine, count in shapes
            if count > 0
        ]
        if not rows:
            raise ValueError("a fleet needs at least one host")
        machines = [
            machine
            for batch in itertools.zip_longest(*rows)
            for machine in batch
            if machine is not None
        ]
        return cls(machines)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self) -> Iterable[FleetHost]:
        return iter(self.hosts)

    @property
    def index(self) -> FleetIndex:
        """The fleet's incremental host index (buckets + O(1) counters)."""
        return self._index

    @property
    def shapes(self) -> List[MachineTopology]:
        """The distinct machine shapes present, in first-seen order."""
        return self._index.shapes()

    def locate(self, request_id: int) -> int | None:
        """Host id currently running a request, or None if not placed."""
        return self._locations.get(request_id)

    def release(self, request_id: int) -> Tuple[int, Placement]:
        """Free a departed request's node block, wherever it landed.

        The request-id -> host-index mapping is maintained by the hosts'
        allocate/release bookkeeping, so this is an O(1) lookup rather
        than a fleet scan.  Returns ``(host_id, placement)``; raises
        ``KeyError`` for unknown (or already released) request ids.
        """
        host_id = self._locations.get(request_id)
        if host_id is None:
            raise KeyError(f"request {request_id} is not placed in the fleet")
        return host_id, self.hosts[host_id].release(request_id)

    def hosts_by_load(self) -> List[FleetHost]:
        """Hosts sorted emptiest-first (the spread policy's scan order)."""
        return sorted(
            self.hosts,
            key=lambda h: (h.node_utilization, h.thread_utilization, h.host_id),
        )

    @property
    def total_threads(self) -> int:
        return self._index.total_threads

    @property
    def used_threads(self) -> int:
        return self._index.used_threads

    @property
    def thread_utilization(self) -> float:
        if self._index.total_threads == 0:
            return 0.0
        return self._index.used_threads / self._index.total_threads

    @property
    def node_utilization(self) -> float:
        if self._index.total_nodes == 0:
            return 0.0
        return 1.0 - self._index.free_nodes_total / self._index.total_nodes

    @property
    def free_nodes_total(self) -> int:
        """Free nodes summed over all hosts (raw spare capacity) — an
        index counter, not a fleet scan."""
        return self._index.free_nodes_total

    @property
    def largest_free_block(self) -> int:
        """The biggest node block any single host can still grant.

        The gap between this and :attr:`free_nodes_total` is the fleet's
        fragmentation: plenty of spare nodes overall, none of them
        together on one host.  An empty host list reports 0 (``max()``
        over no hosts used to raise ``ValueError``); all counters come
        from the incremental :class:`~repro.scheduler.index.FleetIndex`,
        so this is O(1) however large the fleet.
        """
        if not self.hosts:
            return 0
        return self._index.largest_free_block

    def utilization_summary(self) -> str:
        per_host = [host.thread_utilization for host in self.hosts]
        return (
            f"threads {self.thread_utilization:.1%} "
            f"(busiest host {max(per_host):.1%}, idlest {min(per_host):.1%}), "
            f"nodes reserved {self.node_utilization:.1%}"
        )
