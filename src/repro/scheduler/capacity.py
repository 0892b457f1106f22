"""Available-space vectors: how many more containers fit, per class.

Gudkov et al. (*Efficient calculation of available space for
multi-NUMA virtual machines*) observe that admission control does not
need the full placement search — it needs a cheap, incrementally
maintained answer to "how many more requests of shape X fit right
now?".  This module provides that answer for the whole-node fleet
model:

* For one host, the number of additional ``vcpus``-sized containers
  that fit is ``n_free_nodes // needed`` where ``needed`` is the node
  count of :func:`repro.scheduler.fleet.minimal_shape` (the smallest
  block any policy may allocate; ``ValueError`` means the machine can
  never run that class).
* A :class:`CapacityVector` sums that count over a host set, one entry
  per tracked vcpus class.  Goal classes collapse structurally: the
  node-count bound is goal-independent (every placement of the class
  consumes at least the minimal block, whatever its goal), so the
  vector is keyed by vcpus alone and the *admission policy* — not the
  vector — differentiates goal classes (brown-out sheds best-effort
  first, see ``scheduler/admission.py``).

The :class:`CapacityTracker` maintains the per-shard vector
incrementally by piggybacking on the :class:`~repro.scheduler.index.
FleetIndex` notification hooks: ``FleetHost.allocate``/``release``
already notify the index, whose ``_resize`` bookkeeping forwards every
free-node-count transition (allocate, release, and both halves of a
rebalancer migration) to the attached tracker.  The update is O(tracked
classes) per transition — ``count += new // needed - old // needed``.
:func:`brute_force_capacity` re-enumerates the same counts from scratch
and is the property-testing oracle (``tests/scheduler/test_capacity.py``).

Caveat for decision-affecting consumers: ``count == 0`` alone does not
guarantee a shard-side reject while the rebalancer is enabled — the
rebalancer consolidates free nodes across same-shape hosts, so a shard
can recover a reject whenever some shape's *fleet-wide* free total still
covers the minimal block.  The front end therefore pairs the vector
with the per-shape ``free_nodes`` totals already present in
``ShardSummary`` (see ``SchedulerService._shard_cannot_place``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.scheduler.fleet import FleetHost, minimal_shape
from repro.topology.machine import MachineTopology

__all__ = [
    "CapacityTracker",
    "CapacityVector",
    "brute_force_capacity",
    "initial_capacity",
]


def _needed_nodes(machine: MachineTopology, vcpus: int) -> int | None:
    """Minimal node count for ``vcpus`` on ``machine`` (None: never fits)."""
    try:
        return minimal_shape(machine, vcpus)[0]
    except ValueError:
        return None


@dataclass(frozen=True)
class CapacityVector:
    """Available-space counts per tracked vcpus class.

    ``counts[v]`` is the number of *additional* ``v``-vCPU containers
    the covered host set can take given its current fragmentation.  A
    class missing from ``counts`` is untracked (consumers must stay
    optimistic about it), while a tracked-but-infeasible class carries
    an explicit ``0``.
    """

    counts: Dict[int, int] = field(default_factory=dict)

    def count(self, vcpus: int) -> int | None:
        """Available count for ``vcpus``; None when the class is untracked."""
        return self.counts.get(vcpus)

    @property
    def classes(self) -> Tuple[int, ...]:
        return tuple(sorted(self.counts))

    def __add__(self, other: "CapacityVector") -> "CapacityVector":
        if not isinstance(other, CapacityVector):
            return NotImplemented
        merged = dict(self.counts)
        for vcpus, count in other.counts.items():
            merged[vcpus] = merged.get(vcpus, 0) + count
        return CapacityVector(counts=merged)

    def describe(self) -> str:
        if not self.counts:
            return "capacity: (no tracked classes)"
        parts = [
            f"{vcpus}v:{self.counts[vcpus]}" for vcpus in sorted(self.counts)
        ]
        return "capacity: " + " ".join(parts)


def brute_force_capacity(
    hosts: Iterable[FleetHost], classes: Sequence[int]
) -> Dict[int, int]:
    """Re-enumerate available-space counts from scratch (the oracle).

    O(hosts x classes) per call — the incremental tracker exists so the
    service never pays this on the hot path; property tests assert the
    two agree after every allocate/release/migration.
    """
    counts: Dict[int, int] = {int(vcpus): 0 for vcpus in classes}
    for host in hosts:
        free = host.n_free_nodes
        for vcpus in counts:
            needed = _needed_nodes(host.machine, vcpus)
            if needed is not None:
                counts[vcpus] += free // needed
    return counts


def initial_capacity(
    machines: Sequence[MachineTopology], classes: Sequence[int]
) -> CapacityVector:
    """Vector for an empty fleet of ``machines`` (every node free).

    The front end seeds per-shard summaries with this before the first
    response arrives (and again when a crashed shard restarts empty);
    it must equal the worker-side tracker's own empty-state vector.
    """
    counts: Dict[int, int] = {int(vcpus): 0 for vcpus in classes}
    for machine in machines:
        for vcpus in counts:
            needed = _needed_nodes(machine, vcpus)
            if needed is not None:
                counts[vcpus] += machine.n_nodes // needed
    return CapacityVector(counts=counts)


class CapacityTracker:
    """Incrementally maintained per-shard :class:`CapacityVector`.

    Attach to a :class:`~repro.scheduler.index.FleetIndex`; the index
    forwards every host registration and every free-node-count
    transition.  Counts for hosts already registered at attach time are
    folded in from the index's bucket state, so attaching to a live
    fleet is safe.
    """

    def __init__(self, index, classes: Sequence[int]) -> None:
        self.classes: Tuple[int, ...] = tuple(
            sorted({int(vcpus) for vcpus in classes})
        )
        self._counts: Dict[int, int] = {v: 0 for v in self.classes}
        #: (machine fingerprint, vcpus) -> minimal node count or None.
        self._needed: Dict[Tuple, int | None] = {}
        self._machines: Dict[Tuple, MachineTopology] = {}
        for fingerprint, machine in index.machines():
            self._machines[fingerprint] = machine
            for size, host_ids in index.buckets(fingerprint).items():
                for vcpus in self.classes:
                    needed = self._needed_for(machine, vcpus)
                    if needed is not None:
                        self._counts[vcpus] += (size // needed) * len(host_ids)
        index.attach_capacity(self)

    def _needed_for(self, machine: MachineTopology, vcpus: int) -> int | None:
        key = (machine.fingerprint(), vcpus)
        if key not in self._needed:
            self._needed[key] = _needed_nodes(machine, vcpus)
        return self._needed[key]

    # ------------------------------------------------------------------
    # FleetIndex notification hooks
    # ------------------------------------------------------------------
    def on_register(self, host: FleetHost) -> None:
        machine = host.machine
        self._machines.setdefault(machine.fingerprint(), machine)
        free = host.n_free_nodes
        for vcpus in self.classes:
            needed = self._needed_for(machine, vcpus)
            if needed is not None:
                self._counts[vcpus] += free // needed

    def on_resize(
        self, machine: MachineTopology, old_free: int, new_free: int
    ) -> None:
        for vcpus in self.classes:
            needed = self._needed_for(machine, vcpus)
            if needed is not None:
                self._counts[vcpus] += new_free // needed - old_free // needed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def vector(self) -> CapacityVector:
        return CapacityVector(counts=dict(self._counts))

    def count(self, vcpus: int) -> int | None:
        return self._counts.get(vcpus)

    def assert_consistent(self, hosts: Iterable[FleetHost]) -> None:
        """Raise AssertionError unless incremental == brute force."""
        expected = brute_force_capacity(hosts, self.classes)
        if self._counts != expected:
            drift: List[str] = []
            for vcpus in self.classes:
                if self._counts[vcpus] != expected[vcpus]:
                    drift.append(
                        f"vcpus {vcpus}: tracked {self._counts[vcpus]} "
                        f"!= actual {expected[vcpus]}"
                    )
            raise AssertionError(
                "capacity tracker drifted from brute force: "
                + "; ".join(drift)
            )
