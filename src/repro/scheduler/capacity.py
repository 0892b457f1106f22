"""Available space per vCPU class, from per-shape free-node histograms.

Gudkov et al. (*Efficient calculation of available space for
multi-NUMA virtual machines*) observe that admission control does not
need the full placement search — it needs a cheap answer to "how many
more requests of shape X fit right now?", and that the answer is a
function of a compact free-state summary.  For the whole-node fleet
model that summary is one histogram per machine shape: ``h[k]`` is the
number of hosts of the shape with ``k`` free nodes, so ``len(h) ==
n_nodes + 1``.  Those are the bucket sizes the
:class:`~repro.scheduler.index.FleetIndex` already keeps
(:meth:`~repro.scheduler.index.FleetIndex.histograms`), and they are the
only free-space data a shard ships (``ShardSummary.shapes``).

:func:`available` derives every free-space answer from them, for any
``vcpus`` class.  ``needed(shape, vcpus)`` is the node count of
:func:`~repro.scheduler.fleet.minimal_shape` — the smallest block any
policy may allocate — and a shape that can never run the class
contributes nothing:

* ``count = Σ_shape Σ_k h[k] · (k // needed(shape, vcpus))`` is how many
  more containers of the class fit given current fragmentation.  It is
  positive exactly when some hostable shape's largest free block (its
  highest ``k`` with ``h[k] > 0``) covers ``needed``.  The bound is
  goal-independent (every placement of the class consumes at least the
  minimal block, whatever its goal); the *admission policy*, not the
  count, differentiates goal classes (brown-out sheds best-effort
  first, see ``scheduler/admission.py``).
* ``coverable`` is whether some hostable shape's free total
  ``Σ_k k · h[k]`` covers ``needed``.  ``count == 0`` alone does not
  guarantee a shard-side reject while the rebalancer is enabled: it
  consolidates free nodes across same-shape hosts, so a shard can
  recover a reject whenever some shape's free total still covers the
  minimal block (see ``SchedulerService._shard_cannot_place``).

:func:`brute_force_capacity` re-enumerates the counts host by host from
scratch, sharing no code with :func:`available`: it is the oracle of the
property tests (``tests/scheduler/test_capacity.py``) and of the
``repro capacity`` self-check.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Sequence

from repro.scheduler.fleet import FleetHost, minimal_shape
from repro.topology.machine import MachineTopology

__all__ = [
    "Space",
    "available",
    "brute_force_capacity",
    "needed_nodes",
]


def needed_nodes(machine: MachineTopology, vcpus: int) -> int | None:
    """Minimal node count for ``vcpus`` on ``machine`` (None: never fits)."""
    try:
        return minimal_shape(machine, vcpus)[0]
    except ValueError:
        return None


class Space(NamedTuple):
    """What a set of shape histograms says about one vcpus class."""

    #: Additional containers of the class that fit.
    count: int
    #: Some hostable shape's free total covers the class's minimal block.
    coverable: bool


def available(
    shapes: Mapping[str, Sequence[int]],
    needed: Callable[[str], int | None],
) -> Space:
    """The :class:`Space` of one vcpus class over ``shapes`` (machine
    name -> free-node histogram); ``needed(name)`` is the class's
    minimal node count on that shape, None where it never fits."""
    count = 0
    coverable = False
    for name, histogram in shapes.items():
        nodes = needed(name)
        if nodes is None:
            continue
        free = 0
        for k, hosts in enumerate(histogram):
            count += hosts * (k // nodes)
            free += hosts * k
        coverable = coverable or free >= nodes
    return Space(count, coverable)


def brute_force_capacity(
    hosts: Iterable[FleetHost], classes: Sequence[int]
) -> Dict[int, int]:
    """Re-enumerate available-space counts host by host (the oracle).

    O(hosts x classes) per call; the service never pays it, but the
    tests and ``repro capacity`` hold :func:`available` to it.
    """
    counts: Dict[int, int] = {int(vcpus): 0 for vcpus in classes}
    for host in hosts:
        for vcpus in counts:
            try:
                needed = minimal_shape(host.machine, vcpus)[0]
            except ValueError:
                continue
            counts[vcpus] += host.n_free_nodes // needed
    return counts
