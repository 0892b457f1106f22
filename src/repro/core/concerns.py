"""Scheduling concerns: the paper's abstraction of shared resources.

A scheduling concern (Section 4) is responsible for one hardware resource
(or an inseparable bundle of resources) and produces a numeric *score* for a
placement describing its static utilization of that resource.  Two flags
steer the enumeration of important placements:

* ``affects_cost`` — a lower score means the container occupies less of the
  machine (e.g. fewer NUMA nodes), so lower-scoring placements must be kept
  as cost/performance trade-off options even if they may be slower.
* ``inverse_performance_possible`` — a lower score can sometimes *help*
  (cooperative cache sharing, cheaper communication), so lower-scoring
  placements cannot be discarded as strictly worse.

Resources for which both flags are false (the AMD interconnect) allow
Pareto-filtering: a placement with a lower score and equal everything else
is never useful.

The concern set for a machine is what Table 1 of the paper specifies for
the AMD system; :func:`concerns_for` derives it automatically from the
machine model.
"""

from __future__ import annotations

import abc
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from repro.core.placements import Placement
from repro.topology.machine import MachineTopology

#: Number of decimals kept when scores are compared / hashed.  Bandwidth
#: scores are measurements; beyond 3 decimals differences are noise.
SCORE_DECIMALS = 3


class ScoreVector:
    """An ordered, hashable vector of concern scores.

    Placements with equal score vectors are deemed to perform identically
    (Section 3), so the vector is the dedup key of the whole methodology.
    """

    def __init__(self, entries: Iterable[Tuple[str, float]]) -> None:
        self._entries: Tuple[Tuple[str, float], ...] = tuple(
            (name, round(float(value), SCORE_DECIMALS))
            for name, value in entries
        )
        names = [name for name, _ in self._entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate concern names in score vector: {names}")

    @property
    def entries(self) -> Tuple[Tuple[str, float], ...]:
        return self._entries

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._entries)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(value for _, value in self._entries)

    def __getitem__(self, name: str) -> float:
        for entry_name, value in self._entries:
            if entry_name == name:
                return value
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def as_dict(self) -> Dict[str, float]:
        return dict(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value:g}" for name, value in self._entries)
        return f"ScoreVector({body})"


class SchedulingConcern(abc.ABC):
    """Scores the static utilization of one shared resource."""

    #: Short identifier used in score vectors ("l2", "l3", "interconnect").
    name: str
    #: The hardware resources the concern bundles (documentation; Table 1).
    resources: Tuple[str, ...]
    #: True when the score is proportional to what the placement costs the
    #: operator (more nodes used = fewer containers per machine).
    affects_cost: bool
    #: True when a *lower* score can improve performance for some workloads.
    inverse_performance_possible: bool

    @abc.abstractmethod
    def score(self, placement: Placement) -> float:
        """Static utilization of the resource by ``placement``."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"cost={self.affects_cost}, "
            f"inverse={self.inverse_performance_possible})"
        )


class CountingConcern(SchedulingConcern):
    """Counts distinct resource instances in use (L2 groups, L3 caches,
    NUMA nodes).

    Parameters
    ----------
    name:
        Score-vector key.
    count:
        Total instances on the machine (the paper's ``Count``).
    capacity:
        Hardware threads per instance (the paper's ``Capacity``).
    """

    def __init__(
        self,
        name: str,
        *,
        count: int,
        capacity: int,
        resources: Sequence[str],
        affects_cost: bool = True,
        inverse_performance_possible: bool = True,
    ) -> None:
        if count < 1 or capacity < 1:
            raise ValueError("count and capacity must be positive")
        self.name = name
        self.count = count
        self.capacity = capacity
        self.resources = tuple(resources)
        self.affects_cost = affects_cost
        self.inverse_performance_possible = inverse_performance_possible

    def score(self, placement: Placement) -> float:
        if self.name == "l2":
            return float(placement.l2_score)
        if self.name == "l3":
            return float(placement.l3_score)
        if self.name == "node":
            return float(placement.node_score)
        raise ValueError(f"CountingConcern cannot score {self.name!r}")

    def possible_scores(self, vcpus: int) -> List[int]:
        """Algorithm 1: scores that are balanced and feasible for ``vcpus``.

        A score ``i`` is balanced when the vCPUs divide evenly over ``i``
        instances, and feasible when each instance can hold its share.
        """
        if vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        return [
            i
            for i in range(1, self.count + 1)
            if vcpus % i == 0 and vcpus // i <= self.capacity
        ]


class BandwidthConcern(SchedulingConcern):
    """The interconnect concern: aggregate measured bandwidth of the node
    set in use.

    The score comes from a table of STREAM-like measurements (Section 4:
    "it is simpler and more accurate to measure the aggregate bandwidth with
    a benchmark for each possible combination of nodes").  Lower bandwidth
    never helps and never saves the operator anything, so both flags are
    false and placements may be Pareto-filtered on this score.
    """

    def __init__(
        self,
        machine: MachineTopology,
        *,
        name: str = "interconnect",
        bandwidth_table: Mapping[FrozenSet[int], float] | None = None,
    ) -> None:
        self.name = name
        self.resources = ("interconnect bandwidth",)
        self.affects_cost = False
        self.inverse_performance_possible = False
        self._machine = machine
        self._table: Dict[FrozenSet[int], float] = (
            dict(bandwidth_table) if bandwidth_table is not None else {}
        )

    def score(self, placement: Placement) -> float:
        return self.score_nodes(placement.nodes)

    def score_nodes(self, nodes: Iterable[int]) -> float:
        """Score an arbitrary node combination (used by the enumeration,
        which scores packing blocks before placements exist)."""
        key = frozenset(nodes)
        if key in self._table:
            return self._table[key]
        value = self._machine.interconnect.aggregate_bandwidth(key)
        self._table[key] = value
        return value


class ConcernSet:
    """The ordered collection of concerns for one machine (Table 1)."""

    def __init__(self, machine: MachineTopology, concerns: Sequence[SchedulingConcern]) -> None:
        if not concerns:
            raise ValueError("a concern set needs at least one concern")
        names = [concern.name for concern in concerns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate concern names: {names}")
        self.machine = machine
        self._concerns: Tuple[SchedulingConcern, ...] = tuple(concerns)

    def __iter__(self):
        return iter(self._concerns)

    def __len__(self) -> int:
        return len(self._concerns)

    def __getitem__(self, name: str) -> SchedulingConcern:
        for concern in self._concerns:
            if concern.name == name:
                return concern
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(concern.name == name for concern in self._concerns)

    def score_vector(self, placement: Placement) -> ScoreVector:
        """The vector that uniquely identifies the placement's resource
        sharing (Section 4)."""
        return ScoreVector(
            (concern.name, concern.score(placement)) for concern in self._concerns
        )

    @property
    def bandwidth_concern(self) -> BandwidthConcern | None:
        for concern in self._concerns:
            if isinstance(concern, BandwidthConcern):
                return concern
        return None

    def counting(self, name: str) -> CountingConcern:
        concern = self[name]
        if not isinstance(concern, CountingConcern):
            raise TypeError(f"concern {name!r} is not a CountingConcern")
        return concern

    def table(self) -> str:
        """Render the concern set the way Table 1 of the paper does."""
        rows = []
        header = f"{'Concern':<14}{'Resources':<52}{'Cost?':<7}{'Inverse?':<8}"
        rows.append(header)
        rows.append("-" * len(header))
        for concern in self._concerns:
            rows.append(
                f"{concern.name:<14}"
                f"{', '.join(concern.resources):<52}"
                f"{'Y' if concern.affects_cost else 'N':<7}"
                f"{'Y' if concern.inverse_performance_possible else 'N':<8}"
            )
        return "\n".join(rows)


def concerns_for(machine: MachineTopology) -> ConcernSet:
    """Derive the Table-1 concern set from a machine model.

    * Every machine gets an **L2/SMT** concern (threads sharing an L2 group
      also share the front-end/FP units or the SMT pipeline) and an **L3**
      concern (L3 cache plus, on ordinary machines, the memory controller
      and DRAM bandwidth behind it).
    * Machines with split L3 (Zen) additionally get a **node** concern for
      the memory controller, since L3 no longer implies the node.
    * Machines with an asymmetric interconnect get the **interconnect**
      bandwidth concern.  Symmetric machines (the paper's Intel system) do
      not: every equal-sized node set scores identically, so the concern
      would never distinguish placements.
    """
    concerns: List[SchedulingConcern] = [
        CountingConcern(
            "l2",
            count=machine.l2_count,
            capacity=machine.l2_capacity,
            resources=(
                "L2 cache",
                "instruction fetch and decode",
                "floating point units"
                if machine.threads_per_l2 > 1
                else "core pipeline",
            ),
        )
    ]
    l3_resources: Tuple[str, ...]
    if machine.l3_groups_per_node == 1:
        l3_resources = ("L3 cache", "memory controller", "bandwidth to DRAM")
    else:
        l3_resources = ("L3 cache",)
    concerns.append(
        CountingConcern(
            "l3",
            count=machine.l3_count,
            capacity=machine.l3_capacity,
            resources=l3_resources,
        )
    )
    if machine.l3_groups_per_node > 1:
        concerns.append(
            CountingConcern(
                "node",
                count=machine.n_nodes,
                capacity=machine.threads_per_node,
                resources=("memory controller", "bandwidth to DRAM"),
            )
        )
    if machine.n_nodes > 1 and not machine.interconnect.is_symmetric:
        concerns.append(BandwidthConcern(machine))
    return ConcernSet(machine, concerns)
