"""Interleaving containers on one machine (Section 3's future work).

The paper's model assumes the target container does not share NUMA nodes:
"Unused NUMA nodes can be safely used to run other containers without
interference as long as those nodes do not share the interconnect — a
condition that can be automatically checked using the machine
specification."  It then sketches an alternative: "only interleave with
'safe' containers, e.g., those with low CPU utilization or otherwise known
to cause negligible interference."

This module implements both ideas:

* :func:`interconnect_disjoint` — the automatic machine-spec check: two
  node sets are interconnect-disjoint when the links their internal traffic
  routes over do not overlap;
* :func:`is_safe_filler` — the "safe container" heuristic: negligible
  bandwidth and communication demand;
* :func:`interleave_experiment` — place a primary container with the ML
  policy, fill the leftover nodes with a filler container, and measure
  whether the primary's goal survives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Set

from repro.core.placements import Placement
from repro.core.policies import MlPolicy
from repro.perfsim.simulator import PerformanceSimulator
from repro.perfsim.workload import WorkloadProfile
from repro.topology.machine import MachineTopology

#: Safety thresholds for :func:`is_safe_filler`, as fractions of one node's
#: DRAM bandwidth (per filler vCPU) and of the comm scale.
_SAFE_MEMBW_FRACTION = 0.03
_SAFE_COMM_INTENSITY = 0.15


def _links_used_within(machine: MachineTopology, nodes: Iterable[int]) -> Set[FrozenSet[int]]:
    """Interconnect links that traffic internal to ``nodes`` routes over
    (union over all shortest paths between member pairs)."""
    used: Set[FrozenSet[int]] = set()
    for a, b in itertools.combinations(sorted(set(nodes)), 2):
        for path in machine.interconnect.shortest_paths(a, b):
            used.update(frozenset(pair) for pair in zip(path, path[1:]))
    return used


def interconnect_disjoint(
    machine: MachineTopology, nodes_a: Iterable[int], nodes_b: Iterable[int]
) -> bool:
    """True when the two node sets' internal traffic shares no link.

    Single-node sets generate no interconnect traffic, so they are disjoint
    from everything.  This is the condition under which the paper declares
    co-residency safe without extending the model.
    """
    set_a, set_b = set(nodes_a), set(nodes_b)
    if set_a & set_b:
        return False  # sharing a node is never interconnect-disjoint
    links_a = _links_used_within(machine, set_a)
    links_b = _links_used_within(machine, set_b)
    return not (links_a & links_b)


def is_safe_filler(
    machine: MachineTopology, profile: WorkloadProfile
) -> bool:
    """The paper's "safe container" heuristic: negligible demand on the
    shared resources our model tracks."""
    membw_fraction = profile.membw_per_vcpu / machine.dram_bandwidth_mbps
    return (
        membw_fraction <= _SAFE_MEMBW_FRACTION
        and profile.comm_intensity <= _SAFE_COMM_INTENSITY
    )


@dataclass
class InterleaveOutcome:
    """Result of one interleaving experiment."""

    primary_instances: int
    filler_instances: int
    primary_goal_value: float
    primary_achieved: List[float]
    filler_achieved: List[float]
    filler_safe: bool
    interconnect_disjoint: bool

    @property
    def primary_violation_pct(self) -> float:
        if not self.primary_achieved:
            return 0.0
        worst = min(self.primary_achieved)
        return max(
            0.0,
            (self.primary_goal_value - worst)
            / self.primary_goal_value
            * 100.0,
        )

    @property
    def primary_meets_goal(self) -> bool:
        return self.primary_violation_pct == 0.0


def interleave_experiment(
    policy: MlPolicy,
    machine: MachineTopology,
    primary: WorkloadProfile,
    filler: WorkloadProfile,
    vcpus: int,
    *,
    goal_fraction: float,
    baseline_placement: Placement,
    simulator: PerformanceSimulator | None = None,
    filler_vcpus: int | None = None,
) -> InterleaveOutcome:
    """Place the primary container with the ML policy, then fill the idle
    nodes with instances of ``filler`` and measure everyone together.

    The filler is deployed one instance per idle node (its vCPU count
    defaults to a full node), pinned — the scenario of an operator
    harvesting leftover capacity with batch jobs.
    """
    simulator = simulator or PerformanceSimulator(machine)
    baseline_value = simulator.throughput(primary, baseline_placement, noise=False)
    goal_value = goal_fraction * baseline_value

    primary_placements = policy.assignments(
        machine, primary, vcpus, goal_fraction
    )
    used: Set[int] = set()
    for placement in primary_placements:
        used |= set(placement.nodes)
    idle = [n for n in machine.nodes if n not in used]

    if filler_vcpus is None:
        filler_vcpus = machine.threads_per_node
    filler_placements = [
        Placement(
            machine,
            [node],
            filler_vcpus,
            l2_share=max(
                1, -(-filler_vcpus // machine.l2_groups_per_node)
            ),
        )
        for node in idle
    ]

    assignments = [(primary, p) for p in primary_placements] + [
        (filler, p) for p in filler_placements
    ]
    values = simulator.simulate_colocated(assignments, noise=False)
    n_primary = len(primary_placements)

    disjoint = all(
        interconnect_disjoint(machine, p.nodes, f.nodes)
        for p in primary_placements
        for f in filler_placements
    )
    return InterleaveOutcome(
        primary_instances=n_primary,
        filler_instances=len(filler_placements),
        primary_goal_value=goal_value,
        primary_achieved=list(values[:n_primary]),
        filler_achieved=list(values[n_primary:]),
        filler_safe=is_safe_filler(machine, filler),
        interconnect_disjoint=disjoint,
    )
