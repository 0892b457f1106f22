"""Container placement policies and the packing experiment (Section 7,
Figure 5).

Four policies are compared on the question: how many instances of one
container type fit on a machine while respecting a performance goal?

* **ML** — the paper's policy.  Probe the container in the model's two
  input placements, predict the full performance vector, then allocate the
  fewest NUMA nodes whose predicted performance meets the goal and pack the
  machine with disjoint instances of that allocation.
* **Conservative** — one instance per machine, unpinned (Linux decides the
  mapping).  Wastes most of the machine, and can *still* violate the goal
  because Linux may map vCPUs unevenly.
* **Aggressive** — as many instances as there are hardware threads,
  unpinned.  Maximum utilization, no performance control.
* **Smart-Aggressive** — the same instance count, but each instance pinned
  to the best minimum node set (highest interconnect bandwidth), so
  instances at least do not share nodes.

The performance goal is expressed as a fraction of the throughput observed
in the baseline placement (the paper uses 90%, 100%, and 110%).
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.containers.container import VirtualContainer
from repro.containers.host import SimulatedHost
from repro.core.enumeration import ImportantPlacementSet, gen_packings
from repro.core.model import PlacementModel, goal_order
from repro.core.placements import Placement
from repro.perfsim.simulator import PerformanceSimulator
from repro.perfsim.workload import WorkloadProfile
from repro.topology.machine import MachineTopology


@dataclass
class PackingOutcome:
    """Result of running one policy on one machine (a Figure-5 bar + star)."""

    policy: str
    goal_fraction: float
    goal_value: float
    instances: int
    achieved: List[float]
    baseline_value: float

    @property
    def violations_pct(self) -> float:
        """Worst violation of the goal across instances, in percent of the
        goal (Figure 5's star series; 0 when every instance meets it)."""
        if not self.achieved:
            return 0.0
        worst = min(self.achieved)
        return max(0.0, (self.goal_value - worst) / self.goal_value * 100.0)

    @property
    def meets_goal(self) -> bool:
        return self.violations_pct == 0.0


class PlacementPolicy(abc.ABC):
    """Decides how many instances to run and where to pin them."""

    name: str

    @abc.abstractmethod
    def assignments(
        self,
        machine: MachineTopology,
        profile: WorkloadProfile,
        vcpus: int,
        goal_fraction: float,
    ) -> List[Placement | None]:
        """One entry per instance; None means "leave it unpinned"."""


class ConservativePolicy(PlacementPolicy):
    """One unpinned instance per machine."""

    name = "Conservative"

    def assignments(self, machine, profile, vcpus, goal_fraction):
        return [None]


class AggressivePolicy(PlacementPolicy):
    """Fill the machine with unpinned instances."""

    name = "Aggressive"

    def assignments(self, machine, profile, vcpus, goal_fraction):
        count = machine.total_threads // vcpus
        return [None] * max(1, count)


class SmartAggressivePolicy(PlacementPolicy):
    """Fill the machine, but pin every instance to the best minimum node
    set — "the best minimum set of nodes, which we define as having the
    highest interconnect bandwidth" (Section 7)."""

    name = "Aggressive (Smart)"

    def assignments(self, machine, profile, vcpus, goal_fraction):
        count = max(1, machine.total_threads // vcpus)
        min_nodes = self._min_nodes(machine, vcpus)
        node_sets = best_min_node_sets(machine, min_nodes, count)
        placements = []
        for nodes in node_sets:
            per_node = vcpus // len(nodes)
            l2_share = 1
            while per_node // l2_share > machine.l2_groups_per_node:
                l2_share += 1
            placements.append(
                Placement(machine, nodes, vcpus, l2_share=l2_share)
            )
        return placements

    @staticmethod
    def _min_nodes(machine: MachineTopology, vcpus: int) -> int:
        for n in range(1, machine.n_nodes + 1):
            if vcpus % n == 0 and vcpus // n <= machine.threads_per_node:
                return n
        raise ValueError(f"{vcpus} vCPUs cannot be balanced on {machine.name}")


def best_min_node_sets(
    machine: MachineTopology, set_size: int, count: int
) -> List[Tuple[int, ...]]:
    """Partition (part of) the machine into ``count`` node sets of
    ``set_size``, choosing the partition with the highest total interconnect
    bandwidth.  This is the "analysis of the interconnect topology" the
    Smart-Aggressive policy requires."""
    if set_size * count > machine.n_nodes:
        raise ValueError(
            f"cannot carve {count} sets of {set_size} nodes out of "
            f"{machine.n_nodes}"
        )
    ic = machine.interconnect
    if set_size == 1:
        return [(n,) for n in range(count)]

    best_sets: List[Tuple[int, ...]] | None = None
    best_score = -1.0
    # Enumerate partitions of node subsets of size set_size*count into
    # blocks of set_size, via the packing generator.
    for subset in itertools.combinations(range(machine.n_nodes), set_size * count):
        for packing in gen_packings([set_size], subset):
            score = sum(
                ic.aggregate_bandwidth(block) for block in packing.blocks
            )
            if score > best_score:
                best_score = score
                best_sets = [tuple(sorted(b)) for b in packing.blocks]
    assert best_sets is not None
    return best_sets


class MlPolicy(PlacementPolicy):
    """The paper's model-driven policy.

    Requires a fitted :class:`PlacementModel` and the machine's important
    placements.  ``assignments`` probes the workload in the model's two
    input placements (short noisy measurements through the simulator, as
    the real system would), predicts the performance vector, picks the
    cheapest placement predicted to meet the goal, and packs the machine
    with disjoint clones of it.
    """

    name = "ML"

    def __init__(
        self,
        model: PlacementModel,
        placements: ImportantPlacementSet,
        simulator: PerformanceSimulator,
        *,
        probe_duration_s: float = 3.0,
        safety_margin: float = 0.05,
    ) -> None:
        if safety_margin < 0:
            raise ValueError("safety_margin must be >= 0")
        self.model = model
        self.placements = placements
        self.simulator = simulator
        self.probe_duration_s = probe_duration_s
        #: Predictions must clear the goal by this fraction before a
        #: placement counts as "meeting" it — headroom for prediction error
        #: and run-to-run noise, so the policy keeps its no-violations
        #: record.
        self.safety_margin = safety_margin

    def predict_vector(
        self, profile: WorkloadProfile, *, repetition: int = 0
    ) -> np.ndarray:
        """Probe the two input placements and predict relative performance
        (relative to the model's baseline = first input placement)."""
        i, j = self.model.input_pair
        obs_i = self.simulator.measured_ipc(
            profile,
            self.placements[i],
            duration_s=self.probe_duration_s,
            repetition=repetition,
        )
        obs_j = self.simulator.measured_ipc(
            profile,
            self.placements[j],
            duration_s=self.probe_duration_s,
            repetition=repetition + 1,
        )
        return self.model.predict(obs_i, obs_j)

    def choose_placement(
        self, profile: WorkloadProfile, goal_fraction: float
    ) -> Placement:
        """Cheapest important placement predicted to meet the goal; falls
        back to the best-predicted placement when none does.

        The goal is relative to the baseline placement's performance, so a
        placement meets it when its predicted relative performance is at
        least ``goal_fraction``.
        """
        order = goal_order(
            [placement.n_nodes for placement in self.placements],
            self.predict_vector(profile),
            goal_fraction * (1.0 + self.safety_margin),
        )
        return self.placements[order[0]]

    def _block_lookup(self) -> Dict[Tuple[int, float], List[int]]:
        """Map (node count, interconnect score) to the important-placement
        indices realizable on such a block (the L2/SMT variants)."""
        scorer = self._block_scorer()
        lookup: Dict[Tuple[int, float], List[int]] = {}
        for index, placement in enumerate(self.placements):
            key = (placement.n_nodes, round(scorer(placement.nodes), 3))
            lookup.setdefault(key, []).append(index)
        return lookup

    def _block_scorer(self):
        bandwidth = self.placements.concerns.bandwidth_concern
        if bandwidth is None:
            return lambda nodes: 0.0
        return lambda nodes: bandwidth.score_nodes(nodes)

    def assignments(self, machine, profile, vcpus, goal_fraction):
        """Pack the machine with the most instances that all meet the goal.

        This is where the enumeration's *packings* pay off: every surviving
        packing partitions the machine into blocks whose score vectors the
        model has predictions for, so the policy can count — per packing —
        how many instances would meet the goal, and deploy only those.
        Predicting performance for the chosen placement but packing clones
        onto differently-scored node sets would silently violate the goal.
        """
        vector = self.predict_vector(profile)
        threshold = goal_fraction * (1.0 + self.safety_margin)
        lookup = self._block_lookup()
        scorer = self._block_scorer()

        best_blocks: List[Tuple[Tuple[int, ...], int]] = []
        best_key = (-1, -1.0)
        for packing in self.placements.surviving_packings:
            blocks: List[Tuple[Tuple[int, ...], int]] = []
            total_predicted = 0.0
            for block in packing.blocks:
                key = (len(block), round(scorer(block), 3))
                meeting = [
                    idx
                    for idx in lookup.get(key, [])
                    if vector[idx] >= threshold
                ]
                if not meeting:
                    continue
                chosen_idx = max(meeting, key=lambda idx: vector[idx])
                blocks.append(
                    (tuple(sorted(block)), self.placements[chosen_idx].l2_share)
                )
                total_predicted += float(vector[chosen_idx])
            key = (len(blocks), total_predicted)
            if key > best_key:
                best_key = key
                best_blocks = blocks

        if not best_blocks:
            # No placement meets the goal anywhere: run one instance in the
            # best-predicted placement.
            fallback = self.placements[int(np.argmax(vector))]
            return [fallback]
        return [
            Placement(machine, nodes, vcpus, l2_share=l2_share)
            for nodes, l2_share in best_blocks
        ]


def evaluate_policy(
    policy: PlacementPolicy,
    machine: MachineTopology,
    profile: WorkloadProfile,
    vcpus: int,
    *,
    goal_fraction: float,
    baseline_placement: Placement,
    simulator: PerformanceSimulator | None = None,
    seed: int = 0,
) -> PackingOutcome:
    """Run one Figure-5 cell: deploy the policy's instances on a fresh host
    and measure everyone under interference.

    The goal value is ``goal_fraction`` times the throughput observed in
    ``baseline_placement`` (solo, long measurement) — how the paper
    expresses its 90%/100%/110% targets.
    """
    if goal_fraction <= 0:
        raise ValueError("goal_fraction must be positive")
    simulator = simulator or PerformanceSimulator(machine, seed=seed)
    baseline_value = simulator.throughput(
        profile, baseline_placement, noise=False
    )
    goal_value = goal_fraction * baseline_value

    host = SimulatedHost(machine, simulator=simulator, seed=seed)
    containers: List[VirtualContainer] = []
    for placement in policy.assignments(machine, profile, vcpus, goal_fraction):
        container = VirtualContainer(profile, vcpus)
        host.deploy(container, placement)
        containers.append(container)
    measured = host.measure_all(duration_s=60.0)
    achieved = [measured[c.container_id] for c in containers]
    return PackingOutcome(
        policy=policy.name,
        goal_fraction=goal_fraction,
        goal_value=goal_value,
        instances=len(containers),
        achieved=achieved,
        baseline_value=baseline_value,
    )
