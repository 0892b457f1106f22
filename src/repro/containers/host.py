"""The simulated host: deploys containers and reports their performance.

Two deployment modes mirror the policies of Section 7:

* **pinned** — the container's vCPUs are bound to a specific
  :class:`~repro.core.placements.Placement` (what the ML and
  Smart-Aggressive policies do);
* **unpinned** — the Linux scheduler maps vCPUs wherever it likes (the
  Conservative and Aggressive policies).  The paper observes that this "may
  map vCPUs unevenly to shared resources, causing unnecessary contention",
  so unpinned deployments get a balanced all-node placement *plus* a
  deterministic per-deployment imbalance penalty scaled by how sensitive
  the workload is to uneven sharing.

Performance measurements route through
:meth:`repro.perfsim.simulator.PerformanceSimulator.simulate_colocated`, so
containers sharing nodes contend for caches, DRAM, and the interconnect.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.containers.container import VirtualContainer
from repro.core.placements import Placement
from repro.perfsim.simulator import PerformanceSimulator
from repro.topology.machine import MachineTopology

#: Worst-case throughput loss from Linux's uneven default mapping, for a
#: maximally sensitive workload.
_MAX_IMBALANCE_PENALTY = 0.18


@dataclass(frozen=True)
class Deployment:
    """A container running on the host."""

    container: VirtualContainer
    placement: Placement
    pinned: bool
    imbalance: float  # multiplier <= 1; exactly 1.0 for pinned deployments


class SimulatedHost:
    """One physical machine hosting containers.

    Parameters
    ----------
    machine:
        The machine model.
    simulator:
        Performance simulator (a default one is built when omitted).
    seed:
        Drives the deterministic "Linux mapping" imbalance draws.
    """

    def __init__(
        self,
        machine: MachineTopology,
        *,
        simulator: PerformanceSimulator | None = None,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.simulator = simulator or PerformanceSimulator(machine, seed=seed)
        self.seed = seed
        self._deployments: Dict[int, Deployment] = {}
        self._measure_counter = 0

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    @property
    def deployments(self) -> List[Deployment]:
        return list(self._deployments.values())

    def free_threads(self) -> int:
        used = sum(
            d.container.vcpus
            for d in self._deployments.values()
        )
        return self.machine.total_threads - used

    def deploy(
        self,
        container: VirtualContainer,
        placement: Placement | None = None,
    ) -> Deployment:
        """Start a container, pinned to ``placement`` or unpinned."""
        if container.container_id in self._deployments:
            raise ValueError(f"{container.name} is already deployed")
        if container.vcpus > self.free_threads():
            raise ValueError(
                f"{container.name} needs {container.vcpus} threads, host has "
                f"{self.free_threads()} free"
            )
        if placement is not None:
            pinned = True
            imbalance = 1.0
            if placement.vcpus != container.vcpus:
                raise ValueError(
                    f"placement is for {placement.vcpus} vCPUs, container "
                    f"has {container.vcpus}"
                )
        else:
            pinned = False
            placement = self._linux_default_placement(container)
            imbalance = self._imbalance_penalty(container)
        deployment = Deployment(container, placement, pinned, imbalance)
        self._deployments[container.container_id] = deployment
        return deployment

    def migrate(
        self, container: VirtualContainer, placement: Placement
    ) -> Deployment:
        """Re-pin a running container to a new placement (the mechanics and
        cost of moving memory live in :mod:`repro.migration`)."""
        if container.container_id not in self._deployments:
            raise KeyError(f"{container.name} is not deployed")
        del self._deployments[container.container_id]
        return self.deploy(container, placement)

    # ------------------------------------------------------------------
    # Linux default mapping model
    # ------------------------------------------------------------------

    def _linux_default_placement(self, container: VirtualContainer) -> Placement:
        """What CFS roughly does with an unpinned container: spread the
        threads across all nodes, sharing L2 groups only when it must."""
        machine = self.machine
        nodes = list(machine.nodes)
        vcpus = container.vcpus
        # Spread over as many nodes as divide the vCPU count evenly.
        for n_nodes in range(machine.n_nodes, 0, -1):
            if vcpus % n_nodes != 0:
                continue
            per_node = vcpus // n_nodes
            if per_node > machine.threads_per_node:
                continue
            # Prefer one thread per L2 group; fall back to sharing.
            if per_node <= machine.l2_groups_per_node:
                return Placement(machine, nodes[:n_nodes], vcpus, l2_share=1)
            for share in range(2, machine.threads_per_l2 + 1):
                if per_node % share == 0 and per_node // share <= machine.l2_groups_per_node:
                    return Placement(
                        machine, nodes[:n_nodes], vcpus, l2_share=share
                    )
        raise ValueError(
            f"cannot fit {vcpus} vCPUs on {machine.name} in any balanced way"
        )

    def _imbalance_penalty(self, container: VirtualContainer) -> float:
        """Deterministic per-deployment penalty for uneven Linux mapping."""
        profile = container.profile
        sensitivity = max(
            profile.cache_sensitivity,
            profile.comm_intensity * profile.comm_latency_sensitivity,
            1.0 - (1.0 + profile.smt_affinity) / 2.0,
        )
        rng = np.random.default_rng(
            zlib.crc32(
                f"{self.seed}|imbalance|{container.name}|{container.container_id}".encode()
            )
        )
        draw = rng.uniform(0.2, 1.0)
        return 1.0 - _MAX_IMBALANCE_PENALTY * sensitivity * draw

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure_all(
        self, *, duration_s: float = 10.0, noise: bool = True
    ) -> Dict[int, float]:
        """Application-metric throughput of every deployed container,
        including cross-container interference."""
        if not self._deployments:
            return {}
        self._measure_counter += 1
        deployments = list(self._deployments.values())
        assignments = [
            (d.container.profile, d.placement) for d in deployments
        ]
        values = self.simulator.simulate_colocated(
            assignments, noise=noise, repetition=self._measure_counter
        )
        return {
            d.container.container_id: value * d.imbalance
            for d, value in zip(deployments, values)
        }

    def measure(
        self,
        container: VirtualContainer,
        *,
        duration_s: float = 10.0,
        noise: bool = True,
    ) -> float:
        """Throughput of one container under current co-location."""
        if container.container_id not in self._deployments:
            raise KeyError(f"{container.name} is not deployed")
        return self.measure_all(duration_s=duration_s, noise=noise)[
            container.container_id
        ]

    def measure_ipc(
        self,
        container: VirtualContainer,
        *,
        duration_s: float = 10.0,
        noise: bool = True,
    ) -> float:
        """The generic online metric (IPC) for one container — what the
        placement model consumes.  Derived from the same co-located
        simulation as :meth:`measure`, so interference shows up here too."""
        deployment = self._deployments.get(container.container_id)
        if deployment is None:
            raise KeyError(f"{container.name} is not deployed")
        profile = container.profile
        solo_metric = self.simulator.throughput(
            profile, deployment.placement, noise=False
        )
        achieved = self.measure(container, duration_s=duration_s, noise=noise)
        solo_ipc = self.simulator.measured_ipc(
            profile, deployment.placement, noise=False
        )
        if solo_metric <= 0:
            raise RuntimeError("degenerate solo throughput")
        return solo_ipc * achieved / solo_metric
