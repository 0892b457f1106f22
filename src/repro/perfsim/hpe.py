"""Synthetic hardware performance events (HPEs).

The paper's baseline model feeds PMU events measured in a single placement
into the regressor (Section 5).  We synthesize a machine-specific event
catalog (25 events on the AMD model, 41 on the Intel model — the counts the
paper starts from) whose values derive from the workload's *visible*
behaviour in the measured placement:

* achieved IPC, L2/L3 miss pressure, DRAM utilization, remote-access
  fraction, sharing-traffic volume, SMT occupancy, plus per-workload
  microarchitectural signatures (branches, TLB, FP mix);
* two profile characteristics are deliberately *not* in the signal set:
  ``comm_latency_sensitivity`` and ``shared_fraction``.  A counter reports
  how much traffic flows, not how much the workload would suffer if the
  latency changed, nor whether its working set would fit a different cache
  count — the paper's explanation of why single-placement HPEs mispredict
  workloads like WTbtree (Section 6).

Real PMUs can only measure ~4 events at a time; :class:`HpeMonitor` models
that multiplexing by inflating measurement noise with the number of event
groups, which is what makes "just measure all 1000 events" impractical
(66 days on the paper's Intel machine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
import zlib

from repro.core.placements import Placement
from repro.perfsim import effects
from repro.perfsim.simulator import PerformanceSimulator, _stable_seed
from repro.perfsim.workload import WorkloadProfile
from repro.topology.machine import MachineTopology

#: Hardware counter registers available simultaneously.
COUNTER_REGISTERS = 4

#: Names of the signal components events are built from.
SIGNAL_NAMES = (
    "const",
    "ipc",
    "l3_miss",
    "l2_pressure",
    "dram_utilization",
    "remote_fraction",
    "sharing_traffic",
    "smt_occupancy",
    "branch_signature",
    "tlb_signature",
    "fp_signature",
)


@dataclass(frozen=True)
class HpeDefinition:
    """One synthetic event: an affine combination of behaviour signals."""

    name: str
    weights: Tuple[float, ...]
    noise: float

    def __post_init__(self) -> None:
        if len(self.weights) != len(SIGNAL_NAMES):
            raise ValueError(
                f"event {self.name} needs {len(SIGNAL_NAMES)} weights"
            )
        if self.noise < 0:
            raise ValueError("noise must be >= 0")


def _signature(workload_name: str, salt: str) -> float:
    """Stable per-workload pseudo-characteristic in [0, 1] (e.g. branch
    behaviour), derived from the name so it is consistent across runs."""
    return (zlib.crc32(f"{workload_name}:{salt}".encode()) % 10_000) / 10_000.0


def behaviour_signals(
    simulator: PerformanceSimulator,
    profile: WorkloadProfile,
    placement: Placement,
) -> np.ndarray:
    """The visible-behaviour signal vector for one (workload, placement)."""
    machine = simulator.machine
    factors = simulator.breakdown(profile, placement)
    ipc = float(np.prod(list(factors.values())))

    ws_per_l3 = effects.effective_working_set_per_l3(
        profile.working_set_mb, profile.shared_fraction, placement.l3_score
    )
    l3_miss = effects.miss_fraction(ws_per_l3, machine.l3_size_mb)
    l2_pressure = min(
        1.0,
        (profile.working_set_mb / placement.vcpus)
        / max(machine.l2_size_kb / 1024.0, 1e-6),
    )
    dram_demand = placement.vcpus * profile.membw_per_vcpu * l3_miss
    dram_supply = placement.n_nodes * machine.dram_bandwidth_mbps
    dram_utilization = min(2.0, dram_demand / dram_supply)
    n = placement.n_nodes
    remote_fraction = (1.0 - profile.numa_locality) * (n - 1) / n
    sharing_traffic = profile.comm_intensity * min(
        1.0, profile.comm_bytes_per_vcpu / 200.0
    )
    smt_occupancy = (
        (placement.l2_share - 1) / (machine.threads_per_l2 - 1)
        if machine.threads_per_l2 > 1
        else 0.0
    )
    return np.array(
        [
            1.0,
            ipc,
            l3_miss,
            l2_pressure,
            dram_utilization,
            remote_fraction,
            sharing_traffic,
            smt_occupancy,
            _signature(profile.name, "branch"),
            _signature(profile.name, "tlb"),
            _signature(profile.name, "fp"),
        ]
    )


_CANONICAL_EVENTS: Tuple[Tuple[str, Dict[str, float], float], ...] = (
    ("INSTRUCTIONS_RETIRED", {"ipc": 1.0}, 0.01),
    ("CPU_CLK_UNHALTED", {"const": 1.0}, 0.005),
    ("LLC_MISSES", {"l3_miss": 1.0}, 0.02),
    ("L2_MISSES", {"l2_pressure": 0.6, "l3_miss": 0.4}, 0.02),
    ("DRAM_ACCESSES", {"dram_utilization": 1.0}, 0.02),
    ("REMOTE_DRAM_ACCESSES", {"dram_utilization": 0.5, "remote_fraction": 0.8}, 0.03),
    ("HITM_SNOOPS", {"sharing_traffic": 1.0}, 0.03),
    ("SMT_CYCLES_SHARED", {"smt_occupancy": 1.0}, 0.01),
    ("BRANCH_MISPREDICTS", {"branch_signature": 1.0}, 0.02),
    ("DTLB_MISSES", {"tlb_signature": 0.7, "l3_miss": 0.3}, 0.02),
    ("FP_OPS_RETIRED", {"fp_signature": 1.0}, 0.01),
    ("STALL_CYCLES_BACKEND", {"l3_miss": 0.5, "dram_utilization": 0.5}, 0.02),
)

#: Event-catalog sizes the paper quotes for its two machines.
_CATALOG_SIZES = {
    "amd-opteron-6272": 25,
    "intel-xeon-e7-4830-v3": 41,
}


def build_catalog(machine: MachineTopology) -> List[HpeDefinition]:
    """The machine's event catalog: canonical events plus derived/redundant
    ones (real PMUs expose many overlapping views of the same behaviour)."""
    size = _CATALOG_SIZES.get(machine.name, 25)
    events: List[HpeDefinition] = []
    index = {name: i for i, name in enumerate(SIGNAL_NAMES)}
    for name, weight_map, noise in _CANONICAL_EVENTS:
        weights = [0.0] * len(SIGNAL_NAMES)
        for signal, value in weight_map.items():
            weights[index[signal]] = value
        events.append(HpeDefinition(name, tuple(weights), noise))

    rng = np.random.default_rng(_stable_seed("hpe-catalog", machine.name))
    derived = 0
    while len(events) < size:
        derived += 1
        weights = np.zeros(len(SIGNAL_NAMES))
        # Each derived event mixes 2-3 visible signals (never the constant).
        k = int(rng.integers(2, 4))
        chosen = rng.choice(np.arange(1, len(SIGNAL_NAMES)), size=k, replace=False)
        weights[chosen] = rng.uniform(0.2, 1.0, size=k)
        events.append(
            HpeDefinition(
                f"DERIVED_EVENT_{derived:02d}",
                tuple(float(w) for w in weights),
                float(rng.uniform(0.02, 0.08)),
            )
        )
    return events


def hpe_names_for(machine: MachineTopology) -> List[str]:
    return [event.name for event in build_catalog(machine)]


class HpeMonitor:
    """Measures synthetic events for a container run.

    Parameters
    ----------
    simulator:
        The performance simulator whose machine is being monitored.
    """

    def __init__(self, simulator: PerformanceSimulator) -> None:
        self.simulator = simulator
        self.catalog = build_catalog(simulator.machine)
        self._by_name = {event.name: event for event in self.catalog}

    @property
    def event_names(self) -> List[str]:
        return [event.name for event in self.catalog]

    def measure(
        self,
        profile: WorkloadProfile,
        placement: Placement,
        *,
        events: Sequence[str] | None = None,
        duration_s: float = 10.0,
        repetition: int = 0,
    ) -> Dict[str, float]:
        """Measure events during a run in ``placement``.

        With more than :data:`COUNTER_REGISTERS` events requested, the PMU
        time-multiplexes event groups: each group observes only a slice of
        the run, multiplying measurement noise by sqrt(#groups).
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        names = list(events) if events is not None else self.event_names
        unknown = [n for n in names if n not in self._by_name]
        if unknown:
            raise KeyError(f"unknown events: {unknown}")

        signals = behaviour_signals(self.simulator, profile, placement)
        groups = max(1, -(-len(names) // COUNTER_REGISTERS))  # ceil div
        noise_scale = np.sqrt(groups) / np.sqrt(max(duration_s, 1e-9) / 10.0)

        rng = np.random.default_rng(
            _stable_seed(
                "hpe",
                self.simulator.seed,
                self.simulator.machine.name,
                profile.name,
                placement.nodes,
                placement.l2_share,
                repetition,
            )
        )
        values: Dict[str, float] = {}
        for name in names:
            event = self._by_name[name]
            base = float(np.dot(event.weights, signals))
            values[name] = base * float(
                np.exp(rng.normal(0.0, event.noise * noise_scale))
            )
        return values
