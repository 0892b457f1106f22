"""The placement performance simulator.

Composes the effect models of :mod:`repro.perfsim.effects` into a
throughput figure for (workload, placement) pairs, supports co-located
containers sharing nodes (needed by the Aggressive policies of Section 7),
and produces deterministic, seedable measurement noise so that "running" a
container twice gives realistically different numbers.

Conventions
-----------
* Throughput is in application operations per second (the profile's
  ``metric_name``); only ratios between placements matter.
* Relative performance vectors are ``perf[i] / perf[baseline]`` — higher is
  better.  (The paper's prose example normalizes the other way around; the
  figures use this orientation.)
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.placements import Placement
from repro.perfsim.calibration import MachineCalibration, calibration_for
from repro.perfsim import effects
from repro.perfsim.workload import WorkloadProfile
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class ContainerRun:
    """Result of one simulated run."""

    profile: WorkloadProfile
    placement: Placement
    throughput: float
    factors: Dict[str, float]


def _stable_seed(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode("utf-8"))


#: Noise-seed prefixes a simulator keeps before starting over; a fleet
#: probes a few placements with a library of workloads, far fewer.
_NOISE_PREFIX_MAX = 4096


class _PlacementArrays:
    """Per-placement attribute arrays for one placement list.

    The batched kernels evaluate whole (workload x placement) grids in
    single numpy passes; everything that depends only on the placements —
    node counts, interconnect supplies, mean latencies — is extracted once
    here and reused across calls (the placement lists of a shape are
    long-lived :class:`~repro.core.enumeration.ImportantPlacementSet`
    objects, so the simulator memoizes these arrays keyed by the tuple of
    placements).
    """

    __slots__ = (
        "n_nodes",
        "vcpus",
        "l2_share",
        "l3_score",
        "ic_supply",
        "mean_latency",
    )

    def __init__(
        self, machine: MachineTopology, placements: Sequence[Placement]
    ) -> None:
        self.n_nodes = np.array([p.n_nodes for p in placements], dtype=float)
        self.vcpus = np.array([p.vcpus for p in placements], dtype=float)
        self.l2_share = np.array([p.l2_share for p in placements])
        self.l3_score = np.array([p.l3_score for p in placements], dtype=float)
        # Supply is only read where n_nodes > 1 (single-node demand is
        # exactly zero there); the placeholder keeps the masked division
        # warning-free.
        self.ic_supply = np.array(
            [
                machine.interconnect.aggregate_bandwidth(p.nodes)
                if p.n_nodes > 1
                else 1.0
                for p in placements
            ]
        )
        self.mean_latency = np.array(
            [
                machine.interconnect.mean_pairwise_latency_ns(p.nodes)
                for p in placements
            ]
        )


class PerformanceSimulator:
    """Simulates workload throughput in placements on one machine.

    Parameters
    ----------
    machine:
        Target machine model.
    calibration:
        Dynamic-behaviour constants; defaults to the machine's preset
        calibration.
    seed:
        Base seed for measurement noise.  All randomness is derived
        deterministically from (seed, workload, placement, repetition).
    """

    def __init__(
        self,
        machine: MachineTopology,
        *,
        calibration: MachineCalibration | None = None,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.calibration = (
            calibration if calibration is not None else calibration_for(machine)
        )
        self.seed = seed
        #: tuple(placements) -> _PlacementArrays, for the batched kernels.
        self._placement_arrays_cache: Dict[Tuple, _PlacementArrays] = {}
        #: (nodes, l2_share) -> {profile name: CRC of the noise seed's
        #: constant prefix}; a pure function of the two keys, ``seed`` and
        #: the machine name, none of which change after construction.
        #: One table per placement, so a caller that probes the same
        #: placement again and again (:meth:`noise_prefixes`) keys it
        #: once and then looks names up.
        self._noise_prefixes: Dict[Tuple, Dict[str, int]] = {}
        self._noise_prefix_count = 0

    # ------------------------------------------------------------------
    # Single-container model
    # ------------------------------------------------------------------

    def breakdown(
        self, profile: WorkloadProfile, placement: Placement
    ) -> Dict[str, float]:
        """Noise-free per-effect multipliers for one placement."""
        self._check_placement(placement)
        machine = self.machine
        cal = self.calibration
        n_nodes = placement.n_nodes
        vcpus = placement.vcpus

        smt = effects.smt_factor(
            placement.l2_share,
            machine.threads_per_l2,
            cal.smt_efficiency,
            profile.smt_affinity,
        ) * effects.l2_capacity_factor(
            profile.working_set_mb / vcpus,
            placement.l2_share,
            machine.l2_size_kb / 1024.0,
            cal.l2_pressure_mb,
        )

        ws_per_l3 = effects.effective_working_set_per_l3(
            profile.working_set_mb, profile.shared_fraction, placement.l3_score
        )
        misses = effects.miss_fraction(ws_per_l3, machine.l3_size_mb)
        cache = effects.cache_factor(profile.cache_sensitivity, misses)

        dram_demand = vcpus * profile.membw_per_vcpu * misses
        dram_supply = n_nodes * machine.dram_bandwidth_mbps
        membw = effects.saturation_factor(
            dram_demand, dram_supply, cal.saturation_sharpness
        )

        if n_nodes > 1:
            cross_fraction = (n_nodes - 1) / n_nodes
            ic_demand = (
                dram_demand * (1.0 - profile.numa_locality) * cross_fraction
                + vcpus * profile.comm_bytes_per_vcpu * cross_fraction
            )
            ic_supply = machine.interconnect.aggregate_bandwidth(placement.nodes)
            interconnect = effects.saturation_factor(
                ic_demand, ic_supply, cal.saturation_sharpness
            )
        else:
            interconnect = 1.0

        mean_latency = machine.interconnect.mean_pairwise_latency_ns(
            placement.nodes
        )
        comm = effects.comm_latency_factor(
            profile.comm_intensity,
            profile.comm_latency_sensitivity,
            mean_latency,
            machine.interconnect.local_latency_ns,
        )

        return {
            "smt": smt,
            "cache": cache,
            "membw": membw,
            "interconnect": interconnect,
            "comm_latency": comm,
        }

    # ------------------------------------------------------------------
    # Batched kernels: whole (workload x placement) grids per numpy pass
    # ------------------------------------------------------------------

    def _placement_arrays(
        self, placements: Sequence[Placement]
    ) -> _PlacementArrays:
        key = tuple(placements)
        arrays = self._placement_arrays_cache.get(key)
        if arrays is None:
            for placement in placements:
                self._check_placement(placement)
            if len(self._placement_arrays_cache) >= 16:
                self._placement_arrays_cache.clear()
            arrays = _PlacementArrays(self.machine, placements)
            self._placement_arrays_cache[key] = arrays
        return arrays

    @staticmethod
    def _profile_column(
        profiles: Sequence[WorkloadProfile], attribute: str
    ) -> np.ndarray:
        """One profile attribute as an ``(n, 1)`` column, ready to
        broadcast against per-placement rows."""
        return np.array(
            [getattr(profile, attribute) for profile in profiles],
            dtype=float,
        )[:, None]

    def breakdown_batch(
        self,
        profiles: Sequence[WorkloadProfile],
        placements: Sequence[Placement],
    ) -> Dict[str, np.ndarray]:
        """Noise-free per-effect multipliers for every (workload,
        placement) pair, each factor an ``(n_profiles, n_placements)``
        array computed in one numpy pass.

        Bit-for-bit identical to calling :meth:`breakdown` per cell: the
        array expressions repeat the scalar arithmetic
        operation-for-operation (see the vectorized variants in
        :mod:`repro.perfsim.effects`), they just do it for the whole grid
        at once.  This is the kernel every training-set build and retrain
        pays, ``n_workloads x n_placements`` times.
        """
        if not placements:
            raise ValueError("placements must not be empty")
        if not profiles:
            raise ValueError("profiles must not be empty")
        machine = self.machine
        cal = self.calibration
        arrays = self._placement_arrays(placements)
        l2_share = arrays.l2_share[None, :]
        vcpus = arrays.vcpus[None, :]
        n_nodes = arrays.n_nodes[None, :]

        working_set = self._profile_column(profiles, "working_set_mb")
        smt = effects.smt_factor_array(
            l2_share,
            machine.threads_per_l2,
            cal.smt_efficiency,
            self._profile_column(profiles, "smt_affinity"),
        ) * effects.l2_capacity_factor_array(
            working_set / vcpus,
            l2_share,
            machine.l2_size_kb / 1024.0,
            cal.l2_pressure_mb,
        )

        ws_per_l3 = effects.effective_working_set_per_l3_array(
            working_set,
            self._profile_column(profiles, "shared_fraction"),
            arrays.l3_score[None, :],
        )
        misses = effects.miss_fraction_array(ws_per_l3, machine.l3_size_mb)
        cache = effects.cache_factor_array(
            self._profile_column(profiles, "cache_sensitivity"), misses
        )

        dram_demand = (
            vcpus * self._profile_column(profiles, "membw_per_vcpu") * misses
        )
        dram_supply = n_nodes * machine.dram_bandwidth_mbps
        membw = effects.saturation_factor_array(
            dram_demand, dram_supply, cal.saturation_sharpness
        )

        # Single-node placements have cross_fraction exactly 0, hence
        # demand exactly 0, hence factor exactly 1.0 — the scalar path's
        # n_nodes == 1 branch falls out of the mask-free arithmetic.
        cross_fraction = (n_nodes - 1.0) / n_nodes
        ic_demand = (
            dram_demand
            * (1.0 - self._profile_column(profiles, "numa_locality"))
            * cross_fraction
            + vcpus
            * self._profile_column(profiles, "comm_bytes_per_vcpu")
            * cross_fraction
        )
        interconnect = effects.saturation_factor_array(
            ic_demand, arrays.ic_supply[None, :], cal.saturation_sharpness
        )

        comm = effects.comm_latency_factor_array(
            self._profile_column(profiles, "comm_intensity"),
            self._profile_column(profiles, "comm_latency_sensitivity"),
            arrays.mean_latency[None, :],
            machine.interconnect.local_latency_ns,
        )

        return {
            "smt": smt,
            "cache": cache,
            "membw": membw,
            "interconnect": interconnect,
            "comm_latency": comm,
        }

    def _apply_noise_grid(
        self,
        values: np.ndarray,
        profiles: Sequence[WorkloadProfile],
        placements: Sequence[Placement],
        duration_s: float,
        repetition: int,
        extra: int,
    ) -> None:
        """Multiply each grid cell by its scalar noise draw, in place.

        Noise stays a per-cell draw by construction: every (workload,
        placement, repetition) key seeds its own generator, which is what
        makes simulated measurements reproducible independent of batch
        shape — and exactly why the deterministic part is worth batching.
        """
        for row, profile in enumerate(profiles):
            if profile.phase_noise <= 0:
                continue
            for col, placement in enumerate(placements):
                values[row, col] *= self._noise_multiplier(
                    profile, placement, duration_s, repetition, extra=extra
                )

    def throughput_batch(
        self,
        profiles: Sequence[WorkloadProfile],
        placements: Sequence[Placement],
        *,
        noise: bool = True,
        duration_s: float = 10.0,
        repetition: int = 0,
    ) -> np.ndarray:
        """Application-metric throughput for a whole (workload, placement)
        grid — one :meth:`breakdown_batch` pass, bit-for-bit identical to
        per-cell :meth:`throughput` calls."""
        factors = self.breakdown_batch(profiles, placements)
        values = (
            self._profile_column(profiles, "ipc_base")
            * self._placement_arrays(placements).vcpus[None, :]
        )
        for name in ("smt", "cache", "membw", "interconnect", "comm_latency"):
            values = values * factors[name]
        if noise:
            self._apply_noise_grid(
                values, profiles, placements, duration_s, repetition, extra=0
            )
        return values

    def measured_ipc_batch(
        self,
        profiles: Sequence[WorkloadProfile],
        placements: Sequence[Placement],
        *,
        noise: bool = True,
        duration_s: float = 10.0,
        repetition: int = 0,
    ) -> np.ndarray:
        """Measured IPC for a whole (workload, placement) grid — the
        training-set kernel (:func:`repro.core.training.build_training_set`
        and every retrain's :func:`~repro.core.training.extend_training_set`
        run on this), bit-for-bit identical to per-cell
        :meth:`measured_ipc` calls."""
        factors = self.breakdown_batch(profiles, placements)
        values = np.array(
            [self.base_ipc(profile) for profile in profiles], dtype=float
        )[:, None] * factors["smt"]
        for name in ("cache", "membw", "interconnect", "comm_latency"):
            values = values * factors[name]
        if noise:
            self._apply_noise_grid(
                values,
                profiles,
                placements,
                duration_s,
                repetition,
                extra=1_000_003,
            )
        return values

    def throughput(
        self,
        profile: WorkloadProfile,
        placement: Placement,
        *,
        noise: bool = True,
        duration_s: float = 10.0,
        repetition: int = 0,
    ) -> float:
        """Throughput of the container in a placement.

        ``duration_s`` models how long the measurement ran: short probes
        (the scheduler's "couple of seconds" observations) are noisier than
        long steady-state runs.
        """
        factors = self.breakdown(profile, placement)
        value = profile.ipc_base * placement.vcpus
        for factor in factors.values():
            value *= factor
        if noise and profile.phase_noise > 0:
            value *= self._noise_multiplier(profile, placement, duration_s, repetition)
        return value

    def run(
        self,
        profile: WorkloadProfile,
        placement: Placement,
        *,
        noise: bool = True,
        duration_s: float = 10.0,
        repetition: int = 0,
    ) -> ContainerRun:
        """Like :meth:`throughput`, but returns the factor breakdown too."""
        factors = self.breakdown(profile, placement)
        value = profile.ipc_base * placement.vcpus
        for factor in factors.values():
            value *= factor
        if noise and profile.phase_noise > 0:
            value *= self._noise_multiplier(profile, placement, duration_s, repetition)
        return ContainerRun(profile, placement, value, factors)

    def base_ipc(self, profile: WorkloadProfile) -> float:
        """The workload's instructions-per-cycle in ideal conditions.

        Real applications' IPC correlates with how memory-bound they are;
        that correlation is what makes absolute IPC observations informative
        to the model across workloads (Section 5 uses IPC as the generic
        online metric).  A stable per-workload residual models everything
        else (instruction mix, branchiness).
        """
        memory_pressure = min(1.0, profile.membw_per_vcpu / 2000.0)
        residual = 0.85 + 0.3 * (
            zlib.crc32(f"{profile.name}:ipc".encode()) % 1000
        ) / 1000.0
        return (
            2.4
            * (1.0 - 0.45 * memory_pressure)
            * (1.0 - 0.25 * profile.cache_sensitivity)
            * residual
        )

    def measured_ipc(
        self,
        profile: WorkloadProfile,
        placement: Placement,
        *,
        noise: bool = True,
        duration_s: float = 10.0,
        repetition: int = 0,
    ) -> float:
        """The online performance metric the scheduler observes: achieved
        instructions per cycle.  Unlike :meth:`throughput` (application
        units, arbitrary scale per workload), IPC is comparable across
        workloads, which is what model training needs."""
        factors = self.breakdown(profile, placement)
        value = self.base_ipc(profile)
        for factor in factors.values():
            value *= factor
        if noise and profile.phase_noise > 0:
            value *= self._noise_multiplier(
                profile, placement, duration_s, repetition, extra=1_000_003
            )
        return value

    def measured_ipc_noise(
        self,
        profile: WorkloadProfile,
        placement: Placement,
        *,
        duration_s: float = 10.0,
        repetition: int = 0,
    ) -> float:
        """The multiplicative noise term of :meth:`measured_ipc` alone.

        ``measured_ipc(noise=True)`` equals ``measured_ipc(noise=False) *
        measured_ipc_noise(...)`` bit-for-bit (same factor, multiplied in
        the same order), which lets callers memoize the deterministic part
        and re-draw only the noise per repetition.
        """
        if profile.phase_noise <= 0:
            return 1.0
        return self._noise_multiplier(
            profile, placement, duration_s, repetition, extra=1_000_003
        )

    def measured_ipc_noise_batch(
        self,
        profiles: Sequence[WorkloadProfile],
        placement: Placement,
        *,
        duration_s: float,
        repetitions: Sequence[int],
        prefixes: Dict[str, int] | None = None,
    ) -> List[float]:
        """:meth:`measured_ipc_noise` for one probe per profile in one
        placement: entry ``k`` is bit-for-bit ``measured_ipc_noise(
        profiles[k], placement, duration_s=duration_s, repetition=
        repetitions[k])``.

        What the row-by-row calls re-derive per probe — the duration
        check, the ``sqrt`` scale and the placement's prefix table
        (``prefixes``, for a caller that already holds
        ``noise_prefixes(placement)``) — is resolved once per call; the
        seed CRC, the generator and its one normal draw stay per row
        (they *are* the probe).  Like the single call, a group of
        noise-free profiles never looks at ``duration_s``.
        """
        if prefixes is None:
            prefixes = self.noise_prefixes(placement)
        scale = None
        multipliers: List[float] = []
        for profile, repetition in zip(profiles, repetitions):
            sigma = profile.phase_noise
            if sigma <= 0:
                multipliers.append(1.0)
                continue
            if scale is None:
                if duration_s <= 0:
                    raise ValueError("duration_s must be positive")
                scale = float(np.sqrt(max(duration_s, 1e-9) / 10.0))
            prefix = prefixes.get(profile.name)
            if prefix is None:
                prefix = self._noise_prefix(prefixes, profile.name, placement)
            rng = np.random.default_rng(
                zlib.crc32(f"{repetition}|1000003".encode("utf-8"), prefix)
            )
            multipliers.append(float(np.exp(rng.normal(0.0, sigma / scale))))
        return multipliers

    def performance_vector(
        self,
        profile: WorkloadProfile,
        placements: Sequence[Placement],
        *,
        baseline_index: int = 0,
        noise: bool = False,
        repetition: int = 0,
    ) -> np.ndarray:
        """Relative performance across a placement list (the model's target
        quantity): ``perf[i] / perf[baseline]``."""
        if not placements:
            raise ValueError("placements must not be empty")
        if not 0 <= baseline_index < len(placements):
            raise ValueError(
                f"baseline_index {baseline_index} out of range for "
                f"{len(placements)} placements"
            )
        values = self.throughput_batch(
            [profile], placements, noise=noise, repetition=repetition
        )[0]
        baseline = values[baseline_index]
        if baseline <= 0:
            raise ValueError("baseline throughput is non-positive")
        return values / baseline

    def performance_vector_batch(
        self,
        profiles: Sequence[WorkloadProfile],
        placements: Sequence[Placement],
        *,
        baseline_index: int = 0,
        noise: bool = False,
        repetition: int = 0,
    ) -> np.ndarray:
        """Relative-performance vectors for many workloads at once: one
        ``(n_profiles, n_placements)`` grid in one numpy pass, each row
        bit-for-bit equal to the corresponding :meth:`performance_vector`
        call."""
        if not placements:
            raise ValueError("placements must not be empty")
        if not 0 <= baseline_index < len(placements):
            raise ValueError(
                f"baseline_index {baseline_index} out of range for "
                f"{len(placements)} placements"
            )
        values = self.throughput_batch(
            profiles, placements, noise=noise, repetition=repetition
        )
        baselines = values[:, baseline_index : baseline_index + 1]
        if np.any(baselines <= 0):
            raise ValueError("baseline throughput is non-positive")
        return values / baselines

    # ------------------------------------------------------------------
    # Co-located containers (Aggressive policies, Section 7)
    # ------------------------------------------------------------------

    def simulate_colocated(
        self,
        assignments: Sequence[Tuple[WorkloadProfile, Placement]],
        *,
        noise: bool = True,
        repetition: int = 0,
    ) -> List[float]:
        """Throughput of containers that may share NUMA nodes.

        The solo path is the special case of a single assignment; with
        sharing, containers split L3 capacity in proportion to their thread
        counts, add their DRAM and interconnect demands, time-share
        oversubscribed cores, and suffer effective SMT sharing from
        neighbours' threads.
        """
        if not assignments:
            raise ValueError("assignments must not be empty")
        machine = self.machine
        cal = self.calibration
        for _, placement in assignments:
            self._check_placement(placement)

        # Per-node thread pressure across all containers.
        threads_on_node: Dict[int, float] = {}
        per_container_nodes: List[Dict[int, int]] = []
        for _, placement in assignments:
            counts: Dict[int, int] = {}
            for thread in placement.threads:
                node = machine.node_of_thread(thread)
                counts[node] = counts.get(node, 0) + 1
            per_container_nodes.append(counts)
            for node, count in counts.items():
                threads_on_node[node] = threads_on_node.get(node, 0) + count

        # First pass: per-container miss fractions under shared caches.
        miss_fractions: List[float] = []
        for (profile, placement), counts in zip(assignments, per_container_nodes):
            share = np.mean(
                [counts[node] / threads_on_node[node] for node in counts]
            )
            ws_per_l3 = effects.effective_working_set_per_l3(
                profile.working_set_mb,
                profile.shared_fraction,
                placement.l3_score,
            )
            misses = effects.miss_fraction(
                ws_per_l3, machine.l3_size_mb * float(share)
            )
            miss_fractions.append(misses)

        # Aggregate DRAM demand per node, and each container's own
        # interconnect demand (shared later in proportion to node overlap).
        dram_demand_on_node: Dict[int, float] = {n: 0.0 for n in threads_on_node}
        ic_demands: List[float] = []
        for (profile, placement), counts, misses in zip(
            assignments, per_container_nodes, miss_fractions
        ):
            demand = placement.vcpus * profile.membw_per_vcpu * misses
            for node, count in counts.items():
                dram_demand_on_node[node] += demand * count / placement.vcpus
            n_nodes = placement.n_nodes
            if n_nodes > 1:
                cross = (n_nodes - 1) / n_nodes
                ic_demands.append(
                    demand * (1.0 - profile.numa_locality) * cross
                    + placement.vcpus * profile.comm_bytes_per_vcpu * cross
                )
            else:
                ic_demands.append(0.0)

        results: List[float] = []
        for index, ((profile, placement), counts, misses) in enumerate(
            zip(assignments, per_container_nodes, miss_fractions)
        ):
            weights = np.array([counts[node] for node in counts], dtype=float)
            weights /= weights.sum()
            nodes = list(counts)

            # CPU time-sharing on oversubscribed nodes.
            cpu = float(
                np.dot(
                    weights,
                    [
                        min(1.0, machine.threads_per_node / threads_on_node[n])
                        for n in nodes
                    ],
                )
            )

            # Effective SMT sharing: own pinning or neighbour pressure,
            # whichever is denser.
            smt_values = []
            for node in nodes:
                pressure = threads_on_node[node] / machine.l2_groups_per_node
                eff_share = max(
                    placement.l2_share,
                    min(machine.threads_per_l2, pressure),
                )
                smt_values.append(
                    effects.smt_factor(
                        eff_share,
                        machine.threads_per_l2,
                        cal.smt_efficiency,
                        profile.smt_affinity,
                    )
                )
            smt = float(np.dot(weights, smt_values)) * effects.l2_capacity_factor(
                profile.working_set_mb / placement.vcpus,
                placement.l2_share,
                machine.l2_size_kb / 1024.0,
                cal.l2_pressure_mb,
            )

            cache = effects.cache_factor(profile.cache_sensitivity, misses)

            membw = float(
                np.dot(
                    weights,
                    [
                        effects.saturation_factor(
                            dram_demand_on_node[n],
                            machine.dram_bandwidth_mbps,
                            cal.saturation_sharpness,
                        )
                        for n in nodes
                    ],
                )
            )

            if placement.n_nodes > 1:
                # A neighbour's traffic competes for this container's links
                # in proportion to how much of the neighbour lives on the
                # same nodes.
                own_nodes = set(placement.nodes)
                ic_demand = 0.0
                for other_index, (
                    (_other_profile, other_placement),
                    other_demand,
                ) in enumerate(zip(assignments, ic_demands)):
                    if other_index == index:
                        ic_demand += other_demand
                        continue
                    overlap = len(own_nodes & set(other_placement.nodes))
                    ic_demand += other_demand * overlap / other_placement.n_nodes
                ic_supply = machine.interconnect.aggregate_bandwidth(
                    placement.nodes
                )
                interconnect = effects.saturation_factor(
                    ic_demand, ic_supply, cal.saturation_sharpness
                )
            else:
                interconnect = 1.0

            comm = effects.comm_latency_factor(
                profile.comm_intensity,
                profile.comm_latency_sensitivity,
                machine.interconnect.mean_pairwise_latency_ns(placement.nodes),
                machine.interconnect.local_latency_ns,
            )

            value = (
                profile.ipc_base
                * placement.vcpus
                * cpu
                * smt
                * cache
                * membw
                * interconnect
                * comm
            )
            if noise and profile.phase_noise > 0:
                value *= self._noise_multiplier(
                    profile, placement, 10.0, repetition, extra=index
                )
            results.append(value)
        return results

    def simulate_colocated_batch(
        self,
        assignments: Sequence[Tuple[WorkloadProfile, Placement]],
        *,
        noise: bool = True,
        repetition: int = 0,
    ) -> List[float]:
        """Batched :meth:`simulate_colocated`: same contract, same floats.

        The scalar path walks Python loops of effect-model calls per
        container and per node; here the (container, node) pair structure
        is flattened once and every elementwise factor — CPU time-sharing,
        SMT pressure, cache shares, per-node DRAM saturation — is computed
        for all pairs in one numpy pass.  The per-container reductions
        (the ``np.dot`` weightings and the neighbour interconnect
        accumulation) deliberately run over the same values in the same
        order as the scalar loop, so results are bit-for-bit identical
        (asserted in ``tests/perfsim/test_simulator_batch.py``).
        """
        if not assignments:
            raise ValueError("assignments must not be empty")
        machine = self.machine
        cal = self.calibration
        for _, placement in assignments:
            self._check_placement(placement)

        n = len(assignments)
        # Flatten (container, node) pairs in scalar iteration order.
        pair_container: List[int] = []
        pair_node: List[int] = []
        pair_count: List[int] = []
        per_container_nodes: List[Dict[int, int]] = []
        threads_on_node: Dict[int, float] = {}
        for index, (_, placement) in enumerate(assignments):
            counts: Dict[int, int] = {}
            for thread in placement.threads:
                node = machine.node_of_thread(thread)
                counts[node] = counts.get(node, 0) + 1
            per_container_nodes.append(counts)
            for node, count in counts.items():
                threads_on_node[node] = threads_on_node.get(node, 0) + count
                pair_container.append(index)
                pair_node.append(node)
                pair_count.append(count)
        container_of_pair = np.asarray(pair_container, dtype=np.intp)
        counts_arr = np.asarray(pair_count, dtype=float)
        ton = np.array(
            [threads_on_node[node] for node in pair_node], dtype=float
        )
        node_index = {node: k for k, node in enumerate(threads_on_node)}
        node_of_pair = np.array(
            [node_index[node] for node in pair_node], dtype=np.intp
        )
        bounds = np.concatenate(
            ([0], np.cumsum([len(c) for c in per_container_nodes]))
        )

        # Per-container profile/placement columns.
        profiles = [profile for profile, _ in assignments]
        working_set = np.array([p.working_set_mb for p in profiles])
        vcpus = np.array([p.vcpus for _, p in assignments], dtype=float)
        l2_share = np.array([p.l2_share for _, p in assignments])
        n_nodes = np.array([p.n_nodes for _, p in assignments], dtype=float)
        l3_score = np.array([p.l3_score for _, p in assignments], dtype=float)

        # Cache shares and miss fractions: one pass over all pairs.
        ratio = counts_arr / ton
        share = np.array(
            [
                np.mean(ratio[start:end])
                for start, end in zip(bounds[:-1], bounds[1:])
            ]
        )
        ws_per_l3 = effects.effective_working_set_per_l3_array(
            working_set,
            np.array([p.shared_fraction for p in profiles]),
            l3_score,
        )
        misses = effects.miss_fraction_array(
            ws_per_l3, machine.l3_size_mb * share
        )

        # Per-node DRAM demand, accumulated in scalar order (np.add.at
        # adds element-by-element in pair order — the scalar loop's order).
        demand = (
            vcpus * np.array([p.membw_per_vcpu for p in profiles]) * misses
        )
        dram_on_node = np.zeros(len(node_index))
        np.add.at(
            dram_on_node,
            node_of_pair,
            demand[container_of_pair] * counts_arr / vcpus[container_of_pair],
        )

        # Per-container interconnect demand (zero for single-node).
        cross = np.where(n_nodes > 1, (n_nodes - 1.0) / n_nodes, 0.0)
        ic_demands = (
            demand
            * (1.0 - np.array([p.numa_locality for p in profiles]))
            * cross
            + vcpus * np.array([p.comm_bytes_per_vcpu for p in profiles]) * cross
        )

        # Per-pair factor values, one numpy pass each.
        cpu_vals = np.minimum(1.0, machine.threads_per_node / ton)
        pressure = ton / machine.l2_groups_per_node
        eff_share = np.maximum(
            l2_share[container_of_pair],
            np.minimum(machine.threads_per_l2, pressure),
        )
        smt_vals = effects.smt_factor_array(
            eff_share,
            machine.threads_per_l2,
            cal.smt_efficiency,
            np.array([p.smt_affinity for p in profiles])[container_of_pair],
        )
        membw_vals = effects.saturation_factor_array(
            dram_on_node[node_of_pair],
            machine.dram_bandwidth_mbps,
            cal.saturation_sharpness,
        )

        # Per-container factors.
        l2cap = effects.l2_capacity_factor_array(
            working_set / vcpus,
            l2_share,
            machine.l2_size_kb / 1024.0,
            cal.l2_pressure_mb,
        )
        cache = effects.cache_factor_array(
            np.array([p.cache_sensitivity for p in profiles]), misses
        )
        comm = effects.comm_latency_factor_array(
            np.array([p.comm_intensity for p in profiles]),
            np.array([p.comm_latency_sensitivity for p in profiles]),
            np.array(
                [
                    machine.interconnect.mean_pairwise_latency_ns(p.nodes)
                    for _, p in assignments
                ]
            ),
            machine.interconnect.local_latency_ns,
        )
        ic_supply = [
            machine.interconnect.aggregate_bandwidth(p.nodes)
            if p.n_nodes > 1
            else 0.0
            for _, p in assignments
        ]
        overlap = np.zeros((n, len(node_index)), dtype=np.intp)
        overlap[container_of_pair, node_of_pair] = 1
        overlap = overlap @ overlap.T  # exact node-overlap counts
        n_nodes_int = [p.n_nodes for _, p in assignments]

        results: List[float] = []
        for index, (profile, placement) in enumerate(assignments):
            start, end = bounds[index], bounds[index + 1]
            weights = counts_arr[start:end] / counts_arr[start:end].sum()
            cpu = float(np.dot(weights, cpu_vals[start:end]))
            smt = float(np.dot(weights, smt_vals[start:end])) * l2cap[index]
            membw = float(np.dot(weights, membw_vals[start:end]))
            if placement.n_nodes > 1:
                # The neighbour accumulation stays a loop in scalar order;
                # its inputs (overlap counts) are precomputed above.
                ic_demand = 0.0
                for other in range(n):
                    if other == index:
                        ic_demand += ic_demands[other]
                    else:
                        ic_demand += (
                            ic_demands[other]
                            * overlap[index, other]
                            / n_nodes_int[other]
                        )
                interconnect = effects.saturation_factor(
                    float(ic_demand), ic_supply[index], cal.saturation_sharpness
                )
            else:
                interconnect = 1.0
            value = (
                profile.ipc_base
                * placement.vcpus
                * cpu
                * smt
                * cache[index]
                * membw
                * interconnect
                * comm[index]
            )
            if noise and profile.phase_noise > 0:
                value *= self._noise_multiplier(
                    profile, placement, 10.0, repetition, extra=index
                )
            results.append(float(value))
        return results

    # ------------------------------------------------------------------

    def _noise_multiplier(
        self,
        profile: WorkloadProfile,
        placement: Placement,
        duration_s: float,
        repetition: int,
        *,
        extra: int = 0,
    ) -> float:
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        # The seed is _stable_seed(seed, machine, profile, nodes, l2_share,
        # repetition, extra); a CRC continues, so everything up to the
        # repetition is hashed once per (profile name, placement).
        prefixes = self.noise_prefixes(placement)
        prefix = prefixes.get(profile.name)
        if prefix is None:
            prefix = self._noise_prefix(prefixes, profile.name, placement)
        rng = np.random.default_rng(
            zlib.crc32(f"{repetition}|{extra}".encode("utf-8"), prefix)
        )
        sigma = profile.phase_noise / np.sqrt(max(duration_s, 1e-9) / 10.0)
        return float(np.exp(rng.normal(0.0, sigma)))

    def noise_prefixes(self, placement: Placement) -> Dict[str, int]:
        """The placement's ``profile name -> seed-prefix CRC`` table (the
        memo both noise draws read and fill).  The table object lives as
        long as the simulator, so it may be held and passed back to
        :meth:`measured_ipc_noise_batch`."""
        key = (placement.nodes, placement.l2_share)
        prefixes = self._noise_prefixes.get(key)
        if prefixes is None:
            prefixes = self._noise_prefixes[key] = {}
        return prefixes

    def _noise_prefix(
        self, prefixes: Dict[str, int], name: str, placement: Placement
    ) -> int:
        """Compute and memoize the seed-prefix CRC of one profile name in
        ``prefixes``, the placement's table (the miss arm of the two
        noise draws)."""
        if self._noise_prefix_count >= _NOISE_PREFIX_MAX:
            # A stream of one-off names.  Emptied in place: callers hold
            # the tables.
            for table in self._noise_prefixes.values():
                table.clear()
            self._noise_prefix_count = 0
        prefix = prefixes[name] = _stable_seed(
            self.seed,
            self.machine.name,
            name,
            placement.nodes,
            placement.l2_share,
            "",
        )
        self._noise_prefix_count += 1
        return prefix

    def _check_placement(self, placement: Placement) -> None:
        if placement.machine.name != self.machine.name:
            raise ValueError(
                f"placement targets {placement.machine.name}, simulator "
                f"models {self.machine.name}"
            )
