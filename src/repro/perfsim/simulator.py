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

import math
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.placements import Placement
from repro.perfsim.calibration import MachineCalibration, calibration_for
from repro.perfsim import effects
from repro.perfsim.noise import standard_normals
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


#: The ``extra`` seed part of :meth:`PerformanceSimulator.measured_ipc`'s
#: noise (the other kernels' draws use 0, or a container's index).
MEASURED_IPC_NOISE = 1_000_003
#: Noise-seed prefixes a simulator keeps before starting over; a fleet
#: probes a few placements with a library of workloads, far fewer.
_NOISE_PREFIX_MAX = 4096
#: Placement records a simulator keeps before starting over; a shape has
#: a few hundred distinct placements, far fewer.
_PLACEMENT_RECORD_MAX = 4096
#: Placement lists whose stacked arrays the batched kernels keep, least
#: recently used dropped first: a shape's training and retraining grids
#: run over a handful of long-lived lists.
_PLACEMENT_ARRAYS_MAX = 16


class _PlacementRecord:
    """What the single-container model reads off one placement, resolved
    once per placement.

    Node and vCPU counts, L2 share and L3 score are the placement's own;
    the cross-node fraction, interconnect supply, mean pairwise latency
    and DRAM supply follow from them and from the machine.
    :meth:`PerformanceSimulator.breakdown` reads these where it used to
    derive them per call, with the same arithmetic, and
    :class:`_PlacementArrays` stacks them for the batched kernels.
    """

    __slots__ = (
        "n_nodes",
        "vcpus",
        "l2_share",
        "l3_score",
        "cross_fraction",
        "ic_supply",
        "mean_latency",
        "dram_supply",
    )

    def __init__(self, machine: MachineTopology, placement: Placement) -> None:
        n_nodes = placement.n_nodes
        interconnect = machine.interconnect
        self.n_nodes = n_nodes
        self.vcpus = placement.vcpus
        self.l2_share = placement.l2_share
        self.l3_score = placement.l3_score
        self.cross_fraction = (n_nodes - 1) / n_nodes
        # Supply is only read where n_nodes > 1 (single-node demand is
        # exactly zero there); the placeholder keeps the batched kernels'
        # masked division warning-free.
        self.ic_supply = (
            interconnect.aggregate_bandwidth(placement.nodes)
            if n_nodes > 1
            else 1.0
        )
        self.mean_latency = interconnect.mean_pairwise_latency_ns(
            placement.nodes
        )
        self.dram_supply = n_nodes * machine.dram_bandwidth_mbps


class _PlacementArrays:
    """The records of one placement list, stacked into per-placement
    attribute arrays.

    The batched kernels evaluate whole (workload x placement) grids in
    single numpy passes and read these columns; they are stacked once and
    reused across calls (the placement lists of a shape are long-lived
    :class:`~repro.core.enumeration.ImportantPlacementSet` objects, so the
    simulator keeps these arrays keyed by the tuple of placements).
    """

    __slots__ = (
        "n_nodes",
        "vcpus",
        "l2_share",
        "l3_score",
        "ic_supply",
        "mean_latency",
    )

    def __init__(self, records: Sequence[_PlacementRecord]) -> None:
        self.n_nodes = np.array([r.n_nodes for r in records], dtype=float)
        self.vcpus = np.array([r.vcpus for r in records], dtype=float)
        self.l2_share = np.array([r.l2_share for r in records])
        self.l3_score = np.array([r.l3_score for r in records], dtype=float)
        self.ic_supply = np.array([r.ic_supply for r in records])
        self.mean_latency = np.array([r.mean_latency for r in records])


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
        #: tuple(placements) -> _PlacementArrays, for the batched kernels,
        #: least recently used first.
        self._placement_arrays_cache: OrderedDict[
            Tuple, _PlacementArrays
        ] = OrderedDict()
        #: placement -> _PlacementRecord, a pure function of the placement
        #: and ``machine``; written by :meth:`_placement_record` alone.
        self._placement_records: Dict[Placement, _PlacementRecord] = {}
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
        record = self._placement_records.get(placement)
        if record is None:
            record = self._placement_record(placement)
        machine = self.machine
        cal = self.calibration
        vcpus = record.vcpus

        smt = effects.smt_factor(
            record.l2_share,
            machine.threads_per_l2,
            cal.smt_efficiency,
            profile.smt_affinity,
        ) * effects.l2_capacity_factor(
            profile.working_set_mb / vcpus,
            record.l2_share,
            machine.l2_size_kb / 1024.0,
            cal.l2_pressure_mb,
        )

        ws_per_l3 = effects.effective_working_set_per_l3(
            profile.working_set_mb, profile.shared_fraction, record.l3_score
        )
        misses = effects.miss_fraction(ws_per_l3, machine.l3_size_mb)
        cache = effects.cache_factor(profile.cache_sensitivity, misses)

        dram_demand = vcpus * profile.membw_per_vcpu * misses
        membw = effects.saturation_factor(
            dram_demand, record.dram_supply, cal.saturation_sharpness
        )

        if record.n_nodes > 1:
            cross_fraction = record.cross_fraction
            ic_demand = (
                dram_demand * (1.0 - profile.numa_locality) * cross_fraction
                + vcpus * profile.comm_bytes_per_vcpu * cross_fraction
            )
            interconnect = effects.saturation_factor(
                ic_demand, record.ic_supply, cal.saturation_sharpness
            )
        else:
            interconnect = 1.0

        comm = effects.comm_latency_factor(
            profile.comm_intensity,
            profile.comm_latency_sensitivity,
            record.mean_latency,
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

    def _placement_record(self, placement: Placement) -> _PlacementRecord:
        """The placement's record, built (and the placement checked
        against the machine) the first time anything asks for it."""
        records = self._placement_records
        record = records.get(placement)
        if record is None:
            self._check_placement(placement)
            if len(records) >= _PLACEMENT_RECORD_MAX:
                records.clear()
            record = records[placement] = _PlacementRecord(
                self.machine, placement
            )
        return record

    def _placement_arrays(
        self, placements: Sequence[Placement]
    ) -> _PlacementArrays:
        key = tuple(placements)
        cache = self._placement_arrays_cache
        arrays = cache.get(key)
        if arrays is None:
            arrays = cache[key] = _PlacementArrays(
                [self._placement_record(p) for p in placements]
            )
            if len(cache) > _PLACEMENT_ARRAYS_MAX:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
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
        """Multiply each grid cell by its noise draw, in place.

        Noise stays a per-cell draw by construction: every (workload,
        placement, repetition) key seeds its own generator, which is what
        makes simulated measurements reproducible independent of batch
        shape — and the whole grid's generators are derived in one
        :class:`NoiseBatch`.
        """
        noise = NoiseBatch(duration_s, extra)
        repetitions = [repetition] * len(profiles)
        for placement in placements:
            noise.add(self, profiles, placement, repetitions)
        values *= np.array(noise.multipliers()).T

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
                extra=MEASURED_IPC_NOISE,
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
                profile, placement, duration_s, repetition, extra=MEASURED_IPC_NOISE
            )
        return value

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
        """One draw: a :class:`NoiseBatch` of one."""
        noise = NoiseBatch(duration_s, extra)
        noise.add(self, [profile], placement, [repetition])
        return noise.multipliers()[0][0]

    def noise_seeds(
        self,
        profiles: Sequence[WorkloadProfile],
        placement: Placement,
        repetitions: Sequence[int],
        extra: int,
        prefixes: Dict[str, int] | None = None,
    ) -> List[int]:
        """The generator seed of each noisy profile's draw in
        ``placement`` (a noise-free profile draws nothing and has none).
        ``prefixes`` is ``noise_prefixes(placement)``, for a caller that
        already holds it."""
        if prefixes is None:
            prefixes = self.noise_prefixes(placement)
        # The seed is _stable_seed(seed, machine, profile, nodes, l2_share,
        # repetition, extra); a CRC continues, so everything up to the
        # repetition is hashed once per (profile name, placement).  (A
        # prefix that happens to be 0 is recomputed, to the same value.)
        # An integer's "%d" is its str, in ASCII: the same bytes.
        known = prefixes.get
        return [
            zlib.crc32(
                b"%d|%d" % (repetition, extra),
                known(profile.name)
                or self._noise_prefix(prefixes, profile.name, placement),
            )
            for profile, repetition in zip(profiles, repetitions)
            if profile.phase_noise > 0
        ]

    def noise_prefixes(self, placement: Placement) -> Dict[str, int]:
        """The placement's ``profile name -> seed-prefix CRC`` table (the
        memo :meth:`noise_seeds` reads and fills).  The table object lives
        as long as the simulator, so it may be held and passed back."""
        key = (placement.nodes, placement.l2_share)
        prefixes = self._noise_prefixes.get(key)
        if prefixes is None:
            prefixes = self._noise_prefixes[key] = {}
        return prefixes

    def _noise_prefix(
        self, prefixes: Dict[str, int], name: str, placement: Placement
    ) -> int:
        """Compute and memoize the seed-prefix CRC of one profile name in
        ``prefixes``, the placement's table (the miss arm of
        :meth:`noise_seeds`)."""
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


class NoiseBatch:
    """Measurement-noise draws gathered from any number of simulators and
    drawn together: one :func:`~repro.perfsim.noise.standard_normals`
    call and one ``exp`` for the whole batch.

    Every draw shares the batch's probe length and ``extra`` seed part.
    Group ``g`` of :meth:`multipliers` holds, per profile of the ``g``-th
    :meth:`add`, ``exp(sigma * z)`` — ``z`` the standard normal NumPy's
    default generator seeded with the profile's seed
    (:meth:`PerformanceSimulator.noise_seeds`) draws first, ``sigma`` its
    phase noise scaled to the probe length — or 1.0 for a noise-free
    profile.  That is bit for bit the ``exp`` of that generator's
    ``normal(0.0, sigma)``, the draw the simulator's noise is defined by.
    """

    __slots__ = ("duration_s", "extra", "_seeds", "_groups")

    def __init__(self, duration_s: float, extra: int = MEASURED_IPC_NOISE) -> None:
        self.duration_s = duration_s
        self.extra = extra
        self._seeds: List[int] = []
        self._groups: List[Sequence[WorkloadProfile]] = []

    def add(
        self,
        simulator: PerformanceSimulator,
        profiles: Sequence[WorkloadProfile],
        placement: Placement,
        repetitions: Sequence[int],
        prefixes: Dict[str, int] | None = None,
    ) -> None:
        """Gather one draw per profile of ``profiles`` in ``placement``
        (``prefixes`` as for :meth:`PerformanceSimulator.noise_seeds`)."""
        self._seeds += simulator.noise_seeds(
            profiles, placement, repetitions, self.extra, prefixes
        )
        self._groups.append(profiles)

    def multipliers(self) -> List[List[float]]:
        """Each gathered group's noise multipliers, in gathering order.
        Only a batch with a noisy profile looks at the probe length."""
        groups = self._groups
        if not self._seeds:
            return [[1.0] * len(profiles) for profiles in groups]
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        # math.sqrt and np.sqrt both round correctly: the same double.
        scale = math.sqrt(max(self.duration_s, 1e-9) / 10.0)
        sigmas = [
            p.phase_noise / scale
            for profiles in groups
            for p in profiles
            if p.phase_noise > 0
        ]
        # Generator.normal(0.0, sigma) is 0.0 + sigma * z: adding 0.0
        # changes only the sign of a zero, which exp ignores.
        normals = standard_normals(self._seeds)
        drawn = np.exp([s * z for s, z in zip(sigmas, normals)]).tolist()
        if len(groups) == 1 and len(drawn) == len(groups[0]):
            return [drawn]
        values = iter(drawn)
        return [
            [next(values) if p.phase_noise > 0 else 1.0 for p in profiles]
            for profiles in groups
        ]
