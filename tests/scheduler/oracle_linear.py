"""The scheduler's linear-scan and unmemoized paths: the oracles.

Production selects hosts through the fleet index, searches blocks through
the shared per-shape state memo and serves placements and noise-free IPCs
from the registry's memos.  The plain computations those accelerate live
here: policies that scan every host (searching each with
:class:`SearchBlocks`, the combinations loop on every call), a registry
that re-enumerates and re-simulates on every call, and :func:`probe_ipc`,
the per-row reference of ``ModelRegistry.probe_ipc_batch``.  Tests hold
production to them decision for decision; the fleet benchmarks time
production against them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.blockscores import mask_nodes, search_blocks
from repro.core.enumeration import enumerate_important_placements
from repro.core.placements import Placement
from repro.scheduler import (
    FirstFitFleetPolicy,
    FleetDecision,
    GoalAwareFleetPolicy,
    ModelRegistry,
    SpreadFleetPolicy,
    minimal_shape,
)
from tests.perfsim.oracle_noise import measured_ipc_noise


class SearchBlocks:
    """A block search with no table and no memo: what ``find_block``
    computed before the per-shape state memo, a combinations loop over
    the host's free nodes on every call."""

    def __init__(self, scorer) -> None:
        self.scorer = scorer

    def find_mask(self, mask, size, target_score=None):
        return search_blocks(mask_nodes(mask), size, self.scorer, target_score)


#: (fingerprint, scorer kind[, "lane"]) -> the shape's search.  A scorer
#: is a pure function of the shape, so one search per shape serves every
#: host (and keeps the oracles' timed rows as cheap as the paths they
#: replaced).
_SEARCHES: Dict[Tuple, SearchBlocks] = {}


def _interconnect(machine) -> SearchBlocks:
    key = (machine.fingerprint(), "interconnect")
    search = _SEARCHES.get(key)
    if search is None:
        search = _SEARCHES[key] = SearchBlocks(
            machine.interconnect.aggregate_bandwidth
        )
    return search


# ----------------------------------------------------------------------
# Heuristic policies
# ----------------------------------------------------------------------


class _LinearScan:
    """First host in the policy's scan order with a minimum free block."""

    def _decide_one(self, request, fleet) -> FleetDecision:
        feasible_anywhere = False
        for host in self._scan_order(fleet):
            machine = host.machine
            try:
                n_nodes, l2_share = minimal_shape(machine, request.vcpus)
            except ValueError:
                continue
            feasible_anywhere = True
            block = host.find_block(n_nodes, table=_interconnect(machine))
            if block is None:
                continue
            placement = Placement(
                machine, block, request.vcpus, l2_share=l2_share
            )
            host.allocate(request.request_id, placement)
            return FleetDecision(
                request, host_id=host.host_id, placement=placement
            )
        reason = "capacity" if feasible_anywhere else "infeasible"
        return FleetDecision(request, reject_reason=reason)


def hosts_by_load(fleet) -> list:
    """Hosts sorted emptiest-first (the spread policy's scan order)."""
    return sorted(
        fleet.hosts,
        key=lambda h: (h.node_utilization, h.thread_utilization, h.host_id),
    )


class LinearFirstFitPolicy(_LinearScan, FirstFitFleetPolicy):
    """First-fit over every host, in id order."""

    def _scan_order(self, fleet):
        return fleet.hosts


class LinearSpreadPolicy(_LinearScan, SpreadFleetPolicy):
    """Spread over every host, emptiest first."""

    def _scan_order(self, fleet):
        return hosts_by_load(fleet)


# ----------------------------------------------------------------------
# Goal-aware policy
# ----------------------------------------------------------------------


def _lane_search(lane) -> SearchBlocks:
    """A search over the lane's block scorer: its placement set's
    bandwidth concern, or constant zero on machines without one."""
    key = (lane.fingerprint, lane.kind, "lane")
    search = _SEARCHES.get(key)
    if search is None:
        bandwidth = lane.placements.concerns.bandwidth_concern
        search = _SEARCHES[key] = SearchBlocks(
            (lambda nodes: 0.0) if bandwidth is None else bandwidth.score_nodes
        )
    return search


class LinearGoalAwarePolicy(GoalAwareFleetPolicy):
    """The goal-aware policy's probes and predictions, placed by the
    triple loop over every host with free nodes."""

    def _place(
        self, request, fleet, plans: List[Tuple] | None, *, recheck: bool
    ) -> FleetDecision:
        if plans is None:
            return FleetDecision(request, reject_reason="infeasible")
        candidates = [
            host for host in fleet.hosts if host.n_free_nodes > 0
        ]
        if not plans or not candidates:
            return FleetDecision(request, reject_reason="capacity")
        by_shape = {
            entry[0].fingerprint: entry
            for entry in self._ranked(request, plans)
        }

        # Candidate-major search: the most-preferred placement realizable
        # *anywhere* in the fleet wins, so a mediocre placement on an early
        # host never shadows a good one on a later host.  Pass 1 wants a
        # free block whose interconnect score matches the candidate exactly
        # (so the prediction transfers verbatim); pass 2 accepts any free
        # block of the right size.
        max_rank = max(len(order) for *_, order in by_shape.values())
        for exact in (True, False):
            for rank in range(max_rank):
                for host in candidates:
                    entry = by_shape.get(host.machine.fingerprint())
                    if entry is None:
                        continue
                    lane, _, vector, order = entry
                    if rank >= len(order):
                        continue
                    candidate = order[rank]
                    if lane.sizes[candidate] > host.n_free_nodes:
                        continue
                    decision = self._try_candidate(
                        request,
                        host,
                        lane,
                        vector,
                        candidate,
                        target=lane.targets[candidate] if exact else None,
                        table=_lane_search(lane),
                    )
                    if decision is not None:
                        return decision
        return FleetDecision(request, reject_reason="capacity")


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class UnmemoizedRegistry(ModelRegistry):
    """A registry that re-runs the Algorithm 1-3 pipeline on every
    placement lookup and the noise-free simulation on every IPC lookup.

    Every lookup is counted: each enumeration as a pipeline run
    (``enumeration_runs``), each simulation as an IPC-memo miss.  Model
    fitting stays memoized (per request it would swamp everything else),
    and a fresh placement set per lookup gives every batch a fresh
    policy lane.
    """

    def placements(self, machine, vcpus):
        self._enumeration_misses += 1
        return enumerate_important_placements(machine, vcpus)

    def solo_ipc(self, machine, profile, placement) -> float:
        self._ipc_misses += 1
        return self.simulator(machine).measured_ipc(
            profile, placement, noise=False
        )

    def probe_ipc_batch(
        self, machine, profiles, placement, *, multipliers, row=None
    ) -> List[float]:
        if len(profiles) != len(multipliers):
            raise ValueError("profiles and multipliers must align")
        simulator = self.simulator(machine)
        self._ipc_misses += len(profiles)
        return [
            simulator.measured_ipc(profile, placement, noise=False) * multiplier
            for profile, multiplier in zip(profiles, multipliers)
        ]

    def baseline_ipc(self, machine, vcpus, profile) -> float:
        return self.solo_ipc(
            machine, profile, self.baseline_placement(machine, vcpus)
        )


def probe_ipc(
    registry: ModelRegistry,
    machine,
    profile,
    placement,
    *,
    duration_s: float,
    repetition: int,
) -> float:
    """One noisy probe observation: the registry's noise-free IPC
    (counted as a hit or a miss by ``solo_ipc``) times one noise draw.
    Bit-for-bit equal to calling ``measured_ipc(noise=True)`` directly."""
    return registry.solo_ipc(machine, profile, placement) * measured_ipc_noise(
        registry.simulator(machine),
        profile,
        placement,
        duration_s=duration_s,
        repetition=repetition,
    )
