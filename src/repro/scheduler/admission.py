"""Front-end admission control: shed load deliberately, not by collapse.

Without admission control the sharded service accepts unbounded
traffic: a request that can never fit still burns a full route/retry
fan-out, a saturated fleet queues everything, and a DOWN shard lets
tail latency explode.  The :class:`AdmissionController` sits in front
of the routing window and applies three screens, in order:

1. **Feasibility** (``admission:infeasible``) — no machine shape in the
   fleet can *ever* host the request's vcpus class (by
   :func:`~repro.scheduler.fleet.minimal_shape`); reject before any
   shard round trip.  Note the bound is structural: a class whose
   minimal shape fits but that a specific policy cannot place (e.g. no
   important placement in the ML policy's tables) passes this screen
   and is rejected shard-side exactly as without admission.
2. **Saturation** (``admission:capacity``) — every live shard's
   free-node histograms prove the request cannot be placed: no host
   has a big-enough free block, and (with the rebalancer on) no
   shape's free total could be consolidated into one (the caller
   computes that predicate from ``scheduler/capacity.py``; see
   ``SchedulerService._fleet_saturated``); reject up front instead of
   fanning out to collect the same answer per shard.
3. **Brown-out** — when shard health or the fleet-wide capacity
   fraction degrades, best-effort arrivals (``goal_fraction is None``)
   are *held* in a bounded queue while strict-goal traffic keeps
   flowing.  The queue sheds according to ``shed_policy``:

   * ``drop-newest`` — an arrival that finds the queue full is shed
     (``admission:queue-full``);
   * ``drop-oldest`` — the head of the queue is evicted to make room
     (``admission:evicted``);
   * ``deadline`` — holds whose per-request deadline budget is already
     spent are shed first (``admission:deadline``); if nothing has
     expired the overflow falls back to drop-newest.

   Brown-out uses hysteresis: it is entered when any shard is
   DOWN/RECOVERING or the capacity fraction drops below
   ``brownout_watermark``, but only exits once every shard is healthy
   *and* the fraction recovers to ``1.5 x watermark`` (capped at 1.0),
   so a fleet oscillating around the watermark does not flap.  On exit
   the held queue drains back into the routing window; a request that
   departs while held is cancelled (``admission:expired``), and holds
   still queued when the stream ends are shed (``admission:brownout``).

Every screen outcome is a typed :class:`AdmissionDecision` and every
counter lives in :class:`AdmissionStats`, which JSON-wire round-trips
via ``to_dict``/``from_dict`` inside the service report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.scheduler.fleet import minimal_shape
from repro.scheduler.requests import PlacementRequest
from repro.topology.machine import MachineTopology

#: Queue shed policies accepted by ``ScheduleConfig.shed_policy``.
SHED_POLICIES = ("drop-newest", "drop-oldest", "deadline")

#: Typed reject reasons (the ``admission:`` prefix distinguishes a
#: front-end shed from a shard-side ``capacity``/``infeasible`` reject).
REASON_INFEASIBLE = "admission:infeasible"
REASON_CAPACITY = "admission:capacity"
REASON_QUEUE_FULL = "admission:queue-full"
REASON_EVICTED = "admission:evicted"
REASON_DEADLINE = "admission:deadline"
REASON_EXPIRED = "admission:expired"
REASON_BROWNOUT = "admission:brownout"

_OUTCOMES = ("admit", "hold", "reject")

#: A shed record: (request, the event time it was offered/held at, reason).
Shed = Tuple[PlacementRequest, float, str]

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionStats",
    "REASON_BROWNOUT",
    "REASON_CAPACITY",
    "REASON_DEADLINE",
    "REASON_EVICTED",
    "REASON_EXPIRED",
    "REASON_INFEASIBLE",
    "REASON_QUEUE_FULL",
    "SHED_POLICIES",
]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of screening one arrival through the admission controller."""

    request_id: int
    #: ``admit`` (feed the routing window), ``hold`` (queued during
    #: brown-out), or ``reject`` (shed with a typed ``reason``).
    outcome: str
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.outcome not in _OUTCOMES:
            raise ValueError(
                f"outcome must be one of {_OUTCOMES}, got {self.outcome!r}"
            )
        if self.outcome == "reject" and self.reason is None:
            raise ValueError("a reject decision must carry a reason")

    def describe(self) -> str:
        text = f"request {self.request_id} -> {self.outcome.upper()}"
        if self.reason is not None:
            text += f" ({self.reason})"
        return text


@dataclass
class AdmissionStats:
    """Admission-controller counters; wire round-trippable."""

    #: Arrivals screened (one per offered request).
    offered: int = 0
    #: Screened straight into the routing window.
    admitted: int = 0
    #: Rejected up front: no machine shape can ever host the class.
    rejected_infeasible: int = 0
    #: Rejected up front: every live shard provably cannot place it.
    rejected_capacity: int = 0
    #: Best-effort arrivals ever held in the brown-out queue.
    held: int = 0
    #: High-water mark of the held queue.
    held_peak: int = 0
    #: Holds drained back into the routing window on brown-out exit.
    drained: int = 0
    #: Sheds, by cause.
    shed_queue_full: int = 0
    shed_evicted: int = 0
    shed_deadline: int = 0
    #: Holds cancelled because the request departed while queued.
    shed_expired: int = 0
    #: Holds still queued when the stream ended.
    shed_brownout: int = 0
    brownout_entries: int = 0
    brownout_exits: int = 0

    @property
    def shed_total(self) -> int:
        return (
            self.shed_queue_full
            + self.shed_evicted
            + self.shed_deadline
            + self.shed_expired
            + self.shed_brownout
        )

    @property
    def rejected_total(self) -> int:
        return self.rejected_infeasible + self.rejected_capacity

    def to_dict(self) -> Dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected_infeasible": self.rejected_infeasible,
            "rejected_capacity": self.rejected_capacity,
            "held": self.held,
            "held_peak": self.held_peak,
            "drained": self.drained,
            "shed_queue_full": self.shed_queue_full,
            "shed_evicted": self.shed_evicted,
            "shed_deadline": self.shed_deadline,
            "shed_expired": self.shed_expired,
            "shed_brownout": self.shed_brownout,
            "brownout_entries": self.brownout_entries,
            "brownout_exits": self.brownout_exits,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AdmissionStats":
        return cls(**data)


class AdmissionController:
    """Screen arrivals: feasibility gate, saturation gate, brown-out queue.

    The controller is transport-agnostic — it never talks to a shard.
    The service feeds it health/capacity observations
    (:meth:`observe`), asks it to :meth:`screen` each arrival, and emits
    the shed records it returns as typed front-end rejects.
    """

    def __init__(
        self,
        *,
        machines: Sequence[MachineTopology],
        classes: Sequence[int] = (),
        queue_limit: int | None = None,
        shed_policy: str = "drop-newest",
        deadline_budget_s: float = 30.0,
        brownout_watermark: float = 0.0,
    ) -> None:
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None: unbounded)")
        if deadline_budget_s <= 0:
            raise ValueError("deadline_budget_s must be positive")
        if not 0.0 <= brownout_watermark <= 1.0:
            raise ValueError("brownout_watermark must be in [0, 1]")
        #: Distinct machine shapes, for the structural feasibility gate.
        seen: Set[Tuple] = set()
        self._machines: List[MachineTopology] = []
        for machine in machines:
            fingerprint = machine.fingerprint()
            if fingerprint not in seen:
                seen.add(fingerprint)
                self._machines.append(machine)
        self._feasible: Dict[int, bool] = {}
        self.queue_limit = queue_limit
        self.shed_policy = shed_policy
        self.deadline_budget_s = deadline_budget_s
        self.brownout_watermark = brownout_watermark
        #: Exit threshold: 1.5x the entry watermark, capped at full
        #: capacity — the hysteresis band.
        self.exit_watermark = min(1.0, 1.5 * brownout_watermark)
        self.in_brownout = False
        self._held: List[Tuple[PlacementRequest, float]] = []
        self._held_ids: Set[int] = set()
        self.stats = AdmissionStats()
        # `classes` is advisory (pre-warms the feasibility memo).
        for vcpus in classes:
            self.feasible(int(vcpus))

    # ------------------------------------------------------------------
    # Screens
    # ------------------------------------------------------------------
    def feasible(self, vcpus: int) -> bool:
        """True when some machine shape can ever host ``vcpus``."""
        if vcpus not in self._feasible:
            feasible = False
            for machine in self._machines:
                try:
                    minimal_shape(machine, vcpus)
                except ValueError:
                    continue
                feasible = True
                break
            self._feasible[vcpus] = feasible
        return self._feasible[vcpus]

    def observe(
        self, down_shards: int, capacity_fraction: float | None
    ) -> str | None:
        """Feed a health/capacity observation; returns ``"entered"`` /
        ``"exited"`` on a brown-out transition, else None."""
        if not self.in_brownout:
            degraded = down_shards > 0 or (
                self.brownout_watermark > 0.0
                and capacity_fraction is not None
                and capacity_fraction < self.brownout_watermark
            )
            if degraded:
                self.in_brownout = True
                self.stats.brownout_entries += 1
                return "entered"
            return None
        recovered = down_shards == 0 and (
            self.brownout_watermark <= 0.0
            or capacity_fraction is None
            or capacity_fraction >= self.exit_watermark
        )
        if recovered:
            self.in_brownout = False
            self.stats.brownout_exits += 1
            return "exited"
        return None

    def screen(
        self,
        request: PlacementRequest,
        event_time: float,
        *,
        saturated: bool = False,
    ) -> Tuple[AdmissionDecision, List[Shed]]:
        """Screen one arrival.

        Returns the decision for ``request`` plus any *other* holds shed
        to make room (drop-oldest eviction).  ``saturated`` is the
        caller's fleet-wide guaranteed-reject predicate.
        """
        self.stats.offered += 1
        if not self.feasible(request.vcpus):
            self.stats.rejected_infeasible += 1
            return (
                AdmissionDecision(
                    request.request_id, "reject", REASON_INFEASIBLE
                ),
                [],
            )
        if saturated:
            self.stats.rejected_capacity += 1
            return (
                AdmissionDecision(
                    request.request_id, "reject", REASON_CAPACITY
                ),
                [],
            )
        if self.in_brownout and request.goal_fraction is None:
            return self._hold(request, event_time)
        self.stats.admitted += 1
        return AdmissionDecision(request.request_id, "admit"), []

    def _hold(
        self, request: PlacementRequest, event_time: float
    ) -> Tuple[AdmissionDecision, List[Shed]]:
        sheds: List[Shed] = []
        if (
            self.queue_limit is not None
            and len(self._held) >= self.queue_limit
        ):
            if self.shed_policy == "drop-oldest":
                victim, held_at = self._held.pop(0)
                self._held_ids.discard(victim.request_id)
                self.stats.shed_evicted += 1
                sheds.append((victim, held_at, REASON_EVICTED))
            else:
                # drop-newest, and the deadline policy's overflow
                # fallback once nothing has expired this tick.
                self.stats.shed_queue_full += 1
                return (
                    AdmissionDecision(
                        request.request_id, "reject", REASON_QUEUE_FULL
                    ),
                    sheds,
                )
        self._held.append((request, event_time))
        self._held_ids.add(request.request_id)
        self.stats.held += 1
        self.stats.held_peak = max(self.stats.held_peak, len(self._held))
        return AdmissionDecision(request.request_id, "hold"), sheds

    # ------------------------------------------------------------------
    # Held-queue lifecycle
    # ------------------------------------------------------------------
    def is_held(self, request_id: int) -> bool:
        return request_id in self._held_ids

    def expire(self, now: float) -> List[Shed]:
        """Shed holds whose deadline budget is spent (deadline policy).

        Holds are appended in event-time order, so expiry pops from the
        front until the head is still within budget.
        """
        sheds: List[Shed] = []
        while (
            self._held
            and now - self._held[0][1] > self.deadline_budget_s
        ):
            request, held_at = self._held.pop(0)
            self._held_ids.discard(request.request_id)
            self.stats.shed_deadline += 1
            sheds.append((request, held_at, REASON_DEADLINE))
        return sheds

    def cancel(self, request_id: int) -> Shed | None:
        """Drop a hold whose request departed before it was ever placed."""
        if request_id not in self._held_ids:
            return None
        self._held_ids.discard(request_id)
        for position, (request, held_at) in enumerate(self._held):
            if request.request_id == request_id:
                self._held.pop(position)
                self.stats.shed_expired += 1
                return (request, held_at, REASON_EXPIRED)
        return None

    def drain(self) -> List[Tuple[PlacementRequest, float]]:
        """Release every hold back to the caller (brown-out exited)."""
        drained = self._held
        self._held = []
        self._held_ids.clear()
        self.stats.drained += len(drained)
        return drained

    def flush(self) -> List[Shed]:
        """Shed every remaining hold (the stream ended mid-brown-out)."""
        sheds: List[Shed] = []
        for request, held_at in self._held:
            self.stats.shed_brownout += 1
            sheds.append((request, held_at, REASON_BROWNOUT))
        self._held = []
        self._held_ids.clear()
        return sheds
