"""The sharded scheduler service: route, batch, retry across shards.

Two-level scheduling for the fleet (the Borg/Omega shape): the
:class:`SchedulerService` front-end partitions the fleet round-robin
across worker shards (:mod:`repro.scheduler.shard`), each owning its own
fleet index, model registry, and policies, and routes every request from
nothing but the shards' cheap summaries — free-node totals and the
largest free block per machine shape.  Summaries are refreshed by
piggybacking on every worker response, so they are always slightly
stale; the service is *optimistic* about that: it routes anyway, and
when a shard rejects for capacity (its summary promised room it no
longer has, or never had), the request is retried on the next-best
shard until one places it or every shard has had a look.  A request is
therefore placed exactly once or rejected exactly once, never lost and
never double-placed — the conflict-retry property the tests assert.

Why it is fast, independent of transport parallelism:

* every shard's candidate scans (index buckets, block search) cover
  ``1/n_shards`` of the hosts, so the per-decision hot path shrinks
  with the shard count;
* arrivals are batched into routing windows and each shard decides its
  window slice in one ``decide_batch`` call, so the goal-aware policy's
  fused forest call amortizes across the window instead of running per
  event as the monolithic lifecycle engine does;
* departures are deferred into per-shard outboxes ([id, time] pairs —
  a release needs nothing else) and ride *inside* the owning shard's
  next window message, applied before the window is decided, so the
  dominant event type in a churn stream costs no round trip at all: a
  routing round is one message per routed shard.

With one shard and a window of one, the service is the monolithic
:class:`~repro.scheduler.lifecycle.LifecycleScheduler` behind a wire
protocol: the reference-stream tests assert the decisions are
bit-for-bit identical.

Dispatch is *overlapped* by default: a routing round builds one window
message per routed shard (its slice of arrivals plus the departures
waiting in that shard's outbox), journals every one of them first, fires
them all, and gathers the replies via
``multiprocessing.connection.wait`` — processing them in shard order
regardless of arrival order, so routing, retries, summaries, and merged
reports are bit-for-bit those of the sequential ``--no-overlap``
baseline while the worker processes run their slices concurrently.
Failures surface at the gather and are resolved sequentially in shard
order through the same retry/recovery tail the sequential path uses, so
fault handling stays deterministic too; the departures a failed message
carried go back to the front of the outbox, because the journal entry
was rolled back and nothing was applied.  The standalone ``depart``
message remains for the one case with no window to ride: the flush at
the end of a stream, before the reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Dict, List, Sequence, Tuple

from repro.core.memo import CacheInfo
from repro.core.serialize import machines_by_name
from repro.scheduler.admission import AdmissionController, AdmissionStats
from repro.scheduler.capacity import initial_capacity
from repro.scheduler.config import ScheduleConfig
from repro.scheduler.events import EventKind, events_from_requests
from repro.scheduler.fleet import minimal_shape
from repro.scheduler.lifecycle import ChurnStats, FragmentationSample
from repro.scheduler.faults import FaultInjectingClient, FaultPlan
from repro.scheduler.policies import FleetDecision, is_model_driven
from repro.scheduler.registry import ModelRegistry
from repro.scheduler.requests import PlacementRequest
from repro.scheduler.scheduler import FleetReport, GradedDecision
from repro.scheduler.shard import (
    InlineShardClient,
    ProcessShardClient,
    ShardCrashError,
    ShardTimeoutError,
)
from repro.scheduler.supervisor import (
    HEALTH_DOWN,
    MUTATING_OPS,
    ShardDownError,
    ShardSupervisor,
)
from repro.scheduler.wire import (
    ShardError,
    ShardSummary,
    decode_churn,
    decode_graded,
    decode_summary,
    encode_arrival,
)


@dataclass
class ServiceStats:
    """Routing counters carried inside a FleetReport."""

    n_shards: int
    window: int
    transport: str = "inline"
    #: Routing rounds flushed (each is at most one message per shard).
    rounds: int = 0
    #: Arrivals routed (first placement attempt).
    routed: int = 0
    #: Departures forwarded to their owning shard.
    departures_routed: int = 0
    #: Departure batches delivered, each riding on its shard's next
    #: window message (the end-of-stream remainder as one ``depart``); a
    #: batch a down shard sent back counts when it finally lands.
    departure_batches: int = 0
    #: Re-route attempts after a shard rejected (stale-summary recovery).
    retries: int = 0
    #: Requests placed by a retry after their first shard rejected them.
    recovered_by_retry: int = 0
    #: Requests rejected after every shard was tried.
    exhausted: int = 0
    #: Arrivals finally owned by each shard (placed or terminally
    #: rejected there).
    shard_requests: List[int] = field(default_factory=list)
    #: Arrivals placed by each shard.
    shard_placed: List[int] = field(default_factory=list)
    #: Whether shard supervision (journaling, health, recovery) was on.
    supervised: bool = False
    #: Shard crashes detected (dead pipe, dead process, injected kill).
    crashes: int = 0
    #: Request timeouts observed (wedged worker or dropped reply).
    timeouts: int = 0
    #: Timeout retries issued after a seeded exponential backoff sleep.
    backoff_retries: int = 0
    #: Arrivals re-routed to a surviving shard because their shard went
    #: down with recovery deferred.
    failovers: int = 0
    #: Respawn-and-replay recoveries completed.
    journal_replays: int = 0
    #: Journaled messages re-sent during those replays.
    replayed_messages: int = 0
    #: Routing rounds that started with at least one shard still DOWN.
    degraded_windows: int = 0
    #: Arrivals whose placement was touched by a fault (re-routed, or
    #: placed through a send that needed retries/recovery).
    degraded_arrivals: int = 0
    #: Routing rounds dispatched overlapped (fire every shard's message,
    #: then gather); 0 when ``--no-overlap`` forces the serial baseline.
    overlapped_rounds: int = 0
    #: Wall-clock seconds spent inside placement rounds.  Under
    #: overlapped dispatch this is what req/s actually experiences.
    window_wall_seconds: float = 0.0
    #: Summed per-shard service time (send until the reply is ready).
    #: Serial dispatch pays this sum on the wall clock; overlapped
    #: dispatch pays roughly the per-round maximum — the gap between the
    #: two fields is the time the overlap won back.
    shard_service_seconds: float = 0.0
    #: Capacity-reject retry fan-outs skipped because the next shard's
    #: summary (capacity vector + per-shape free totals, exact at that
    #: point) already proved the request cannot be placed there.
    #: Admission mode only — without the vectors every live shard gets
    #: a round trip.
    retries_short_circuited: int = 0
    #: Admission-controller counters (None when admission is off, which
    #: keeps the pre-admission wire payload byte-identical).
    admission: "AdmissionStats | None" = None

    def __add__(self, other: "ServiceStats") -> "ServiceStats":
        """Merge counters from two runs of identically shaped services."""
        if not isinstance(other, ServiceStats):
            return NotImplemented
        if (self.n_shards, self.window, self.transport) != (
            other.n_shards,
            other.window,
            other.transport,
        ):
            raise ValueError(
                "can only merge stats from services with the same shard "
                "count, window, and transport"
            )
        merged_admission = None
        if self.admission is not None or other.admission is not None:
            merged_admission = (self.admission or AdmissionStats()) + (
                other.admission or AdmissionStats()
            )

        def zipsum(a: List[int], b: List[int]) -> List[int]:
            if len(a) < len(b):
                a = a + [0] * (len(b) - len(a))
            elif len(b) < len(a):
                b = b + [0] * (len(a) - len(b))
            return [x + y for x, y in zip(a, b)]

        return ServiceStats(
            n_shards=self.n_shards,
            window=self.window,
            transport=self.transport,
            rounds=self.rounds + other.rounds,
            routed=self.routed + other.routed,
            departures_routed=(
                self.departures_routed + other.departures_routed
            ),
            departure_batches=(
                self.departure_batches + other.departure_batches
            ),
            retries=self.retries + other.retries,
            recovered_by_retry=(
                self.recovered_by_retry + other.recovered_by_retry
            ),
            exhausted=self.exhausted + other.exhausted,
            shard_requests=zipsum(self.shard_requests, other.shard_requests),
            shard_placed=zipsum(self.shard_placed, other.shard_placed),
            supervised=self.supervised or other.supervised,
            crashes=self.crashes + other.crashes,
            timeouts=self.timeouts + other.timeouts,
            backoff_retries=self.backoff_retries + other.backoff_retries,
            failovers=self.failovers + other.failovers,
            journal_replays=self.journal_replays + other.journal_replays,
            replayed_messages=(
                self.replayed_messages + other.replayed_messages
            ),
            degraded_windows=self.degraded_windows + other.degraded_windows,
            degraded_arrivals=(
                self.degraded_arrivals + other.degraded_arrivals
            ),
            overlapped_rounds=(
                self.overlapped_rounds + other.overlapped_rounds
            ),
            window_wall_seconds=(
                self.window_wall_seconds + other.window_wall_seconds
            ),
            shard_service_seconds=(
                self.shard_service_seconds + other.shard_service_seconds
            ),
            retries_short_circuited=(
                self.retries_short_circuited + other.retries_short_circuited
            ),
            admission=merged_admission,
        )

    def describe(self) -> str:
        lines = [
            f"  service: {self.n_shards} shard(s) ({self.transport} "
            f"transport), window {self.window}: {self.rounds} routing "
            f"rounds, {self.routed} arrivals routed, "
            f"{self.departures_routed} departures in "
            f"{self.departure_batches} batches",
            f"  optimistic retry: {self.retries} re-routes, "
            f"{self.recovered_by_retry} recovered, "
            f"{self.exhausted} exhausted every shard",
            f"  dispatch: {self.overlapped_rounds} overlapped round(s), "
            f"{self.window_wall_seconds:.3f}s window wall clock / "
            f"{self.shard_service_seconds:.3f}s summed shard service",
        ]
        if self.shard_requests:
            lines.append(
                "  shard load: "
                + ", ".join(
                    f"#{shard}: {requests} routed / {placed} placed"
                    for shard, (requests, placed) in enumerate(
                        zip(self.shard_requests, self.shard_placed)
                    )
                )
            )
        if self.supervised:
            lines.append(
                f"  supervision: {self.crashes} crashes, "
                f"{self.timeouts} timeouts, "
                f"{self.backoff_retries} backoff retries, "
                f"{self.failovers} failovers"
            )
            lines.append(
                f"  recovery: {self.journal_replays} journal replays "
                f"({self.replayed_messages} messages), "
                f"{self.degraded_windows} degraded windows, "
                f"{self.degraded_arrivals} degraded arrivals"
            )
        if self.admission is not None:
            a = self.admission
            lines.append(
                f"  admission: {a.offered} offered, {a.admitted} admitted, "
                f"{a.rejected_infeasible} infeasible, "
                f"{a.rejected_capacity} saturated, "
                f"{self.retries_short_circuited} retry fan-out(s) skipped"
            )
            lines.append(
                f"  brown-out: {a.brownout_entries} entered / "
                f"{a.brownout_exits} exited, {a.held} held "
                f"(peak {a.held_peak}), {a.drained} drained, "
                f"{a.shed_total} shed"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        data = {
            "n_shards": self.n_shards,
            "window": self.window,
            "transport": self.transport,
            "rounds": self.rounds,
            "routed": self.routed,
            "departures_routed": self.departures_routed,
            "departure_batches": self.departure_batches,
            "retries": self.retries,
            "recovered_by_retry": self.recovered_by_retry,
            "exhausted": self.exhausted,
            "shard_requests": list(self.shard_requests),
            "shard_placed": list(self.shard_placed),
            "supervised": self.supervised,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "backoff_retries": self.backoff_retries,
            "failovers": self.failovers,
            "journal_replays": self.journal_replays,
            "replayed_messages": self.replayed_messages,
            "degraded_windows": self.degraded_windows,
            "degraded_arrivals": self.degraded_arrivals,
            "overlapped_rounds": self.overlapped_rounds,
            "window_wall_seconds": self.window_wall_seconds,
            "shard_service_seconds": self.shard_service_seconds,
        }
        # Admission-era keys are emitted only when the controller ran,
        # keeping the admission-off payload byte-identical to PR 9's.
        if self.admission is not None or self.retries_short_circuited:
            data["retries_short_circuited"] = self.retries_short_circuited
        if self.admission is not None:
            data["admission"] = self.admission.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ServiceStats":
        values = dict(data)
        admission = values.get("admission")
        if admission is not None:
            values["admission"] = AdmissionStats.from_dict(admission)
        return cls(**values)


def merge_churn_stats(
    per_shard: Sequence[ChurnStats],
    *,
    arrivals: int,
    initial: Sequence[FragmentationSample],
) -> ChurnStats:
    """Fold per-shard churn statistics into one fleet-wide view.

    Counters sum; migration traces interleave by time.  The
    fragmentation timeline is merged by carrying each shard's latest
    sample forward: at every event time, fleet free nodes / active
    containers / fit failures are the *sum* of the shards' latest
    values and the largest free block is their *max* (a block lives on
    one host, hence in one shard).  ``initial`` supplies each shard's
    pre-stream state (an empty shard: all nodes free) so sums are right
    before every shard has reported a sample.  ``arrivals`` overrides
    the summed arrival count: a retried request arrives at several
    shards but only once at the service.
    """
    if len(per_shard) == 1:
        only = per_shard[0]
        return replace(
            only,
            arrivals=arrivals,
            migrations=list(only.migrations),
            fragmentation_timeline=list(only.fragmentation_timeline),
        )
    merged = ChurnStats(
        arrivals=arrivals,
        departures=sum(s.departures for s in per_shard),
        rebalance_attempts=sum(s.rebalance_attempts for s in per_shard),
        rebalance_recovered=sum(s.rebalance_recovered for s in per_shard),
    )
    merged.migrations = sorted(
        (m for s in per_shard for m in s.migrations),
        key=lambda m: (m.time, m.triggered_by, m.request_id),
    )
    # (shard, position) is unique, so the sort never compares samples.
    tagged = sorted(
        (sample.time, shard, position, sample)
        for shard, stats in enumerate(per_shard)
        for position, sample in enumerate(stats.fragmentation_timeline)
    )
    # Running totals: a sample replaces its shard's previous one, so each
    # sum moves by the difference (all integers: exact) and only the
    # largest block needs a pass over the shards' latest values.
    latest = list(initial)
    free = sum(s.free_nodes_total for s in latest)
    active = sum(s.active_containers for s in latest)
    failures = sum(s.fit_failures for s in latest)
    blocks = [s.largest_free_block for s in latest]
    timeline = merged.fragmentation_timeline
    for event_time, shard, _, sample in tagged:
        previous = latest[shard]
        latest[shard] = sample
        free += sample.free_nodes_total - previous.free_nodes_total
        active += sample.active_containers - previous.active_containers
        failures += sample.fit_failures - previous.fit_failures
        blocks[shard] = sample.largest_free_block
        timeline.append(
            FragmentationSample(
                event_time, free, max(blocks), active, failures
            )
        )
    return merged


@dataclass
class _DispatchOutcome:
    """Result of one shard's round trip inside an overlapped dispatch:
    either a response (with its service time and whether fault handling
    touched it), or the :class:`ShardDownError` the sequential path
    would have raised at that point."""

    response: Dict | None = None
    elapsed: float = 0.0
    faulted: bool = False
    down: ShardDownError | None = None


class SchedulerService:
    """Front-end over worker shards: route, batch, retry, merge reports.

    Parameters
    ----------
    config:
        The full :class:`~repro.scheduler.config.ScheduleConfig`;
        ``shards``, ``window``, and ``workers`` select the service
        shape, everything else configures the per-shard engines exactly
        as it would configure the monolithic schedulers.  The
        supervision knobs (``supervised``, ``request_timeout_s``,
        ``fault_retries``, ``backoff_base_s``, ``recovery_rounds``)
        configure the fault-tolerance layer.
    faults:
        Optional :class:`~repro.scheduler.faults.FaultPlan`: every shard
        client is wrapped in a
        :class:`~repro.scheduler.faults.FaultInjectingClient` and
        supervision is switched on (an unsupervised service could not
        survive its own fault plan).  With ``faults=None`` and
        ``config.supervised`` False, the service's wire bytes and
        decisions are bit-for-bit those of the unsupervised service —
        no ``seq`` keys, no journaling, nothing extra on the pipe.

    Use as a context manager (or call :meth:`close`) so process-mode
    workers are shut down.
    """

    def __init__(
        self, config: ScheduleConfig, faults: FaultPlan | None = None
    ) -> None:
        config.validate()
        if config.online_learning:
            raise ValueError(
                "online learning is monolithic-only for now: promotions "
                "mutate one registry, and per-shard registries would "
                "drift apart (run repro schedule --online-learning)"
            )
        self.config = config
        machines = config.machine_list()
        self.machines = machines
        self._by_name = machines_by_name(machines)
        n = config.shards
        self._shard_machines = [machines[shard::n] for shard in range(n)]
        self._fault_schedules = (
            None
            if faults is None
            else [faults.bind(shard) for shard in range(n)]
        )
        self.supervisor: ShardSupervisor | None = None
        if config.supervised or faults is not None:
            self.supervisor = ShardSupervisor(
                n,
                retries=config.fault_retries,
                backoff_base_s=config.backoff_base_s,
                recovery_rounds=config.recovery_rounds,
                seed=config.seed,
            )
        self._sleep = time.sleep
        #: The front end's own view of the artifact store, filled before
        #: any client exists: inline shards then find every model they
        #: will serve already trained, forked workers inherit them, and
        #: so does every later respawn — recovery replays the journal
        #: without fitting anything.
        self._registry = self._warm_artifact_store()
        self.clients = [self._make_client(shard) for shard in range(n)]
        self.summaries: List[ShardSummary] = [
            self._initial_summary(shard) for shard in range(n)
        ]
        #: Front-end admission controller (``--admission``); None keeps
        #: every code path and wire byte identical to the
        #: pre-admission service.
        self.admission: AdmissionController | None = None
        #: Empty-fleet capacity totals per class — the denominator of
        #: the brown-out capacity fraction.
        self._initial_capacity_total: Dict[int, int] = {}
        if config.admission:
            self.admission = AdmissionController(
                machines=machines,
                classes=config.vcpus,
                queue_limit=config.queue_limit,
                shed_policy=config.shed_policy,
                deadline_budget_s=config.deadline_budget_s,
                brownout_watermark=config.brownout_watermark,
            )
            self._initial_capacity_total = dict(
                initial_capacity(machines, config.vcpus).counts
            )
        self.stats = ServiceStats(
            n_shards=n,
            window=config.window,
            transport=self.clients[0].transport,
            shard_requests=[0] * n,
            shard_placed=[0] * n,
            supervised=self.supervisor is not None,
        )
        if self.admission is not None:
            # The report's stats object shares the controller's counters.
            self.stats.admission = self.admission.stats
        self.graded: List[GradedDecision] = []
        #: request id -> shard that finally owns it (placed it, or issued
        #: the terminal rejection) — the departure routing table; an
        #: entry leaves with its departure.
        self._owner: Dict[int, int] = {}
        #: Per-shard deferred departures ([request_id, time] pairs): a
        #: departure costs no round trip of its own; the batch rides
        #: inside the owning shard's next window message.
        self._outbox: List[List[List]] = [[] for _ in range(n)]
        #: (machine name, vcpus) -> minimal block nodes | None, memoized.
        self._needed: Dict[Tuple[str, int], int | None] = {}
        #: vcpus -> in-window routing debit, memoized beside it.
        self._min_debits: Dict[int, int] = {}

    def _warm_artifact_store(self) -> ModelRegistry:
        """Train every ``(shape, vcpus)`` key this service routes, through
        a registry built like the shards' — once per process, whatever
        the shard count.  Heuristic policies never consult a model, so
        only a model-driven policy pays for this; in naive mode every
        ``placements`` call is a pipeline run charged to the report, so
        the shards are left to train on first use as before."""
        registry = self.config.build_registry()
        if self.config.naive or not is_model_driven(self.config.policy):
            return registry
        for machine in self._by_name.values():
            for vcpus in sorted(set(self.config.vcpus)):
                try:
                    trainable = len(registry.placements(machine, vcpus)) >= 2
                except ValueError:  # a size this shape cannot host
                    continue
                if trainable:  # the model needs an input pair
                    registry.model(machine, vcpus)
        return registry

    def _make_client(self, shard: int):
        """Build (or rebuild, on recovery) one shard's client, re-wrapped
        with its fault schedule so injected faults survive respawns."""
        if self.config.workers == "process":
            client = ProcessShardClient(
                shard, self.config, timeout_s=self.config.request_timeout_s
            )
        else:
            client = InlineShardClient(
                shard, self.config, machines=self._shard_machines[shard]
            )
        if self._fault_schedules is not None:
            client = FaultInjectingClient(
                client, self._fault_schedules[shard]
            )
        return client

    def _initial_summary(self, shard: int) -> ShardSummary:
        """The router's view of a freshly built (or respawned-empty)
        shard.  In admission mode it carries the shard's empty-fleet
        capacity vector, matching what the worker's own tracker reports
        before any placement."""
        machines = self._shard_machines[shard]
        capacity = (
            initial_capacity(machines, self.config.vcpus)
            if self.config.admission
            else None
        )
        return ShardSummary.initial(shard, machines, capacity=capacity)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def __enter__(self) -> "SchedulerService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        for client in self.clients:
            client.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _needed_nodes(self, name: str, vcpus: int) -> int | None:
        """Optimistic block-size estimate for feasibility ranking: the
        minimal balanced shape.  The ML policy may need a bigger block
        (important placements only) — that optimism is exactly what the
        retry path absorbs, so the router never consults a model."""
        key = (name, vcpus)
        if key not in self._needed:
            try:
                self._needed[key] = minimal_shape(
                    self._by_name[name], vcpus
                )[0]
            except ValueError:
                self._needed[key] = None
        return self._needed[key]

    def _feasible_shards(self, vcpus: int) -> List[bool]:
        """Per shard: does its summary show a big-enough free block for
        ``vcpus`` on some hostable shape?  A function of the summaries
        alone, so one routing loop asks once per distinct ``vcpus``."""
        return [
            any(
                (needed := self._needed_nodes(name, vcpus)) is not None
                and entry["largest_free_block"] >= needed
                for name, entry in summary.shapes.items()
            )
            for summary in self.summaries
        ]

    def _rank_shards(
        self,
        vcpus: int,
        debits: Sequence[int],
        exclude: frozenset = frozenset(),
        feasible: Sequence[bool] | None = None,
    ) -> List[int]:
        """Shard ids best-first for a request of ``vcpus``.

        Shards whose summary shows a big-enough free block on some
        hostable shape rank first, by descending (free nodes - in-window
        debits); shards that *look* infeasible or full still rank (last)
        rather than being dropped — the summary may be stale, and the
        final say belongs to the shard itself.  ``feasible`` is
        :meth:`_feasible_shards` for ``vcpus``, when the caller already
        holds it for the current summaries.
        """
        if feasible is None:
            feasible = self._feasible_shards(vcpus)
        ranked = []
        for summary in self.summaries:
            shard_id = summary.shard_id
            if shard_id in exclude:
                continue
            free = summary.free_nodes_total - debits[shard_id]
            ranked.append((not feasible[shard_id], -free, shard_id))
        ranked.sort()
        return [shard_id for _, _, shard_id in ranked]

    def _min_debit(self, vcpus: int) -> int:
        """Nodes to debit from a shard's cached free total when a request
        is routed to it within the current window."""
        if vcpus not in self._min_debits:
            costs = [
                needed
                for name in self._by_name
                if (needed := self._needed_nodes(name, vcpus)) is not None
            ]
            self._min_debits[vcpus] = min(costs, default=0)
        return self._min_debits[vcpus]

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------

    def _from_wire(
        self,
        shard: int,
        response: Dict,
        requests: Sequence[PlacementRequest],
    ) -> List[GradedDecision]:
        """Decode a window reply: one graded row per request sent, in
        order, each re-attached to the request this front end holds
        (the reply does not echo it) and with its shard-local host id
        translated to the global fleet id."""
        rows = response["graded"]
        if len(rows) != len(requests):
            raise ShardError(
                shard,
                f"reply grades {len(rows)} request(s), "
                f"{len(requests)} were sent",
            )
        entries = []
        for row, request in zip(rows, requests):
            if row[0] != request.request_id:
                raise ShardError(
                    shard,
                    f"reply row is for request {row[0]}, expected "
                    f"{request.request_id} at this position",
                )
            entry = decode_graded(row, request, self._by_name)
            if entry.decision.host_id is not None:
                entry.decision.host_id = (
                    entry.decision.host_id * self.config.shards + shard
                )
            entries.append(entry)
        return entries

    def _update_summary(self, shard: int, response: Dict) -> None:
        self.summaries[shard] = decode_summary(response["summary"], shard)

    def _send(self, shard: int, message: Dict) -> Tuple[Dict, float]:
        """One worker round-trip; returns (response, seconds), the
        departures ``message`` carried settled either way.

        With the supervisor off this is the plain request path — no
        sequence numbers, no journaling, nothing extra on the wire.
        """
        if self.supervisor is None:
            start = time.perf_counter()
            response = self.clients[shard].request(message)
            elapsed = time.perf_counter() - start
            self.stats.shard_service_seconds += elapsed
            self._update_summary(shard, response)
        else:
            try:
                response, elapsed = self._send_supervised(shard, message)
            except ShardDownError:
                self._settle_departures(shard, message, delivered=False)
                raise
        self._settle_departures(shard, message, delivered=True)
        return response, elapsed

    def _tracked_request(self, shard: int, wire_message: Dict) -> Dict:
        """One supervised round trip, accounted on the supervisor's
        in-flight ledger for its duration."""
        supervisor = self.supervisor
        timeout = self.config.request_timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        supervisor.track_send(shard, deadline)
        try:
            return self.clients[shard].request(
                wire_message, timeout_s=timeout
            )
        finally:
            supervisor.settle_send(shard)

    def _send_supervised(
        self, shard: int, message: Dict
    ) -> Tuple[Dict, float]:
        """One supervised round-trip: journal first (state-mutating ops),
        then one attempt; failures run the shared
        :meth:`_resolve_supervised` tail (bounded timeout retries with
        seeded backoff, then either an immediate respawn-and-replay or a
        deferred-recovery handoff).

        Raises :class:`~repro.scheduler.supervisor.ShardDownError` when
        the shard is (or just went) DOWN with recovery deferred — the
        caller fails the work over to a surviving shard; the journal
        entry has been rolled back so the eventual replay cannot
        double-apply it.
        """
        supervisor = self.supervisor
        start = time.perf_counter()
        if supervisor.health[shard] == HEALTH_DOWN:
            raise ShardDownError(shard, "down (recovery deferred)")
        entry = None
        wire_message = message
        if message["op"] in MUTATING_OPS:
            entry = supervisor.journal(shard, message)
            wire_message = entry.message
        try:
            response = self._tracked_request(shard, wire_message)
        except (ShardTimeoutError, ShardCrashError) as error:
            return self._resolve_supervised(
                shard, message, wire_message, entry, error, start
            )
        supervisor.mark_up(shard)
        self._update_summary(shard, response)
        elapsed = time.perf_counter() - start
        self.stats.shard_service_seconds += elapsed
        return response, elapsed

    def _resolve_supervised(
        self,
        shard: int,
        message: Dict,
        wire_message: Dict,
        entry,
        error: ShardError,
        start: float,
    ) -> Tuple[Dict, float]:
        """The shared failure tail of one supervised send: bounded
        timeout retries with seeded backoff, then either an immediate
        respawn-and-replay or a deferred-recovery handoff.  ``error`` is
        the first attempt's failure — the sequential path enters from
        :meth:`_send_supervised`, the overlapped dispatcher after its
        gather, always in shard order, so counters, backoff draws, and
        journal state match the sequential execution exactly.
        """
        supervisor = self.supervisor
        attempt = 0
        while True:
            if isinstance(error, ShardCrashError):
                self.stats.crashes += 1
                break
            self.stats.timeouts += 1
            supervisor.mark_suspect(shard)
            if attempt >= supervisor.retries:
                break
            attempt += 1
            self.stats.backoff_retries += 1
            self._sleep(supervisor.backoff_seconds(attempt))
            try:
                response = self._tracked_request(shard, wire_message)
            except (ShardTimeoutError, ShardCrashError) as caught:
                error = caught
                continue
            supervisor.mark_up(shard)
            self._update_summary(shard, response)
            elapsed = time.perf_counter() - start
            self.stats.shard_service_seconds += elapsed
            return response, elapsed
        # The shard is no longer trustworthy.  The only consistent
        # futures are (a) rebuild it now and replay the journal, or
        # (b) roll the in-flight work back and go degraded.
        self.clients[shard].kill()
        supervisor.mark_down(shard, self.stats.rounds)
        if (
            entry is not None
            and supervisor.recovery_rounds > 0
            and self._has_other_up_shard(shard)
        ):
            # Deferred recovery: only mutating work can fail over; a
            # read (summary/report) is needed now, so fall through to
            # the immediate rebuild below.
            supervisor.rollback(shard, entry)
            raise ShardDownError(shard, f"went down: {error}") from error
        last_response = self._recover_shard(shard)
        if entry is not None:
            # The failed message was journaled before the send, so the
            # replay just applied it: the final replay response is this
            # message's response.
            elapsed = time.perf_counter() - start
            self.stats.shard_service_seconds += elapsed
            return last_response, elapsed
        # Read-only message (summary/report): resend to the fresh worker.
        return self._send_supervised(shard, message)

    def _recover_shard(self, shard: int) -> Dict | None:
        """Rebuild a dead shard: respawn the worker from the serialized
        config (its registry is served from the artifact store the front
        end filled at start-up, so nothing is re-trained), reset the
        front-end's cached :class:`ShardSummary` (the fresh worker is
        empty until the replay finishes), and replay the journal in
        sequence order to reconstruct the shard's exact pre-crash state.
        Pending departures in ``self._outbox[shard]`` were never
        journaled and survive untouched — they ride after the
        shard is back UP.  Replay is idempotent (worker-side sequence
        dedup), and a fault firing mid-replay just restarts the rebuild:
        fault actions fire at most once, so the loop converges.  Returns
        the last replay response (None for an empty journal).
        """
        supervisor = self.supervisor
        while True:
            supervisor.mark_recovering(shard)
            self.clients[shard].kill()
            self.clients[shard] = self._make_client(shard)
            self.summaries[shard] = self._initial_summary(shard)
            replayed: List[Dict] = []
            try:
                # request_many pipelines the replay on the process
                # transport (and stays sequential under fault injection,
                # keeping message indices coupled to deliveries); the
                # callback counts exactly the replies that arrived, so a
                # mid-replay fault leaves the same counter trail as the
                # sequential per-entry loop did.
                self.clients[shard].request_many(
                    [entry.message for entry in supervisor.journals[shard]],
                    timeout_s=self.config.request_timeout_s,
                    on_response=replayed.append,
                )
            except ShardTimeoutError:
                self.stats.replayed_messages += len(replayed)
                self.stats.timeouts += 1
                continue
            except ShardCrashError:
                self.stats.replayed_messages += len(replayed)
                self.stats.crashes += 1
                continue
            self.stats.replayed_messages += len(replayed)
            last_response = replayed[-1] if replayed else None
            break
        self.stats.journal_replays += 1
        supervisor.mark_up(shard)
        if last_response is not None:
            self._update_summary(shard, last_response)
        return last_response

    def _recover_all(self) -> None:
        """Bring every DOWN shard back regardless of its recovery round —
        report merging needs all shards live."""
        if self.supervisor is None:
            return
        for shard in sorted(self.supervisor.down_shards()):
            self._recover_shard(shard)

    def _down_shards(self) -> frozenset:
        if self.supervisor is None:
            return frozenset()
        return self.supervisor.down_shards()

    def _has_other_up_shard(self, shard: int) -> bool:
        down = self.supervisor.down_shards()
        return any(
            other != shard and other not in down
            for other in range(self.config.shards)
        )

    def _stage_departures(self, shard: int) -> List[List]:
        """Take the shard's pending departures off its outbox, to ride on
        the message about to be built (empty: nothing to carry)."""
        staged, self._outbox[shard] = self._outbox[shard], []
        return staged

    def _settle_departures(
        self, shard: int, message: Dict, delivered: bool
    ) -> None:
        """Close out the departures ``message`` carried to ``shard``:
        count the batch once delivered.  When the owner went down with
        recovery deferred instead, the journal entry was rolled back and
        nothing was applied — the pairs go back to the front of the
        outbox and ride again after the shard recovers."""
        staged = message.get(
            "events" if message["op"] == "depart" else "departures"
        )
        if not staged:
            return
        if delivered:
            self.stats.departure_batches += 1
        else:
            self._outbox[shard] = staged + self._outbox[shard]

    def _flush_outboxes(self) -> None:
        """End of stream: deliver what no window is left to carry, one
        ``depart`` message per shard with pending departures."""
        sends = [
            (shard, {"op": "depart", "events": events})
            for shard in range(self.config.shards)
            if (events := self._stage_departures(shard))
        ]
        if sends and self.config.overlap:
            self._dispatch(sends)
            return
        for shard, message in sends:
            try:
                self._send(shard, message)
            except ShardDownError:
                pass  # re-queued by _send

    # ------------------------------------------------------------------
    # Overlapped dispatch
    # ------------------------------------------------------------------

    def _await_replies(
        self, shards: Sequence[int], ready_at: Dict[int, float]
    ) -> Dict[int, float]:
        """Block until every listed shard's client either has a readable
        reply or has passed its reply deadline; stamps the moment each
        became ready into ``ready_at`` (shards already stamped are
        skipped).  Crashed pipes and expired deadlines count as ready —
        the subsequent ``recv()`` raises the crash or timeout, exactly
        where the sequential path would have seen it."""
        waiting = [shard for shard in shards if shard not in ready_at]
        while waiting:
            connections = []
            still: List[int] = []
            deadlines: List[float] = []
            for shard in waiting:
                client = self.clients[shard]
                if client.reply_ready():
                    ready_at[shard] = time.perf_counter()
                    continue
                connection = client.gather_connection()
                if connection is None:
                    # Nothing to wait on and nothing buffered (inline
                    # worker, wedged fault): recv() resolves it now.
                    ready_at[shard] = time.perf_counter()
                    continue
                deadline = client.recv_deadline()
                if deadline is not None and time.monotonic() >= deadline:
                    ready_at[shard] = time.perf_counter()
                    continue
                still.append(shard)
                connections.append(connection)
                if deadline is not None:
                    deadlines.append(deadline)
            waiting = still
            if not waiting:
                break
            timeout = None
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            mp_connection.wait(connections, timeout)
        return ready_at

    def _dispatch(
        self, sends: Sequence[Tuple[int, Dict]]
    ) -> Dict[int, _DispatchOutcome]:
        """Overlapped multi-shard round trip: fire every message, gather
        the replies, resolve them in shard order.

        ``sends`` holds (shard, message) pairs in ascending shard order,
        at most one per shard.  Returns one :class:`_DispatchOutcome`
        per shard — outcomes with ``down`` set carry the
        :class:`ShardDownError` the sequential loop would have raised
        for that shard.  Like :meth:`_send`, settles the departures each
        message carried before anyone can route to its shard again.
        """
        if self.supervisor is not None:
            outcomes = self._dispatch_supervised(sends)
        else:
            outcomes = self._dispatch_unsupervised(sends)
        for shard, message in sends:
            self._settle_departures(
                shard, message, outcomes[shard].down is None
            )
        return outcomes

    def _dispatch_unsupervised(
        self, sends: Sequence[Tuple[int, Dict]]
    ) -> Dict[int, _DispatchOutcome]:
        outcomes: Dict[int, _DispatchOutcome] = {}
        starts: Dict[int, float] = {}
        ready_at: Dict[int, float] = {}
        for shard, message in sends:
            starts[shard] = time.perf_counter()
            self.clients[shard].send(message)
            if self.clients[shard].gather_connection() is None:
                # Inline transport: the work happened inside send(), so
                # the shard's service time is the send duration alone.
                ready_at[shard] = time.perf_counter()
        self._await_replies([shard for shard, _ in sends], ready_at)
        for shard, _ in sends:
            response = self.clients[shard].recv()
            elapsed = ready_at.get(shard, time.perf_counter()) - starts[shard]
            self.stats.shard_service_seconds += elapsed
            self._update_summary(shard, response)
            outcomes[shard] = _DispatchOutcome(
                response=response, elapsed=elapsed
            )
        return outcomes

    def _dispatch_supervised(
        self, sends: Sequence[Tuple[int, Dict]]
    ) -> Dict[int, _DispatchOutcome]:
        """The supervised overlap: journal *every* mutating message
        before anything is fired (the write-ahead ordering is
        phase-wide, and per-shard journals keep per-shard sequence
        numbers identical to sequential dispatch), fire all sends with
        per-shard deadlines on the supervisor's in-flight ledger, gather
        once, then resolve in shard order — failures run the same
        :meth:`_resolve_supervised` tail, sequentially, so recovery,
        counters, and backoff draws match the sequential execution."""
        supervisor = self.supervisor
        outcomes: Dict[int, _DispatchOutcome] = {}
        entries: Dict[int, object] = {}
        wires: Dict[int, Dict] = {}
        starts: Dict[int, float] = {}
        ready_at: Dict[int, float] = {}
        send_errors: Dict[int, ShardError] = {}
        active: List[int] = []
        for shard, message in sends:
            if supervisor.health[shard] == HEALTH_DOWN:
                outcomes[shard] = _DispatchOutcome(
                    down=ShardDownError(shard, "down (recovery deferred)")
                )
                continue
            entry = None
            wire_message = message
            if message["op"] in MUTATING_OPS:
                entry = supervisor.journal(shard, message)
                wire_message = entry.message
            entries[shard] = entry
            wires[shard] = wire_message
            active.append(shard)
        fired: List[int] = []
        for shard in active:
            client = self.clients[shard]
            starts[shard] = time.perf_counter()
            try:
                client.send(
                    wires[shard], timeout_s=self.config.request_timeout_s
                )
            except ShardCrashError as error:
                send_errors[shard] = error
                continue
            supervisor.track_send(shard, client.recv_deadline())
            fired.append(shard)
            if client.gather_connection() is None:
                ready_at[shard] = time.perf_counter()
        self._await_replies(fired, ready_at)
        for shard, message in sends:
            if shard in outcomes:  # DOWN before this dispatch started
                continue
            start = starts[shard]
            error = send_errors.get(shard)
            response = None
            if error is None:
                supervisor.settle_send(shard)
                try:
                    response = self.clients[shard].recv()
                except (ShardTimeoutError, ShardCrashError) as caught:
                    error = caught
            if error is None:
                supervisor.mark_up(shard)
                self._update_summary(shard, response)
                elapsed = ready_at.get(shard, time.perf_counter()) - start
                self.stats.shard_service_seconds += elapsed
                outcomes[shard] = _DispatchOutcome(
                    response=response, elapsed=elapsed
                )
                continue
            try:
                response, elapsed = self._resolve_supervised(
                    shard, message, wires[shard], entries[shard], error, start
                )
            except ShardDownError as down:
                outcomes[shard] = _DispatchOutcome(faulted=True, down=down)
                continue
            outcomes[shard] = _DispatchOutcome(
                response=response, elapsed=elapsed, faulted=True
            )
        return outcomes

    # ------------------------------------------------------------------
    # Placement rounds
    # ------------------------------------------------------------------

    def _place_window(
        self, items: Sequence[Tuple[PlacementRequest, float]], op: str
    ) -> List[GradedDecision]:
        """Route one window of requests, batch per shard, retry rejects.

        ``items`` are (request, event time) pairs in arrival order;
        ``op`` is ``"arrive"`` (lifecycle) or ``"decide"`` (one-shot).
        Returns one graded decision per item, in order.
        """
        wall_start = time.perf_counter()
        self.stats.rounds += 1
        self.stats.routed += len(items)
        down = self._begin_round()
        debits = [0] * self.config.shards
        assigned: List[int] = []
        # No reply arrives inside this loop, so the summaries — and what
        # they say is feasible for a size — hold still until it ends.
        feasible: Dict[int, List[bool]] = {}
        for request, _ in items:
            vcpus = request.vcpus
            if vcpus not in feasible:
                feasible[vcpus] = self._feasible_shards(vcpus)
            shard = self._route(vcpus, debits, down, feasible[vcpus])
            assigned.append(shard)
            debits[shard] += self._min_debit(vcpus)

        groups: Dict[int, List[int]] = {}
        for position, shard in enumerate(assigned):
            groups.setdefault(shard, []).append(position)
        results: List[GradedDecision | None] = [None] * len(items)
        finalized: set = set()
        if self.config.overlap:
            self._dispatch_window(
                items, op, groups, results, assigned, finalized
            )
        else:
            self._dispatch_window_sequential(
                items, op, groups, results, assigned, finalized
            )

        finished: List[GradedDecision] = []
        for position, (request, event_time) in enumerate(items):
            entry = results[position]
            shard = assigned[position]
            if position not in finalized:
                entry, shard = self._retry_if_rejected(
                    entry, shard, request, event_time, op
                )
            self._owner[request.request_id] = shard
            self.stats.shard_requests[shard] += 1
            if entry.decision.placed:
                self.stats.shard_placed[shard] += 1
            self.graded.append(entry)
            finished.append(entry)
        self.stats.window_wall_seconds += time.perf_counter() - wall_start
        return finished

    def _dispatch_window_sequential(
        self,
        items: Sequence[Tuple[PlacementRequest, float]],
        op: str,
        groups: Dict[int, List[int]],
        results: List[GradedDecision | None],
        assigned: List[int],
        finalized: set,
    ) -> None:
        """The ``--no-overlap`` baseline: one blocking round trip per
        shard, in shard order."""
        for shard in sorted(groups):
            positions = groups[shard]
            message = self._window_message(
                op, shard, [items[position] for position in positions]
            )
            faults_before = self.stats.crashes + self.stats.timeouts
            try:
                response, elapsed = self._send(shard, message)
            except ShardDownError:
                # The shard died mid-window with recovery deferred: fail
                # its slice over to surviving shards, one request at a
                # time, through the normal routing machinery.
                self.stats.failovers += len(positions)
                self.stats.degraded_arrivals += len(positions)
                for position in positions:
                    request, event_time = items[position]
                    results[position], assigned[position] = self._failover(
                        request, event_time, op
                    )
                    finalized.add(position)
                continue
            if self.stats.crashes + self.stats.timeouts != faults_before:
                # Placed correctly, but only through retries or an
                # inline respawn-and-replay: these arrivals rode through
                # a fault window.
                self.stats.degraded_arrivals += len(positions)
            self._collect(shard, response, elapsed, items, positions, results)

    def _dispatch_window(
        self,
        items: Sequence[Tuple[PlacementRequest, float]],
        op: str,
        groups: Dict[int, List[int]],
        results: List[GradedDecision | None],
        assigned: List[int],
        finalized: set,
    ) -> None:
        """The overlapped round: one dispatch — fire every routed shard's
        window message (its pending departures inside it) and gather.
        A shard with no slice this round gets no message: delivering an
        idle shard's departures would refresh its summary earlier than
        sequential dispatch does and break bit-for-bit routing
        equivalence."""
        shards = sorted(groups)
        self.stats.overlapped_rounds += 1
        sends = [
            (
                shard,
                self._window_message(
                    op, shard, [items[position] for position in groups[shard]]
                ),
            )
            for shard in shards
        ]
        outcomes = self._dispatch(sends)
        for shard in shards:
            positions = groups[shard]
            outcome = outcomes[shard]
            if outcome.down is not None:
                self.stats.failovers += len(positions)
                self.stats.degraded_arrivals += len(positions)
                for position in positions:
                    request, event_time = items[position]
                    results[position], assigned[position] = self._failover(
                        request, event_time, op
                    )
                    finalized.add(position)
                continue
            if outcome.faulted:
                self.stats.degraded_arrivals += len(positions)
            self._collect(
                shard,
                outcome.response,
                outcome.elapsed,
                items,
                positions,
                results,
            )

    def _collect(
        self,
        shard: int,
        response: Dict,
        elapsed: float,
        items: Sequence[Tuple[PlacementRequest, float]],
        positions: Sequence[int],
        results: List[GradedDecision | None],
    ) -> None:
        """File one shard's window reply under its items' positions, the
        round trip's time shared equally among them."""
        entries = self._from_wire(
            shard, response, [items[position][0] for position in positions]
        )
        per_request = elapsed / len(positions)
        for position, entry in zip(positions, entries):
            entry.decision_seconds = per_request
            results[position] = entry

    def _begin_round(self) -> frozenset:
        """Recover shards whose deferred-recovery window has elapsed;
        returns the shards still DOWN (excluded from routing this
        round).  A degraded round is one that starts with any shard
        still DOWN."""
        if self.supervisor is None:
            return frozenset()
        for shard in sorted(self.supervisor.down_shards()):
            if self.supervisor.due_for_recovery(shard, self.stats.rounds):
                self._recover_shard(shard)
        down = self.supervisor.down_shards()
        if down:
            self.stats.degraded_windows += 1
        return down

    def _route(
        self,
        vcpus: int,
        debits: Sequence[int],
        exclude: frozenset,
        feasible: Sequence[bool],
    ) -> int:
        """Best shard for a request, skipping DOWN shards; if *every*
        shard is DOWN, force-recover the lowest-numbered one — the
        service never refuses to route (and, the recovery having
        replaced a summary, ranks afresh)."""
        ranked = self._rank_shards(vcpus, debits, exclude, feasible)
        if ranked:
            return ranked[0]
        self._recover_shard(sorted(exclude)[0])
        return self._rank_shards(
            vcpus, debits, exclude=self._down_shards()
        )[0]

    def _window_message(
        self,
        op: str,
        shard: int,
        items: Sequence[Tuple[PlacementRequest, float]],
    ) -> Dict:
        """One window slice for ``shard``; ``arrive`` and ``decide``
        carry the same arrival rows under their own key.  The shard's
        pending departures are staged onto the message (no key when
        there are none), so whoever sends it settles them."""
        rows = [
            encode_arrival(request, event_time)
            for request, event_time in items
        ]
        if op == "decide":
            message = {"op": "decide", "requests": rows}
        else:
            message = {"op": "arrive", "events": rows}
        if self._outbox[shard]:
            message["departures"] = self._stage_departures(shard)
        return message

    # ------------------------------------------------------------------
    # Admission control (repro serve --admission)
    # ------------------------------------------------------------------

    def _shard_cannot_place(self, shard: int, vcpus: int) -> bool:
        """True only when shard ``shard`` is *guaranteed* to reject a
        ``vcpus`` request right now.

        The cached summary is exact at call time (single-threaded front
        end, every response refreshes it) *except* for this shard's
        pending outbox departures, which would free capacity — so a
        non-empty outbox disables the guarantee.  ``count == 0`` alone
        is still not sufficient while the rebalancer is enabled: its
        consolidation migrations move containers between same-shape
        hosts, so it can recover a reject whenever some shape's
        shard-wide free total covers the minimal block.  Placements
        only consume capacity and migrations preserve per-shape free
        totals, so once true the predicate stays true for the rest of
        the routing window.
        """
        if self._outbox[shard]:
            return False
        vector = self.summaries[shard].capacity
        if vector is None:
            return False
        count = vector.count(vcpus)
        if count is None or count > 0:
            return False
        if self.config.rebalance_enabled:
            for name, entry in self.summaries[shard].shapes.items():
                needed = self._needed_nodes(name, vcpus)
                if needed is not None and entry["free_nodes"] >= needed:
                    return False
        return True

    def _fleet_saturated(self, vcpus: int) -> bool:
        """Every live shard provably rejects ``vcpus`` right now — the
        admission controller's saturation gate.  Never true with zero
        live shards (routing force-recovers; the front end does not
        screen blind)."""
        down = self._down_shards()
        live = [
            shard
            for shard in range(self.config.shards)
            if shard not in down
        ]
        if not live:
            return False
        return all(
            self._shard_cannot_place(shard, vcpus) for shard in live
        )

    def _capacity_fraction(self) -> float | None:
        """Live capacity as a fraction of the empty fleet's, minimized
        over tracked classes — the brown-out watermark signal.  DOWN
        shards contribute nothing (their capacity is unreachable)."""
        if not self._initial_capacity_total:
            return None
        down = self._down_shards()
        fractions: List[float] = []
        for vcpus, total in self._initial_capacity_total.items():
            if total <= 0:
                continue
            live = 0
            for summary in self.summaries:
                if summary.shard_id in down or summary.capacity is None:
                    continue
                count = summary.capacity.count(vcpus)
                if count is not None:
                    live += count
            fractions.append(live / total)
        if not fractions:
            return None
        return min(fractions)

    def _admission_entry(
        self, request: PlacementRequest, reason: str
    ) -> GradedDecision:
        """A front-end reject: same shape as a shard-side reject, with a
        typed ``admission:`` reason and zero decision cost (no round
        trip was spent)."""
        return GradedDecision(
            decision=FleetDecision(request, reject_reason=reason)
        )

    def _emit_sheds(self, sheds) -> None:
        for request, _, reason in sheds:
            self.graded.append(self._admission_entry(request, reason))

    def _screen_arrival(
        self, request: PlacementRequest, event_time: float
    ) -> List[Tuple[PlacementRequest, float]]:
        """Run one arrival through the admission controller.

        Returns the (request, time) items to feed the routing window —
        holds drained by a brown-out exit first (they arrived earlier),
        then the arrival itself when admitted.  Rejects and sheds are
        appended to ``self.graded`` here; held arrivals produce nothing
        until they drain, expire, or the stream ends.
        """
        controller = self.admission
        admitted: List[Tuple[PlacementRequest, float]] = []
        transition = controller.observe(
            len(self._down_shards()), self._capacity_fraction()
        )
        if transition == "exited":
            admitted.extend(controller.drain())
        if controller.shed_policy == "deadline":
            self._emit_sheds(controller.expire(event_time))
        decision, sheds = controller.screen(
            request,
            event_time,
            saturated=self._fleet_saturated(request.vcpus),
        )
        self._emit_sheds(sheds)
        if decision.outcome == "admit":
            admitted.append((request, event_time))
        elif decision.outcome == "reject":
            self.graded.append(
                self._admission_entry(request, decision.reason)
            )
        return admitted

    def _retry_if_rejected(
        self,
        entry: GradedDecision,
        shard: int,
        request: PlacementRequest,
        event_time: float,
        op: str,
    ) -> Tuple[GradedDecision, int]:
        """The optimistic-concurrency arm: a rejected request is retried
        on the next-best untried shard until placed or exhausted.  The
        final decision's reject reason is ``capacity`` if *any* shard
        rejected for capacity (the fleet-wide truth a monolithic
        scheduler would have reported)."""
        if entry.decision.placed:
            return entry, shard
        tried = {shard}
        saw_capacity = entry.decision.reject_reason == "capacity"
        accumulated = entry.decision_seconds
        while not entry.decision.placed:
            ranked = self._rank_shards(
                request.vcpus,
                [0] * self.config.shards,
                exclude=frozenset(tried) | self._down_shards(),
            )
            if not ranked:
                break  # every live shard has had a look
            next_shard = ranked[0]
            if (
                self.admission is not None
                and saw_capacity
                and self._shard_cannot_place(next_shard, request.vcpus)
            ):
                # The summary proves this fan-out would come back as the
                # same capacity reject (and with ``saw_capacity`` already
                # set, the final reject reason cannot change either) —
                # skip the round trip but keep the bookkeeping identical:
                # the shard still counts as tried and still becomes the
                # owner of record if it is the last one ranked.
                self.stats.retries_short_circuited += 1
                tried.add(next_shard)
                shard = next_shard
                continue
            self.stats.retries += 1
            message = self._window_message(
                op, next_shard, [(request, event_time)]
            )
            try:
                response, elapsed = self._send(next_shard, message)
            except ShardDownError:
                # The retry target died mid-retry: skip it and keep
                # looking at the remaining live shards.
                self.stats.degraded_arrivals += 1
                tried.add(next_shard)
                continue
            accumulated += elapsed
            [entry] = self._from_wire(next_shard, response, [request])
            entry.decision_seconds = accumulated
            shard = next_shard
            tried.add(next_shard)
            if entry.decision.placed:
                self.stats.recovered_by_retry += 1
                return entry, shard
            saw_capacity = saw_capacity or (
                entry.decision.reject_reason == "capacity"
            )
        self.stats.exhausted += 1
        if saw_capacity:
            entry.decision.reject_reason = "capacity"
        return entry, shard

    def _failover(
        self,
        request: PlacementRequest,
        event_time: float,
        op: str,
    ) -> Tuple[GradedDecision, int]:
        """Place one arrival whose routed shard went down mid-window:
        re-route to the best surviving shard (force-recovering one if
        every shard is down) and run the normal reject-retry arm from
        there.  Terminates because every loop iteration either returns,
        downs a shard (finite), or recovers one — and fault actions fire
        at most once, so a recovered shard cannot crash-loop."""
        while True:
            exclude = self._down_shards()
            ranked = self._rank_shards(
                request.vcpus,
                [0] * self.config.shards,
                exclude=exclude,
            )
            if not ranked:
                self._recover_shard(sorted(exclude)[0])
                continue
            shard = ranked[0]
            message = self._window_message(op, shard, [(request, event_time)])
            try:
                response, elapsed = self._send(shard, message)
            except ShardDownError:
                continue  # that one died too; re-rank the survivors
            [entry] = self._from_wire(shard, response, [request])
            entry.decision_seconds = elapsed
            return self._retry_if_rejected(
                entry, shard, request, event_time, op
            )

    # ------------------------------------------------------------------
    # Drivers
    # ------------------------------------------------------------------

    def serve(
        self,
        requests: Sequence[PlacementRequest] | None = None,
        *,
        max_events: int | None = None,
    ) -> FleetReport:
        """Ingest a churn event stream and return the merged report.

        Arrivals are buffered into windows of ``config.window``
        consecutive arrivals.  Departures never cost a round trip of
        their own: each is deferred into its owning shard's outbox and
        delivered inside that shard's next window message, applied
        before the window is decided, so every shard still sees its own
        events in stream order; what is left when the stream ends goes
        out as one ``depart`` message per shard.  A departure falling
        *inside* a buffered window is held until the window flushes —
        window semantics already trade strict time order within the
        window for batching, and with ``window=1`` the buffer is empty
        when every departure arrives, which keeps the single-shard
        reference stream bit-identical to the monolithic engine.
        ``max_events`` bounds ingestion for smoke runs.
        """
        if requests is None:
            requests = self.config.build_stream()
        requests = list(requests)
        if max_events is None:
            max_events = self.config.max_events
        start = time.perf_counter()
        pending: List[Tuple[PlacementRequest, float]] = []
        held: List[Tuple[int, float]] = []
        ingested = 0
        arrivals = 0
        controller = self.admission
        for event in events_from_requests(requests).drain():
            if max_events is not None and ingested >= max_events:
                break
            ingested += 1
            if event.kind is EventKind.ARRIVAL:
                arrivals += 1
                if controller is None:
                    admitted = [(event.request, event.time)]
                else:
                    admitted = self._screen_arrival(
                        event.request, event.time
                    )
                for item in admitted:
                    pending.append(item)
                    if len(pending) >= self.config.window:
                        self._place_window(pending, "arrive")
                        pending = []
                        self._defer_departures(held)
                        held = []
            elif controller is not None and controller.is_held(
                event.request.request_id
            ):
                # The departing request is still waiting in the
                # brown-out queue: it leaves before it was ever placed,
                # so cancel the hold instead of routing a departure.
                shed = controller.cancel(event.request.request_id)
                if shed is not None:
                    self._emit_sheds([shed])
            elif pending:
                # Owner may be in the buffered window; resolve at flush.
                held.append((event.request.request_id, event.time))
            else:
                self._defer_departures(
                    [(event.request.request_id, event.time)]
                )
        if controller is not None:
            # Holds outliving the stream never exit brown-out: shed them.
            self._emit_sheds(controller.flush())
        if pending:
            self._place_window(pending, "arrive")
        self._defer_departures(held)
        self._flush_outboxes()
        elapsed = time.perf_counter() - start
        return self._merge_report(arrivals, elapsed, churn=True)

    def run(
        self, requests: Sequence[PlacementRequest] | None = None
    ) -> FleetReport:
        """One-shot mode: place a whole request stream batch by batch
        (the service-shaped :class:`~repro.scheduler.scheduler.FleetScheduler`)."""
        if requests is None:
            requests = self.config.build_stream()
        requests = list(requests)
        start = time.perf_counter()
        batch_size = self.config.effective_batch_size
        for begin in range(0, len(requests), batch_size):
            batch = requests[begin : begin + batch_size]
            items = [
                (request, request.arrival_time) for request in batch
            ]
            if self.admission is not None:
                # One-shot mode has no health/churn clock, so only the
                # feasibility and saturation gates apply (brown-out
                # never engages and nothing is ever held).
                kept: List[Tuple[PlacementRequest, float]] = []
                for request, event_time in items:
                    decision, _ = self.admission.screen(
                        request,
                        event_time,
                        saturated=self._fleet_saturated(request.vcpus),
                    )
                    if decision.outcome == "reject":
                        self.graded.append(
                            self._admission_entry(request, decision.reason)
                        )
                    else:
                        kept.append((request, event_time))
                items = kept
            if items:
                self._place_window(items, "decide")
        elapsed = time.perf_counter() - start
        return self._merge_report(len(requests), elapsed, churn=False)

    def _defer_departures(
        self, pairs: Sequence[Tuple[int, float]]
    ) -> None:
        """Queue departures on their owning shards' outboxes."""
        for request_id, event_time in pairs:
            shard = self._owner.pop(request_id, None)
            if shard is None:
                # Departure of a request whose arrival was never ingested
                # (max_events cut the stream mid-pair): nothing to free.
                continue
            self.stats.departures_routed += 1
            self._outbox[shard].append([request_id, event_time])

    # ------------------------------------------------------------------
    # Report merging
    # ------------------------------------------------------------------

    def _merge_report(
        self, n_requests: int, elapsed_seconds: float, *, churn: bool
    ) -> FleetReport:
        # Every shard must answer a report: bring DOWN shards back first
        # (the departures re-queued while they were down go out now).
        self._recover_all()
        self._flush_outboxes()
        reports = []
        if self.config.overlap:
            shards = range(self.config.shards)
            outcomes = self._dispatch(
                [(shard, {"op": "report"}) for shard in shards]
            )
            for shard in shards:
                outcome = outcomes[shard]
                if outcome.down is not None:
                    # Unreachable after _recover_all (reports are
                    # read-only, so even a fresh fault recovers
                    # immediately), but propagate like the sequential
                    # path would rather than merge a partial report.
                    raise outcome.down
                reports.append(outcome.response["report"])
        else:
            for shard in range(self.config.shards):
                response, _ = self._send(shard, {"op": "report"})
                reports.append(response["report"])

        def merged_cache(key: str, *own: CacheInfo) -> CacheInfo | None:
            infos = list(own) + [
                CacheInfo.from_dict(r[key])
                for r in reports
                if r[key] is not None
            ]
            if not infos:
                return None
            total = infos[0]
            for info in infos[1:]:
                total = total + info
            return total

        used = sum(s.used_threads for s in self.summaries)
        total = sum(s.total_threads for s in self.summaries)
        free = sum(s.free_nodes_total for s in self.summaries)
        nodes = sum(s.total_nodes for s in self.summaries)
        if self.stats.transport == "inline":
            # Arena and block-score accounting is process-wide: every
            # inline worker reports the same counters, so read them once
            # instead of summing n identical snapshots.
            from repro.core.blockscores import DEFAULT_BLOCK_SCORE_CACHE
            from repro.ml.arena import ARENA_STATS

            arena_forests = ARENA_STATS.forests_compiled
            arena_fused_calls = ARENA_STATS.fused_calls
            arena_lanes = ARENA_STATS.lanes_evaluated
            blockscore = DEFAULT_BLOCK_SCORE_CACHE.info()
        else:
            arena_forests = sum(r["arena_forests"] for r in reports)
            arena_fused_calls = sum(r["arena_fused_calls"] for r in reports)
            arena_lanes = sum(r["arena_lanes"] for r in reports)
            blockscore = merged_cache("blockscore_cache_info")

        merged_churn = None
        if churn:
            merged_churn = merge_churn_stats(
                [
                    self._localized_churn(r["churn"], shard)
                    for shard, r in enumerate(reports)
                ],
                arrivals=n_requests,
                initial=[
                    FragmentationSample(
                        time=0.0,
                        free_nodes_total=sum(
                            m.n_nodes for m in machines
                        ),
                        largest_free_block=max(
                            (m.n_nodes for m in machines), default=0
                        ),
                        active_containers=0,
                        fit_failures=0,
                    )
                    for machines in self._shard_machines
                ],
            )

        return FleetReport(
            policy=self.config.policy,
            n_hosts=self.config.hosts,
            n_requests=n_requests,
            decisions=self.graded,
            elapsed_seconds=elapsed_seconds,
            thread_utilization=(used / total) if total else 0.0,
            node_utilization=(1.0 - free / nodes) if nodes else 0.0,
            busiest_host_utilization=max(
                r["busiest_host_utilization"] for r in reports
            ),
            cache_info=merged_cache(
                "cache_info", self._registry.enumeration_info()
            ),
            enumeration_runs=self._registry.enumeration_runs()
            + sum(r["enumeration_runs"] for r in reports),
            predict_calls=sum(r["predict_calls"] for r in reports),
            predicted_rows=sum(r["predicted_rows"] for r in reports),
            ipc_cache_info=merged_cache("ipc_cache_info"),
            arena_forests=arena_forests,
            arena_fused_calls=arena_fused_calls,
            arena_lanes=arena_lanes,
            blockscore_cache_info=blockscore,
            indexed=self.config.indexed,
            churn=merged_churn,
            service=self.stats,
        )

    def _localized_churn(self, data: Dict, shard: int) -> ChurnStats:
        """Rebuild one shard's churn stats with migration host ids
        translated to global fleet ids."""
        stats = decode_churn(data)
        n = self.config.shards
        stats.migrations = [
            replace(
                m,
                source_host=m.source_host * n + shard,
                dest_host=m.dest_host * n + shard,
            )
            for m in stats.migrations
        ]
        return stats
