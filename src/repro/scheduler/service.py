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

Every message to a shard leaves through one dispatch: a routing round
builds one window message per routed shard (its slice of arrivals plus
the departures waiting in that shard's outbox), journals every one of
them first when supervised, fires them all, and gathers the replies via
``multiprocessing.connection.wait`` — processing them in shard order
regardless of arrival order, so routing, retries, summaries, and merged
reports are deterministic while the worker processes run their slices
concurrently.  A capacity retry and a failover are dispatches of one;
the end-of-stream flush and the reports go to every shard at once.
Failures surface at the gather and are resolved sequentially in shard
order through one retry/recovery tail (backoff resends of the same
message, respawn and journal replay), so fault handling stays
deterministic too; the departures a failed message carried go back to
the front of the outbox, because the journal entry was rolled back and
nothing was applied.  The standalone ``depart`` message remains for the
one case with no window to ride: the flush at the end of a stream,
before the reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Dict, List, Sequence, Tuple

from repro.core.memo import CacheInfo
from repro.core.serialize import Record, machines_by_name
from repro.scheduler.admission import AdmissionController, AdmissionStats
from repro.scheduler.capacity import Space, available, needed_nodes
from repro.scheduler.config import ScheduleConfig
from repro.scheduler.events import EventKind, events_from_requests
from repro.scheduler.lifecycle import (
    ChurnStats,
    FragmentationSample,
    FragmentationTimeline,
)
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
class ServiceStats(Record):
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
    #: Wall-clock seconds spent inside placement rounds: what req/s
    #: actually experiences.
    window_wall_seconds: float = 0.0
    #: Summed per-shard service time (send until the reply is ready).
    #: A round fires every shard's message before gathering, so it pays
    #: roughly the per-shard maximum on the wall clock — the gap between
    #: the two fields is the time the overlap won back.
    shard_service_seconds: float = 0.0
    #: Capacity-reject retry fan-outs skipped because the next shard's
    #: summary (its free-node histograms, exact at that point) already
    #: proved the request cannot be placed there.  Admission mode only —
    #: without admission every live shard gets a round trip.
    retries_short_circuited: int = 0
    #: Admission-controller counters (None when admission is off, which
    #: keeps the pre-admission wire payload byte-identical).
    admission: "AdmissionStats | None" = None

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
            f"  dispatch: {self.rounds} round(s), "
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

    def to_dict(self) -> Dict:
        data = super().to_dict()
        # Admission-era keys are emitted only when the controller ran:
        # the admission-off payload is the pre-admission format.
        if self.admission is None:
            data.pop("admission")
            if not self.retries_short_circuited:
                data.pop("retries_short_circuited")
        return data

    @classmethod
    def from_dict(cls, data: Dict, machines=None) -> "ServiceStats":
        values = dict(data)
        # Retired with the sequential dispatch mode: it always equalled
        # ``rounds``.  Older ``--emit-json`` payloads still carry it.
        values.pop("overlapped_rounds", None)
        return super().from_dict(values, machines)


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
            fragmentation_timeline=only.fragmentation_timeline.copy(),
        )
    merged = ChurnStats(
        arrivals=arrivals,
        departures=sum(s.departures for s in per_shard),
        rebalance_attempts=sum(s.rebalance_attempts for s in per_shard),
        rebalance_recovered=sum(s.rebalance_recovered for s in per_shard),
        fragmentation_timeline=FragmentationTimeline.merged(
            [s.fragmentation_timeline for s in per_shard], initial
        ),
    )
    merged.migrations = sorted(
        (m for s in per_shard for m in s.migrations),
        key=lambda m: (m.time, m.triggered_by, m.request_id),
    )
    return merged


@dataclass
class _DispatchOutcome:
    """Result of one shard's round trip inside a dispatch: either a
    response (with its service time and whether fault handling touched
    it), or the :class:`ShardDownError` of a shard that is (or just
    went) DOWN with recovery deferred — the caller fails its work over."""

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

    Every message to a shard goes through :meth:`_dispatch` — fire,
    gather, resolve in shard order — whether it is a routing round, a
    retry on one shard, or the reports; journal replay after a respawn
    is the one other path.

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
        #: (machine name, vcpus) -> minimal block nodes | None, memoized.
        self._needed: Dict[Tuple[str, int], int | None] = {}
        #: Per shard: the summary last worked out, and vcpus -> its
        #: :class:`Space` (see :meth:`_space`).
        self._spaces: List[Tuple[ShardSummary | None, Dict[int, Space]]] = [
            (None, {}) for _ in range(n)
        ]
        self.summaries: List[ShardSummary] = [
            ShardSummary.initial(shard, self._shard_machines[shard])
            for shard in range(n)
        ]
        #: Front-end admission controller (``--admission``); None keeps
        #: every code path identical to the pre-admission service.
        self.admission: AdmissionController | None = None
        #: Empty-fleet capacity totals per class — the denominator of
        #: the brown-out capacity fraction.
        self._empty_fleet_counts: Dict[int, int] = {}
        #: ``((down shards, *summaries), fraction)``: the brown-out
        #: fraction is a function of those alone, so arrivals between
        #: two replies or health changes reuse it.
        self._fraction: Tuple[tuple, float | None] = ((), None)
        if config.admission:
            self.admission = AdmissionController(
                machines=machines,
                classes=config.vcpus,
                queue_limit=config.queue_limit,
                shed_policy=config.shed_policy,
                deadline_budget_s=config.deadline_budget_s,
                brownout_watermark=config.brownout_watermark,
            )
            self._empty_fleet_counts = {
                vcpus: sum(self._space(shard, vcpus).count for shard in range(n))
                for vcpus in map(int, config.vcpus)
            }
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
        #: vcpus -> in-window routing debit, memoized beside ``_needed``.
        self._min_debits: Dict[int, int] = {}

    def _warm_artifact_store(self) -> ModelRegistry:
        """Train every ``(shape, vcpus)`` key this service routes, through
        a registry built like the shards' — once per process, whatever
        the shard count.  Heuristic policies never consult a model, so
        only a model-driven policy pays for this."""
        registry = self.config.build_registry()
        if not is_model_driven(self.config.policy):
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
            self._needed[key] = needed_nodes(self._by_name[name], vcpus)
        return self._needed[key]

    def _space(self, shard: int, vcpus: int) -> Space:
        """What shard ``shard``'s stored summary says about ``vcpus``
        (``scheduler/capacity.py``).  A summary is immutable, so each
        class is worked out once per summary, not once per arrival."""
        summary = self.summaries[shard]
        seen, spaces = self._spaces[shard]
        if seen is not summary:
            spaces = {}
            self._spaces[shard] = (summary, spaces)
        space = spaces.get(vcpus)
        if space is None:
            space = spaces[vcpus] = available(
                summary.shapes, lambda name: self._needed_nodes(name, vcpus)
            )
        return space

    def _feasible_shards(self, vcpus: int) -> List[bool]:
        """Per shard: does its summary show a big-enough free block for
        ``vcpus`` on some hostable shape, i.e. room for at least one
        more?  A function of the summaries alone, so one routing loop
        asks once per distinct ``vcpus``."""
        return [
            self._space(shard, vcpus).count > 0
            for shard in range(len(self.summaries))
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

    def _tracked_request(self, shard: int, wire_message: Dict) -> Dict:
        """Re-send an already journaled wire message (same ``seq``, no
        new journal entry) and wait for its reply, accounted on the
        supervisor's in-flight ledger for the duration."""
        client = self.clients[shard]
        client.send(wire_message, timeout_s=self.config.request_timeout_s)
        self.supervisor.track_send(shard, client.recv_deadline())
        try:
            return client.recv()
        finally:
            self.supervisor.settle_send(shard)

    def _resolve_supervised(
        self,
        shard: int,
        message: Dict,
        wire_message: Dict,
        entry,
        error: ShardError,
        start: float,
    ) -> _DispatchOutcome:
        """The failure tail of one supervised send: bounded timeout
        retries with seeded backoff, then either an immediate
        respawn-and-replay or a deferred-recovery handoff.  ``error`` is
        the first attempt's failure; :meth:`_dispatch` enters here after
        its gather, always in shard order, so counters, backoff draws,
        and journal state are a function of the traffic alone.
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
            return self._answered(
                shard, response, time.perf_counter() - start, faulted=True
            )
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
            return _DispatchOutcome(
                faulted=True,
                down=ShardDownError(shard, f"went down: {error}"),
            )
        last_response = self._recover_shard(shard)
        if entry is not None:
            # The failed message was journaled before the send, so the
            # replay just applied it: the final replay response is this
            # message's response.
            return self._answered(
                shard,
                last_response,
                time.perf_counter() - start,
                faulted=True,
            )
        # Read-only message (summary/report): resend to the fresh worker,
        # which is UP, so the resend cannot come back DOWN.
        return replace(self._send(shard, message), faulted=True)

    def _recover_shard(self, shard: int) -> Dict | None:
        """Rebuild a dead shard: respawn the worker from the config (its
        registry is served from the artifact store the front end filled
        at start-up, so nothing is re-trained), reset the
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
            self.summaries[shard] = ShardSummary.initial(
                shard, self._shard_machines[shard]
            )
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
        self._dispatch(
            [
                (shard, {"op": "depart", "events": events})
                for shard in range(self.config.shards)
                if (events := self._stage_departures(shard))
            ]
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _await_replies(
        self, shards: Sequence[int], ready_at: Dict[int, float]
    ) -> Dict[int, float]:
        """Block until every listed shard's client either has a readable
        reply or has passed its reply deadline; stamps the moment each
        became ready into ``ready_at`` (shards already stamped are
        skipped).  Crashed pipes and expired deadlines count as ready —
        the subsequent ``recv()`` raises the crash or timeout."""
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
        """The one way a message leaves the front end: fire every
        message, gather the replies, resolve them in shard order.

        ``sends`` holds (shard, message) pairs in ascending shard order,
        at most one per shard.  Returns one :class:`_DispatchOutcome`
        per shard, and settles the departures each message carried
        before anyone can route to its shard again.

        Supervised, it journals *every* mutating message before anything
        is fired (the write-ahead ordering is round-wide, and per-shard
        journals keep per-shard sequence numbers), tracks each fired
        send with its deadline on the supervisor's in-flight ledger, and
        resolves failures through :meth:`_resolve_supervised`, in shard
        order.  Unsupervised, none of that happens: the wire carries no
        ``seq`` and a crash or timeout propagates to the caller.
        """
        supervisor = self.supervisor
        # ``except ()`` catches nothing: unsupervised failures propagate.
        recoverable = (
            () if supervisor is None else (ShardTimeoutError, ShardCrashError)
        )
        outcomes: Dict[int, _DispatchOutcome] = {}
        entries: Dict[int, object] = {}
        wires: Dict[int, Dict] = {}
        for shard, message in sends:
            if supervisor is not None:
                if supervisor.health[shard] == HEALTH_DOWN:
                    outcomes[shard] = _DispatchOutcome(
                        down=ShardDownError(shard, "down (recovery deferred)")
                    )
                    continue
                if message["op"] in MUTATING_OPS:
                    entries[shard] = supervisor.journal(shard, message)
                    message = entries[shard].message
            wires[shard] = message
        starts: Dict[int, float] = {}
        ready_at: Dict[int, float] = {}
        errors: Dict[int, ShardError] = {}
        for shard, wire_message in wires.items():
            client = self.clients[shard]
            starts[shard] = time.perf_counter()
            try:
                client.send(
                    wire_message, timeout_s=self.config.request_timeout_s
                )
            except recoverable as error:
                errors[shard] = error
                continue
            if supervisor is not None:
                supervisor.track_send(shard, client.recv_deadline())
            if client.gather_connection() is None:
                # Inline transport: the work happened inside send(), so
                # the shard's service time is the send duration alone.
                ready_at[shard] = time.perf_counter()
        self._await_replies(
            [shard for shard in wires if shard not in errors], ready_at
        )
        for shard, message in sends:
            if shard in outcomes:  # DOWN before this dispatch started
                continue
            error = errors.get(shard)
            if error is None:
                if supervisor is not None:
                    supervisor.settle_send(shard)
                try:
                    response = self.clients[shard].recv()
                except recoverable as caught:
                    error = caught
            if error is None:
                outcomes[shard] = self._answered(
                    shard,
                    response,
                    ready_at.get(shard, time.perf_counter()) - starts[shard],
                )
            else:
                outcomes[shard] = self._resolve_supervised(
                    shard,
                    message,
                    wires[shard],
                    entries.get(shard),
                    error,
                    starts[shard],
                )
        for shard, message in sends:
            self._settle_departures(
                shard, message, outcomes[shard].down is None
            )
        return outcomes

    def _send(self, shard: int, message: Dict) -> _DispatchOutcome:
        """A dispatch of one: a capacity retry, a failover, a resend."""
        return self._dispatch([(shard, message)])[shard]

    def _answered(
        self,
        shard: int,
        response: Dict,
        elapsed: float,
        faulted: bool = False,
    ) -> _DispatchOutcome:
        """Account one shard's reply: the shard is UP, its summary and
        the summed service time are refreshed."""
        if self.supervisor is not None:
            self.supervisor.mark_up(shard)
        self._update_summary(shard, response)
        self.stats.shard_service_seconds += elapsed
        return _DispatchOutcome(
            response=response, elapsed=elapsed, faulted=faulted
        )

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
        self._dispatch_window(items, op, groups, results, assigned, finalized)

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

    def _dispatch_window(
        self,
        items: Sequence[Tuple[PlacementRequest, float]],
        op: str,
        groups: Dict[int, List[int]],
        results: List[GradedDecision | None],
        assigned: List[int],
        finalized: set,
    ) -> None:
        """One routing round's dispatch: fire every routed shard's window
        message (its pending departures inside it) and gather.  A shard
        with no slice this round gets no message: its departures wait
        for the next window routed to it, so its summary refreshes only
        when it has work."""
        shards = sorted(groups)
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

        Admission mode only (the retry short-circuit and the saturation
        gate are its two readers); without admission it is never true.
        The cached summary is exact at call time (single-threaded front
        end, every response refreshes it) *except* for this shard's
        pending outbox departures, which would free capacity — so a
        non-empty outbox disables the guarantee.  Otherwise it reads the
        summary's histograms: no host has a big-enough free block
        (``count == 0``) and, while the rebalancer is enabled, no
        hostable shape's shard-wide free total covers the minimal block
        either — consolidation migrations move containers between
        same-shape hosts, so they could recover the reject.  Placements
        only consume capacity and migrations preserve per-shape free
        totals, so once true the predicate stays true for the rest of
        the routing window.
        """
        if self.admission is None or self._outbox[shard]:
            return False
        space = self._space(shard, vcpus)
        if space.count > 0:
            return False
        return not (self.config.rebalance_enabled and space.coverable)

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
        over the configured classes — the brown-out watermark signal.  DOWN
        shards contribute nothing (their capacity is unreachable)."""
        if not self._empty_fleet_counts:
            return None
        down = self._down_shards()
        key = (down, *self.summaries)
        seen, fraction = self._fraction
        if key == seen:
            return fraction
        fractions: List[float] = []
        for vcpus, total in self._empty_fleet_counts.items():
            if total <= 0:
                continue
            live = sum(
                self._space(shard, vcpus).count
                for shard in range(len(self.summaries))
                if shard not in down
            )
            fractions.append(live / total)
        fraction = min(fractions) if fractions else None
        self._fraction = (key, fraction)
        return fraction

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
            outcome = self._send(next_shard, message)
            if outcome.down is not None:
                # The retry target died mid-retry: skip it and keep
                # looking at the remaining live shards.
                self.stats.degraded_arrivals += 1
                tried.add(next_shard)
                continue
            accumulated += outcome.elapsed
            [entry] = self._from_wire(next_shard, outcome.response, [request])
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
            outcome = self._send(shard, message)
            if outcome.down is not None:
                continue  # that one died too; re-rank the survivors
            [entry] = self._from_wire(shard, outcome.response, [request])
            entry.decision_seconds = outcome.elapsed
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
        shards = range(self.config.shards)
        outcomes = self._dispatch(
            [(shard, {"op": "report"}) for shard in shards]
        )
        reports: List[FleetReport] = []
        churn_rows: List[Dict] = []
        for shard in shards:
            outcome = outcomes[shard]
            if outcome.down is not None:
                # Unreachable after _recover_all (reports are read-only,
                # so even a fresh fault recovers immediately), but never
                # merge a partial report.
                raise outcome.down
            payload = dict(outcome.response["report"])
            # Churn crosses row-coded (see ShardWorker._report_payload).
            churn_rows.append(payload.pop("churn"))
            reports.append(FleetReport.from_dict(payload))

        def merged_cache(*infos: CacheInfo | None) -> CacheInfo | None:
            present = [info for info in infos if info is not None]
            return sum(present[1:], present[0]) if present else None

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
            arena_forests = sum(r.arena_forests for r in reports)
            arena_fused_calls = sum(r.arena_fused_calls for r in reports)
            arena_lanes = sum(r.arena_lanes for r in reports)
            blockscore = merged_cache(
                *(r.blockscore_cache_info for r in reports)
            )

        merged_churn = None
        if churn:
            merged_churn = merge_churn_stats(
                [
                    self._localized_churn(row, shard)
                    for shard, row in enumerate(churn_rows)
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
                r.busiest_host_utilization for r in reports
            ),
            cache_info=merged_cache(
                self._registry.enumeration_info(),
                *(r.cache_info for r in reports),
            ),
            enumeration_runs=self._registry.enumeration_runs()
            + sum(r.enumeration_runs for r in reports),
            predict_calls=sum(r.predict_calls for r in reports),
            predicted_rows=sum(r.predicted_rows for r in reports),
            ipc_cache_info=merged_cache(*(r.ipc_cache_info for r in reports)),
            arena_forests=arena_forests,
            arena_fused_calls=arena_fused_calls,
            arena_lanes=arena_lanes,
            blockscore_cache_info=blockscore,
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
