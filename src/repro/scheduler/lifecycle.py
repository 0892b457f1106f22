"""The lifecycle engine: arrivals, churn, fragmentation, rebalancing.

The paper's goal-aware policy decides each arriving container against
the current state of a host; whether anything ever leaves is a property
of the stream, not of the scheduler.  :class:`LifecycleScheduler` is the
one engine for both kinds of stream.  A one-shot stream — containers
arrive, nothing leaves — is its :meth:`~LifecycleScheduler.run` over
arrivals alone with the rebalancer off, ``window`` arrivals per policy
batch.  Real warehouse-scale placement is a *churn* problem: departures
punch holes in the fleet's node blocks, and over time the spare capacity
fragments into per-host chunks too small for the next container even
though the fleet as a whole has plenty of free nodes.  The engine models
that regime end to end:

1. A request stream with arrival times and lifetimes (see
   :func:`~repro.scheduler.requests.generate_churn_stream`) becomes a
   time-ordered event queue (:mod:`repro.scheduler.events`).
2. Arrivals go through any :class:`~repro.scheduler.policies.FleetPolicy`
   (``decide_batch``, a window of consecutive arrivals at a time) and
   are graded with :func:`~repro.scheduler.scheduler.grade_decision`.
3. Departures free their node blocks through
   :meth:`~repro.scheduler.fleet.Fleet.release` (request-id -> host index,
   O(1)).
4. When an arrival is rejected for *capacity* while the fleet still has
   enough free nodes in aggregate — a fragmentation reject — the
   **rebalancer** consolidates: it picks the host closest to fitting the
   request, selects the cheapest-to-move containers on it
   (migration cost is proportional to memory footprint, Section 7 of the
   paper), prices each move through
   :class:`~repro.migration.planner.MigrationPlanner`, and executes the
   plan only if the total migration time beats the configured rejection
   penalty.  Every executed move is recorded as a
   :class:`MigrationRecord` decision trace, and the arrival is retried.

The engine keeps only live state and reports what happened as one
record per placement, reject, move, re-grade and departure: the tuple
``(kind, request_id, payload, *sample)``, the record closing each event
ending with the fleet's sample right after it.  :class:`ChurnFold` folds
them into the report's counters, migrations and columnar
:class:`FragmentationTimeline`, so reports can plot largest-free-block
and fit-failure trajectories over simulated time — the observable the
rebalancer exists to improve (see ``benchmarks/bench_churn.py`` for the
with/without comparison).
"""

from __future__ import annotations

import time
from array import array
from copy import deepcopy
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.blockscores import (
    DEFAULT_BLOCK_SCORE_CACHE,
    BlockStateMemo,
    block_state_memo,
)
from repro.core.placements import Placement
from repro.core.serialize import Record
from repro.migration.planner import MigrationAdvice, MigrationPlanner
from repro.ml.arena import ARENA_STATS
from repro.scheduler.events import EventKind, LifecycleEvent, events_from_requests
from repro.scheduler.fleet import Fleet, FleetHost, scores_match
from repro.scheduler.policies import (
    FleetDecision,
    FleetPolicy,
    GoalAwareFleetPolicy,
)
from repro.scheduler.registry import ModelRegistry
from repro.scheduler.requests import PlacementRequest
from repro.scheduler.scheduler import (
    FleetReport,
    GradedDecision,
    grade_decision,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.serving.online import OnlineLearner


class FragmentationSample(NamedTuple):
    """Fleet capacity state right after one lifecycle event.

    What reading a :class:`FragmentationTimeline` yields; the timeline
    itself stores no samples, only their columns, so one is built when
    it is read (a report's ``describe``, ``to_dict`` or a test), never
    per event on the serving path.
    """

    time: float
    free_nodes_total: int
    largest_free_block: int
    active_containers: int
    #: Cumulative capacity rejections (after any rebalance retry) so far.
    fit_failures: int

    def to_dict(self) -> Dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: Dict) -> "FragmentationSample":
        return cls(**data)


#: One ``array`` type code per sample field: the time as a C double, the
#: four counts as signed 64-bit ints — 40 bytes per event in all.
_TIMELINE_TYPECODES = ("d", "q", "q", "q", "q")


class FragmentationTimeline:
    """The per-event :class:`FragmentationSample` s of one run, stored as
    five ``array`` columns named after the sample fields.

    The timeline is the one part of the serving path's state that grows
    with the stream rather than with the live containers, so it costs
    bytes, not objects: appending an event is one C append per column.
    Reading it — ``len``, an index, iteration, ``==`` against another
    timeline or a list of samples — yields samples, so callers read it
    like the list it replaced.
    """

    __slots__ = FragmentationSample._fields

    def __init__(self, samples: Iterable[FragmentationSample] = ()) -> None:
        for name, code in zip(self.__slots__, _TIMELINE_TYPECODES):
            setattr(self, name, array(code))
        for sample in samples:
            self.append(*sample)

    @classmethod
    def from_dict(cls, data: Sequence[Dict]) -> "FragmentationTimeline":
        """Inverse of the report form: a list of sample dicts."""
        return cls(map(FragmentationSample.from_dict, data))

    @classmethod
    def merged(
        cls,
        timelines: Sequence["FragmentationTimeline"],
        initial: Sequence[FragmentationSample],
    ) -> "FragmentationTimeline":
        """The fleet timeline of several shards' timelines: at every
        shard's event, in ``(time, shard, position)`` order, the sum of
        the shards' latest free nodes, active containers and fit failures
        and the max of their latest largest blocks, ``initial[shard]``
        standing in before a shard's first sample.

        A shard's timeline is not in time order — a window's arrivals
        are sampled before a departure with an earlier time that rides
        in the next message — so there are no sorted runs to merge.  One
        stable sort of every shard's times, concatenated in shard order,
        puts the samples in order; then, per shard, a running maximum of
        its sample positions names its latest sample at every step, and
        each count column is folded over the shards' latest values —
        integers, so exactly the running totals of a sample-by-sample
        fold.
        """

        def stacked(name: str, dtype) -> np.ndarray:
            return np.concatenate(
                [np.frombuffer(getattr(t, name), dtype=dtype) for t in timelines]
            )

        def adopt(name: str, values: np.ndarray) -> None:
            getattr(fleet, name).frombytes(memoryview(values).cast("B"))

        fleet = cls()
        times = stacked("time", np.float64)
        order = np.argsort(times, kind="stable")
        adopt("time", times[order])
        owner = np.repeat(
            np.arange(len(timelines)), [len(t) for t in timelines]
        )[order]
        steps = np.arange(len(order))
        latest = [
            np.maximum.accumulate(np.where(owner == shard, steps, -1))
            for shard in range(len(timelines))
        ]
        for name in cls.__slots__[1:]:
            values = stacked(name, np.int64)[order]
            fold = np.maximum if name == "largest_free_block" else np.add
            column = None
            for last, start in zip(latest, initial, strict=True):
                mine = values[last]
                mine[last < 0] = getattr(start, name)
                column = mine if column is None else fold(column, mine, out=column)
            adopt(name, column)
        return fleet

    @property
    def columns(self) -> Tuple[array, ...]:
        """The five columns, in :class:`FragmentationSample` field order."""
        return tuple(getattr(self, name) for name in self.__slots__)

    def append(
        self,
        time: float,
        free_nodes_total: int,
        largest_free_block: int,
        active_containers: int,
        fit_failures: int,
    ) -> None:
        self.time.append(time)
        self.free_nodes_total.append(free_nodes_total)
        self.largest_free_block.append(largest_free_block)
        self.active_containers.append(active_containers)
        self.fit_failures.append(fit_failures)

    def __len__(self) -> int:
        return len(self.time)

    def __getitem__(self, position: int) -> FragmentationSample:
        return FragmentationSample(
            *(column[position] for column in self.columns)
        )

    def __iter__(self) -> Iterator[FragmentationSample]:
        return map(FragmentationSample, *self.columns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FragmentationTimeline):
            return self.columns == other.columns
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"FragmentationTimeline({list(self)!r})"


@dataclass(frozen=True, slots=True)
class MigrationRecord(Record):
    """One executed container move, with its priced cost — the decision
    trace of the rebalancer."""

    time: float
    request_id: int
    workload: str
    source_host: int
    dest_host: int
    engine: str
    seconds: float
    moved_gb: float
    #: The arriving request whose fragmentation reject triggered the move.
    triggered_by: int

    def describe(self) -> str:
        return (
            f"t={self.time:9.2f}s migrate req#{self.request_id} "
            f"({self.workload}) host {self.source_host} -> {self.dest_host} "
            f"via {self.engine}: {self.moved_gb:.1f} GB in "
            f"{self.seconds:.1f}s (for req#{self.triggered_by})"
        )


@dataclass
class ChurnStats(Record):
    """Lifecycle-specific counters carried inside a FleetReport."""

    arrivals: int = 0
    departures: int = 0
    migrations: List[MigrationRecord] = field(default_factory=list)
    #: Fragmentation rejects where the rebalancer assembled a plan.
    rebalance_attempts: int = 0
    #: Rejected arrivals that placed successfully after migrations.
    rebalance_recovered: int = 0
    #: One sample per event, in columns (see :class:`FragmentationTimeline`).
    fragmentation_timeline: FragmentationTimeline = field(
        default_factory=FragmentationTimeline
    )

    @property
    def n_migrations(self) -> int:
        return len(self.migrations)

    @property
    def migrated_gb(self) -> float:
        """Total bytes moved by the rebalancer, in GB."""
        return sum(record.moved_gb for record in self.migrations)

    @property
    def migration_seconds(self) -> float:
        return sum(record.seconds for record in self.migrations)

    @property
    def fit_failures(self) -> int:
        failures = self.fragmentation_timeline.fit_failures
        return failures[-1] if failures else 0

    @property
    def fit_failure_rate(self) -> float:
        """Capacity rejections per arrival over the whole run."""
        if not self.arrivals:
            return 0.0
        return self.fit_failures / self.arrivals

    def describe(self) -> str:
        lines = [
            f"  churn: {self.arrivals} arrivals, {self.departures} "
            f"departures, fit-failure rate {self.fit_failure_rate:.1%}",
            f"  rebalancer: {self.n_migrations} migrations "
            f"({self.migrated_gb:.1f} GB, {self.migration_seconds:.1f}s "
            f"simulated) recovered {self.rebalance_recovered} of "
            f"{self.rebalance_attempts} fragmentation rejects",
        ]
        if self.fragmentation_timeline:
            last = self.fragmentation_timeline[-1]
            lines.append(
                f"  final fragmentation: largest free block "
                f"{last.largest_free_block} of {last.free_nodes_total} free "
                f"nodes, {last.active_containers} containers active"
            )
        return "\n".join(lines)


#: The kinds of a state change record, the tuple ``(kind, request_id,
#: payload, *sample)``.  The payload is an outcome's or a re-grade's
#: :class:`GradedDecision` (an outcome's is the engine's own: a move later
#: in its window re-grades it in place), a move's :class:`MigrationRecord`,
#: or whether a departure released a running container.  The record
#: closing an event (an outcome, any departure) ends with the five fields
#: of the fleet's :class:`FragmentationSample` right after it; the
#: rebalancer's moves (``migrated``, then ``regraded``) come before the
#: outcome of the arrival they made room for.  A shard's wire row has the
#: same layout, its payload encoded (:func:`~repro.scheduler.wire.encode_change`).
PLACED = "placed"
REJECTED = "rejected"
MIGRATED = "migrated"
REGRADED = "regraded"
DEPARTED = "departed"
OUTCOMES = frozenset({PLACED, REJECTED})


class ChurnFold:
    """The one consumer of state change records: counters and migrations
    into ``stats``, samples into one timeline per shard (``stats``' own
    is shard 0's), joined once by :meth:`churn`.  It reads a record's
    kind, request id, a departure's or a move's payload and the sample,
    never an outcome's payload, so it folds the engine's records and a
    reply's rows alike (a move's payload must be decoded).  A rebalance
    attempt is an outcome right after moves made for it; it recovered the
    arrival when the outcome is ``placed``.
    """

    __slots__ = ("stats", "timelines", "_moved_for")

    def __init__(self, shards: int = 1) -> None:
        self.stats = ChurnStats()
        self.timelines = [self.stats.fragmentation_timeline] + [
            FragmentationTimeline() for _ in range(shards - 1)
        ]
        #: Per shard: the arrival the last folded moves were made for.
        self._moved_for: List[int | None] = [None] * shards

    def fold(self, records: Iterable[tuple], shard: int = 0) -> None:
        """Fold one shard's ``records``, in the order they happened."""
        stats, append = self.stats, self.timelines[shard].append
        for record in records:
            kind = record[0]
            if kind == DEPARTED:
                stats.departures += record[2]
            elif kind == PLACED or kind == REJECTED:
                stats.arrivals += 1
                if self._moved_for[shard] == record[1]:
                    stats.rebalance_attempts += 1
                    stats.rebalance_recovered += kind == PLACED
                self._moved_for[shard] = None
            else:
                if kind == MIGRATED:
                    stats.migrations.append(record[2])
                    self._moved_for[shard] = record[2].triggered_by
                continue  # a re-grade changes no churn counter
            append(*record[3:])

    def churn(
        self, arrivals: int, initial: Sequence[FragmentationSample]
    ) -> ChurnStats:
        """A copy with the caller's ``arrivals`` (a retried request
        reaches several shards) and, over several shards, migrations in
        time order and the timelines merged from ``initial`` (one sample
        per shard); one shard's stay in the order it handled them."""
        if len(self.timelines) == 1:
            churn = deepcopy(self.stats)
        else:
            churn = replace(
                self.stats,
                migrations=sorted(
                    self.stats.migrations,
                    key=lambda m: (m.time, m.triggered_by, m.request_id),
                ),
                fragmentation_timeline=FragmentationTimeline.merged(
                    self.timelines, initial
                ),
            )
        churn.arrivals = arrivals
        return churn


@dataclass(frozen=True)
class RebalanceConfig:
    """Knobs of the fragmentation-triggered rebalancer.

    The cost gate follows the paper's Section 7 guidance: migration
    overhead is proportional to the container's memory footprint, so a
    move is only worth it when the time spent migrating stays under what
    the operator is willing to pay to avoid rejecting (or violating) a
    request — ``reject_penalty_seconds``, the expected violation penalty
    expressed in the same seconds currency the
    :class:`~repro.migration.planner.MigrationPlanner` prices moves in.
    """

    enabled: bool = True
    #: Total migration seconds a single recovery plan may spend.
    reject_penalty_seconds: float = 120.0
    #: Hard cap on moves per rejected arrival (keeps plans local).
    max_migrations_per_reject: int = 4

    def __post_init__(self) -> None:
        if self.reject_penalty_seconds <= 0:
            raise ValueError("reject_penalty_seconds must be positive")
        if self.max_migrations_per_reject < 1:
            raise ValueError("max_migrations_per_reject must be >= 1")


#: A planned (not yet executed) move: victim id, its current placement,
#: destination host, destination block, engine name, priced seconds.
_PlannedMove = Tuple[int, Placement, FleetHost, Tuple[int, ...], str, float]


class _FullestFirst(dict):
    """One shape's hosts by free-node count, for the rebalancer's
    destination search: ``free_counts`` ascending (fullest first), and
    ``self[free]`` the hosts with that many free nodes, lowest id first,
    the plan's source left out.

    A count's hosts are sorted the first time a search reaches it, so a
    plan pays only for the counts its victims can use and get to, where it
    used to sort every same-shape host up front.  The index buckets are
    read lazily, which holds because planning allocates nothing.
    """

    __slots__ = ("free_counts", "_hosts", "_buckets", "_source")

    def __init__(
        self,
        hosts: Sequence[FleetHost],
        buckets: Dict[int, set],
        source: int | None,
    ) -> None:
        self.free_counts = sorted(buckets)
        self._hosts = hosts
        self._buckets = buckets
        self._source = source

    def __missing__(self, free: int) -> List[FleetHost]:
        listed = self[free] = [
            self._hosts[host_id]
            for host_id in sorted(self._buckets[free])
            if host_id != self._source
        ]
        return listed


class LifecycleScheduler:
    """Event-driven fleet scheduler: arrivals, departures, rebalancing.

    Parameters
    ----------
    fleet:
        The hosts (shared bookkeeping with the policies).
    policy:
        Any fleet policy; defaults to the goal-aware ML policy.  Arrivals
        are decided a window of consecutive arrivals at a time
        (:meth:`step_batch`); :meth:`step` and ``run(window=1)`` decide
        them one event at a time.
    registry:
        Grading artifacts, defaulting to the policy's registry.
    planner:
        Prices candidate migrations; see
        :class:`~repro.migration.planner.MigrationPlanner`.
    config:
        Rebalancer gate; ``RebalanceConfig(enabled=False)`` gives the
        no-migration baseline.
    online:
        Optional :class:`~repro.serving.online.OnlineLearner` closing the
        model-lifecycle loop: every graded ML placement is fed back as a
        :class:`~repro.serving.traces.PlacementObservation`, and the
        learner may retrain/promote the registry's models mid-stream.
        ``None`` (the default) reproduces the frozen-model pipeline
        bit for bit.
    """

    def __init__(
        self,
        fleet: Fleet,
        policy: FleetPolicy | None = None,
        *,
        registry: ModelRegistry | None = None,
        planner: MigrationPlanner | None = None,
        config: RebalanceConfig | None = None,
        online: "OnlineLearner | None" = None,
    ) -> None:
        self.fleet = fleet
        self.policy = policy or GoalAwareFleetPolicy()
        if registry is None:
            registry = getattr(self.policy, "registry", None) or ModelRegistry()
        self.registry = registry
        self.planner = planner or MigrationPlanner()
        self.config = config or RebalanceConfig()
        self.online = online
        if online is not None:
            if online.server is not registry:
                raise ValueError(
                    "the online learner must drive the scheduler's own "
                    "registry (its ModelServer), or promotions would "
                    "retrain a model the policies never consult"
                )
            policy_probe = getattr(self.policy, "probe_duration_s", None)
            if (
                policy_probe is not None
                and policy_probe != online.config.probe_duration_s
            ):
                # The learner re-reads each decision's probe IPCs through
                # the registry memo; a different probe duration draws a
                # different noise multiplier, so the observations would
                # not be the inputs the prediction actually consumed.
                raise ValueError(
                    f"online learner probe_duration_s "
                    f"({online.config.probe_duration_s}) must match the "
                    f"policy's ({policy_probe})"
                )
        #: Requests currently running (id -> request), the profile source
        #: for migration pricing and the departure filter.  Deliberately
        #: *not* reset by :meth:`begin`: containers placed by an earlier
        #: run stay live on the fleet, and the rebalancer needs their
        #: profiles to price moving them.
        self._active: Dict[int, PlacementRequest] = {}
        self.begin()

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Reset the per-run report (graded decisions and churn stats).

        :meth:`run` calls this itself; an incremental caller that wants
        the engine's report calls it once, then :meth:`step` per event,
        then :meth:`collect_report`.  The sharded service's shards call
        only :meth:`step_batch` and :meth:`depart`, so this report stays
        empty on a shard.
        """
        #: Folds what :meth:`step` and :meth:`run` did into :attr:`stats`.
        self._fold = ChurnFold()
        self.stats = self._fold.stats
        #: Every arrival :meth:`step` / :meth:`run` decided, in order: the
        #: report's decisions.
        self.graded: List[GradedDecision] = []
        #: The entries of live containers this run placed, re-graded when
        #: the rebalancer moves them; a departure drops its entry.
        self._graded_by_id: Dict[int, GradedDecision] = {}
        # Every value the per-event fragmentation sample needs is an O(1)
        # counter on the fleet index (kept fresh by host allocate/release
        # bookkeeping, migrations included) — the sample never pays a
        # full-fleet sum per event.  Fit failures are counted on the index
        # too; the snapshot keeps a re-used fleet's timeline starting at 0.
        self._fit_failures_before = self.fleet.index.fit_failures

    def step(self, event: LifecycleEvent) -> GradedDecision | None:
        """Process one event into this engine's report; returns the
        graded decision for arrivals (appended to :attr:`graded`), None
        for departures."""
        if event.kind is EventKind.ARRIVAL:
            started = time.perf_counter()
            decision = self.policy.decide(event.request, self.fleet)
            moves: List[tuple] = []
            outcome = self._settle(event, decision, started, moves)
            self._fold.fold((*moves, outcome))
            entry = outcome[2]
            self.graded.append(entry)
            return entry
        self._fold.fold((self._release(event.request.request_id, event.time),))
        return None

    def depart(self, request_id: int, event_time: float) -> tuple:
        """Process a departure by request id — :meth:`step`'s departure
        arm without the event envelope, reported as its record instead
        of kept.  A departure needs nothing but the id, so the sharded
        service's wire format ships ``[id, time]`` pairs instead of full
        request payloads."""
        return self._release(request_id, event_time)

    def step_batch(
        self, events: Sequence[LifecycleEvent]
    ) -> List[tuple]:
        """Decide a window of consecutive arrivals in one policy batch;
        returns what happened, one state change record per change in the
        order it happened, and keeps none of it.

        :meth:`run` and the sharded service's shards batch arrivals so
        the goal-aware policy's fused prediction amortizes across the
        window.  A window of one decides exactly as :meth:`step`; larger
        windows trade strict time order *inside the window* for batching
        (all window decisions allocate before any rebalance retry runs).
        An empty window decides nothing.  A shard ships the records to
        its front end; :meth:`run` folds them into this engine's report.
        """
        if any(e.kind is not EventKind.ARRIVAL for e in events):
            raise ValueError("step_batch handles arrival events only")
        changes: List[tuple] = []
        if not events:
            return changes
        started = time.perf_counter()
        if len(events) == 1:
            [event] = events
            decision = self.policy.decide(event.request, self.fleet)
            changes.append(self._settle(event, decision, started, changes))
            return changes
        decisions = self.policy.decide_batch(
            [event.request for event in events], self.fleet
        )
        per_request = (time.perf_counter() - started) / len(events)
        for event, decision in zip(events, decisions, strict=True):
            changes.append(
                self._settle(
                    event, decision, time.perf_counter(), changes, per_request
                )
            )
        return changes

    def _closing(
        self, kind: str, request_id: int, payload, event_time: float
    ) -> tuple:
        """The record closing an event: ``payload`` then the fleet's
        sample right after the event, every field an O(1) read."""
        index = self.fleet.index
        return (
            kind,
            request_id,
            payload,
            event_time,
            index.free_nodes_total,
            index.largest_free_block,
            len(self._active),
            index.fit_failures - self._fit_failures_before,
        )

    def collect_report(
        self, n_requests: int, elapsed_seconds: float
    ) -> FleetReport:
        """Fold the accumulated decisions and stats, and the fleet,
        registry and policy counters, into a FleetReport."""
        fleet, registry, policy = self.fleet, self.registry, self.policy
        per_host = [h.thread_utilization for h in fleet.hosts]
        return FleetReport(
            policy=policy.name,
            n_hosts=len(fleet),
            n_requests=n_requests,
            decisions=self.graded,
            elapsed_seconds=elapsed_seconds,
            thread_utilization=fleet.thread_utilization,
            node_utilization=fleet.node_utilization,
            busiest_host_utilization=max(per_host) if per_host else 0.0,
            cache_info=registry.enumeration_info(),
            enumeration_runs=registry.enumeration_runs(),
            predict_calls=getattr(policy, "predict_calls", 0),
            predicted_rows=getattr(policy, "predicted_rows", 0),
            ipc_cache_info=registry.ipc_cache_info(),
            arena_forests=ARENA_STATS.forests_compiled,
            arena_fused_calls=ARENA_STATS.fused_calls,
            arena_lanes=ARENA_STATS.lanes_evaluated,
            blockscore_cache_info=DEFAULT_BLOCK_SCORE_CACHE.info(),
            churn=self.stats,
            online=self.online.stats if self.online is not None else None,
        )

    def run(
        self, requests: Sequence[PlacementRequest], *, window: int = 1
    ) -> FleetReport:
        """Replay the stream's events in time order; report with churn
        statistics attached.

        Each run of ``window`` consecutive arrivals is decided in one
        :meth:`step_batch`.  A departure falling inside an open window is
        held until that window is decided — the sharded service's rule,
        so one shard serving at window ``W`` decides like ``run(window=W)``
        — and ``window=1`` steps event by event.  A one-shot stream
        (nothing departs) with ``RebalanceConfig(enabled=False)`` is plain
        batched placement: ``decide_batch`` per window, then a grade per
        decision.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        start = time.perf_counter()
        self.begin()
        pending: List[LifecycleEvent] = []
        held: List[LifecycleEvent] = []

        fold = self._fold.fold

        def decide_pending() -> None:
            changes = self.step_batch(pending)
            fold(changes)
            self.graded.extend(r[2] for r in changes if r[0] in OUTCOMES)
            fold([self.depart(e.request.request_id, e.time) for e in held])
            pending.clear()
            held.clear()

        for event in events_from_requests(requests).drain():
            if event.kind is EventKind.ARRIVAL:
                pending.append(event)
                if len(pending) == window:
                    decide_pending()
            elif pending:
                held.append(event)
            else:
                fold((self.depart(event.request.request_id, event.time),))
        decide_pending()
        elapsed = time.perf_counter() - start
        return self.collect_report(len(requests), elapsed)

    def _settle(
        self,
        event: LifecycleEvent,
        decision: FleetDecision,
        started: float,
        moves: List[tuple],
        spent: float = 0.0,
    ) -> tuple:
        """Everything an arrival needs after its first decision: a
        capacity reject gets one rebalance and one retry, the outcome is
        graded, fed to the online learner and, while the container lives,
        kept for re-grading after a migration.  The rebalancer's moves go
        onto ``moves``; returns the outcome, with the fleet's sample.
        ``decision_seconds`` is ``spent`` plus the time since
        ``started``."""
        request = event.request
        if (
            not decision.placed
            and decision.reject_reason == "capacity"
            and self.config.enabled
        ):
            plan = self._plan_rebalance(request)
            if plan:
                self._execute_plan(plan, event, moves)
                retry = self.policy.decide(request, self.fleet)
                if retry.placed:
                    decision = retry
        # Stop the clock before grading: decision_seconds is the time to
        # decide (and rebalance), for a window of one or of many alike.
        decide_seconds = spent + (time.perf_counter() - started)
        entry = grade_decision(decision, self.fleet, self.registry)
        entry.decision_seconds = decide_seconds
        if decision.placed:
            kind = PLACED
            self._active[request.request_id] = request
            self._graded_by_id[request.request_id] = entry
            if self.online is not None:
                # Close the prediction loop: the learner may detect drift,
                # retrain, shadow-score, or promote — all before the next
                # event is decided.
                self.online.observe(
                    self.fleet.hosts[decision.host_id].machine,
                    entry,
                    event.time,
                )
        else:
            kind = REJECTED
            if decision.reject_reason == "capacity":
                self.fleet.index.record_fit_failure()
        return self._closing(kind, request.request_id, entry, event.time)

    def _release(self, request_id: int, event_time: float) -> tuple:
        # A departure for a request that was rejected (or already released)
        # releases nothing but is still an event: the event pair was
        # scheduled before the placement outcome was known.  A container
        # placed before the last begin() has no graded entry to drop.
        released = self._active.pop(request_id, None) is not None
        if released:
            self._graded_by_id.pop(request_id, None)
            self.fleet.release(request_id)
        return self._closing(DEPARTED, request_id, released, event_time)

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------

    def _plan_rebalance(
        self, request: PlacementRequest
    ) -> List[_PlannedMove]:
        """A priced migration plan that frees a block for the request, or
        ``[]`` when no plan fits the cost gate.

        Strategy: consolidate onto the compatible host already closest to
        fitting — move its cheapest containers (by memory footprint, the
        paper's migration cost driver) to same-shape hosts elsewhere until
        the policy's smallest usable block for the request
        (:meth:`~repro.scheduler.policies.FleetPolicy.min_block_nodes`)
        fits.  Planning is all-or-nothing: migrations only execute if
        together they free enough nodes within ``reject_penalty_seconds``.
        """
        # Distinct shapes come from the fleet index (O(#shapes), not a
        # host scan), and so does each compatible shape's emptiest host
        # (its largest non-empty bucket): most free nodes wins, lowest
        # host id on ties.
        index = self.fleet.index
        emptiest: List[Tuple[int, int, int]] = []
        for key, machine in index.machines():
            needed = self.policy.min_block_nodes(machine, request.vcpus)
            if needed is not None:
                free, host_id = index.emptiest_host(key)
                emptiest.append((free, -host_id, needed))
        if not emptiest:
            return []

        free, negated_id, needed = max(emptiest)
        target = self.fleet.hosts[-negated_id]
        deficit = needed - free
        if deficit <= 0:
            # Not a fragmentation reject: a big-enough block already
            # exists, so the policy failed for some other reason and
            # moving containers around will not help.
            return []

        # What the victims share is resolved once per plan: same-shape
        # hosts by free count, fullest first, each count's hosts listed
        # when a search first reaches it (planning allocates nothing, so
        # the index buckets hold; ``claimed`` carries what changes between
        # victims), the shape's block scorer and its state memo.
        machine = target.machine
        candidates = _FullestFirst(
            self.fleet.hosts,
            index.buckets(machine.fingerprint()),
            target.host_id,
        )
        scorer = machine.interconnect.aggregate_bandwidth
        table = block_state_memo(machine, "interconnect")

        victims = sorted(
            target.placements.items(),
            key=lambda item: self._footprint_gb(item[0]),
        )
        plan: List[_PlannedMove] = []
        claimed: Dict[int, set] = {}
        freed = 0
        spent = 0.0
        for victim_id, placement in victims:
            if freed >= deficit:
                break
            if len(plan) >= self.config.max_migrations_per_reject:
                break
            victim = self._active.get(victim_id)
            if victim is None:
                continue
            advice = self._advice(victim)
            if advice.recommended == "offline":
                continue  # footprint too large to move online at all
            seconds = advice.results[advice.recommended].seconds
            if spent + seconds > self.config.reject_penalty_seconds:
                continue
            destination = self._find_destination(
                candidates, placement, claimed, scorer, table
            )
            if destination is None:
                continue
            dest, block = destination
            claimed.setdefault(dest.host_id, set()).update(block)
            plan.append(
                (victim_id, placement, dest, block, advice.recommended, seconds)
            )
            spent += seconds
            freed += placement.n_nodes
        if freed < deficit:
            return []  # cannot free a big enough block within the gate
        return plan

    def _advice(self, request: PlacementRequest) -> MigrationAdvice:
        """The planner's (remembered) advice for one rebalancing move of
        a running container — engine, seconds and memory footprint."""
        return self.planner.advise(request.profile, probe_migrations=1)

    def _footprint_gb(self, request_id: int) -> float:
        request = self._active.get(request_id)
        if request is None:  # placed outside the engine; move it last
            return float("inf")
        return self._advice(request).memory.total_gb

    @staticmethod
    def _find_destination(
        candidates: _FullestFirst,
        placement: Placement,
        claimed: Dict[int, set],
        scorer: Callable,
        table: BlockStateMemo,
    ) -> Tuple[FleetHost, Tuple[int, ...]] | None:
        """The first host of ``candidates`` (the source's shape by free
        count, fullest first, the source left out) with room for the
        victim.

        Fullest-first order: parking victims on already-busy hosts keeps
        the emptier hosts' blocks large, so the rebalancer does not trade
        one fragmentation problem for another.  A block matching the
        victim's current interconnect score is preferred (its graded
        performance transfers); any block of the right size is the
        fallback.  Free counts that cannot cover the victim's block are
        never listed, let alone searched, and block search reads the
        shared per-shape state memo.
        """
        size = placement.n_nodes
        target_score = scorer(frozenset(placement.nodes))
        for exact in (target_score, None):
            for free in candidates.free_counts:
                if free < size:
                    continue
                for host in candidates[free]:
                    block = host.find_block(
                        size,
                        table=table,
                        target_score=exact,
                        exclude=claimed.get(host.host_id, ()),
                    )
                    if block is not None:
                        return host, block
        return None

    def _execute_plan(
        self,
        plan: List[_PlannedMove],
        event: LifecycleEvent,
        changes: List[tuple],
    ) -> None:
        for victim_id, placement, dest, block, engine, seconds in plan:
            source_host, _ = self.fleet.release(victim_id)
            realized = Placement(
                dest.machine,
                block,
                placement.vcpus,
                l2_share=placement.l2_share,
                l3_groups_per_node=placement.l3_score // placement.n_nodes,
            )
            dest.allocate(victim_id, realized)
            victim = self._active[victim_id]
            move = MigrationRecord(
                time=event.time,
                request_id=victim_id,
                workload=victim.workload_name,
                source_host=source_host,
                dest_host=dest.host_id,
                engine=engine,
                seconds=seconds,
                moved_gb=self._advice(victim).memory.total_gb,
                triggered_by=event.request.request_id,
            )
            changes.append((MIGRATED, victim_id, move))
            regraded = self._regrade_migrated(victim_id, placement, realized, dest)
            if regraded is not None:
                changes.append((REGRADED, victim_id, regraded))

    def _regrade_migrated(
        self,
        victim_id: int,
        old: Placement,
        realized: Placement,
        dest: FleetHost,
    ) -> GradedDecision | None:
        """Point the victim's graded decision at its post-migration
        placement and re-grade it, so the report describes the fleet the
        engine actually produced (a move to a lower-scored block can turn
        a met goal into a violation — that must be visible).  Returns the
        re-graded entry (None for a container this run did not place)."""
        entry = self._graded_by_id.get(victim_id)
        if entry is None:
            return None
        scorer = dest.machine.interconnect.aggregate_bandwidth
        # A new decision, not an edit: the re-grade records of earlier
        # moves keep theirs.
        entry.decision = replace(
            entry.decision,
            host_id=dest.host_id,
            placement=realized,
            block_exact=entry.decision.block_exact
            and scores_match(
                scorer(frozenset(realized.nodes)), scorer(frozenset(old.nodes))
            ),
        )
        regraded = grade_decision(entry.decision, self.fleet, self.registry)
        regraded.decision_seconds = entry.decision_seconds
        entry.achieved_relative = regraded.achieved_relative
        entry.violated = regraded.violated
        return regraded
