"""The dynamic lifecycle engine: churn, fragmentation, and rebalancing.

PR 1's :class:`~repro.scheduler.scheduler.FleetScheduler` is one-shot —
containers arrive, nothing ever leaves.  Real warehouse-scale placement is
a *churn* problem: departures punch holes in the fleet's node blocks, and
over time the spare capacity fragments into per-host chunks too small for
the next container even though the fleet as a whole has plenty of free
nodes.  :class:`LifecycleScheduler` models that regime end to end:

1. A request stream with arrival times and lifetimes (see
   :func:`~repro.scheduler.requests.generate_churn_stream`) becomes a
   time-ordered event queue (:mod:`repro.scheduler.events`).
2. Arrivals go through any :class:`~repro.scheduler.policies.FleetPolicy`
   exactly as in the one-shot scheduler, and are graded with the same
   shared :func:`~repro.scheduler.scheduler.grade_decision`.
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

The engine samples the fleet after every event into a columnar
:class:`FragmentationTimeline`, so reports can plot largest-free-block
and fit-failure trajectories over simulated time — the observable the
rebalancer exists to improve (see ``benchmarks/bench_churn.py`` for the
with/without comparison).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
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

from repro.core.blockscores import BlockStateMemo, block_state_memo
from repro.core.placements import Placement
from repro.core.serialize import Record
from repro.migration.planner import MigrationAdvice, MigrationPlanner
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
    def from_columns(cls, columns: Sequence) -> "FragmentationTimeline":
        """A timeline adopting one sequence per field, in field order
        (the wire's lists, or another timeline's arrays)."""
        timeline = cls.__new__(cls)
        for name, code, column in zip(
            cls.__slots__, _TIMELINE_TYPECODES, columns, strict=True
        ):
            setattr(timeline, name, array(code, column))
        if len({len(column) for column in timeline.columns}) > 1:
            raise ValueError("timeline columns differ in length")
        return timeline

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

    def copy(self) -> "FragmentationTimeline":
        return self.from_columns(self.columns)

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
        are decided one event at a time (batching across *time* would let
        the policy see the future).
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
        """Reset the per-run accumulators (stats, graded decisions).

        :meth:`run` calls this itself; incremental drivers — the sharded
        service's workers feed events one batch at a time — call it once,
        then :meth:`step` / :meth:`step_batch` per event, then
        :meth:`collect_report`.
        """
        self.stats = ChurnStats()
        #: Every arrival :meth:`step` decided, in order: the report's
        #: decisions.  :meth:`step_batch` returns its entries instead.
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
        """Process one event; returns the graded decision for arrivals
        (appended to :attr:`graded`), None for departures."""
        if event.kind is EventKind.ARRIVAL:
            started = time.perf_counter()
            decision = self.policy.decide(event.request, self.fleet)
            entry = self._settle(event, decision, started)
            self.graded.append(entry)
            return entry
        self._release(event.request.request_id)
        self._sample(event.time)
        return None

    def depart(self, request_id: int, event_time: float) -> None:
        """Process a departure by request id — :meth:`step`'s departure
        arm without the event envelope.  A departure needs nothing but
        the id, so the sharded service's wire format ships ``[id, time]``
        pairs instead of full request payloads."""
        self._release(request_id)
        self._sample(event_time)

    def step_batch(
        self, events: Sequence[LifecycleEvent]
    ) -> List[GradedDecision]:
        """Decide a window of consecutive arrivals in one policy batch.

        The sharded service batches arrivals per shard so the goal-aware
        policy's fused prediction amortizes across the window.  A window
        of one decides exactly as :meth:`step`; larger windows trade
        strict time order *inside the window* for batching (all window
        decisions allocate before any rebalance retry runs), exactly like
        the one-shot scheduler's batches.

        The entries are returned, not kept: :attr:`graded` is the
        :meth:`step` / :meth:`run` report's list, and a shard, whose
        front end keeps what it decoded, would only grow with the stream
        holding a second copy.
        """
        if any(e.kind is not EventKind.ARRIVAL for e in events):
            raise ValueError("step_batch handles arrival events only")
        started = time.perf_counter()
        if len(events) == 1:
            [event] = events
            decision = self.policy.decide(event.request, self.fleet)
            return [self._settle(event, decision, started)]
        decisions = self.policy.decide_batch(
            [event.request for event in events], self.fleet
        )
        per_request = (time.perf_counter() - started) / len(events)
        return [
            self._settle(event, decision, time.perf_counter(), per_request)
            for event, decision in zip(events, decisions)
        ]

    def _sample(self, event_time: float) -> None:
        index = self.fleet.index
        timeline = self.stats.fragmentation_timeline
        timeline.time.append(event_time)
        timeline.free_nodes_total.append(index.free_nodes_total)
        timeline.largest_free_block.append(index.largest_free_block)
        timeline.active_containers.append(len(self._active))
        timeline.fit_failures.append(
            index.fit_failures - self._fit_failures_before
        )

    def collect_report(
        self, n_requests: int, elapsed_seconds: float
    ) -> FleetReport:
        """Fold the accumulated decisions and stats into a FleetReport."""
        return FleetReport.collect(
            policy=self.policy,
            fleet=self.fleet,
            registry=self.registry,
            n_requests=n_requests,
            decisions=self.graded,
            elapsed_seconds=elapsed_seconds,
            churn=self.stats,
            online=self.online.stats if self.online is not None else None,
        )

    def run(self, requests: Sequence[PlacementRequest]) -> FleetReport:
        """Replay the stream's events in time order; report with churn
        statistics attached."""
        start = time.perf_counter()
        self.begin()
        for event in events_from_requests(requests).drain():
            self.step(event)
        elapsed = time.perf_counter() - start
        return self.collect_report(len(requests), elapsed)

    def _settle(
        self,
        event: LifecycleEvent,
        decision: FleetDecision,
        started: float,
        spent: float = 0.0,
    ) -> GradedDecision:
        """Everything an arrival needs after its first decision: a
        capacity reject gets one rebalance and one retry, the outcome is
        graded, fed to the online learner and, while the container lives,
        kept for re-grading after a migration, and the fleet is
        sampled.  ``decision_seconds`` is ``spent`` plus the time since
        ``started``."""
        stats, request = self.stats, event.request
        stats.arrivals += 1
        if (
            not decision.placed
            and decision.reject_reason == "capacity"
            and self.config.enabled
        ):
            plan = self._plan_rebalance(request)
            if plan:
                stats.rebalance_attempts += 1
                stats.migrations.extend(self._execute_plan(plan, event))
                retry = self.policy.decide(request, self.fleet)
                if retry.placed:
                    stats.rebalance_recovered += 1
                    decision = retry
        # Stop the clock before grading: the one-shot scheduler's
        # decision_seconds also excludes grading, keeping the two modes'
        # latency stats comparable.
        decide_seconds = spent + (time.perf_counter() - started)
        entry = grade_decision(decision, self.fleet, self.registry)
        entry.decision_seconds = decide_seconds
        if decision.placed:
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
        elif decision.reject_reason == "capacity":
            self.fleet.index.record_fit_failure()
        self._sample(event.time)
        return entry

    def _release(self, request_id: int) -> None:
        # A departure for a request that was rejected (or already released)
        # is a no-op, not an error: the event pair was scheduled before the
        # placement outcome was known.  A container placed before the last
        # begin() has no graded entry to drop.
        if self._active.pop(request_id, None) is not None:
            self._graded_by_id.pop(request_id, None)
            self.fleet.release(request_id)
            self.stats.departures += 1

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
        self, plan: List[_PlannedMove], event: LifecycleEvent
    ) -> List[MigrationRecord]:
        records: List[MigrationRecord] = []
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
            self._regrade_migrated(victim_id, placement, realized, dest)
            victim = self._active[victim_id]
            records.append(
                MigrationRecord(
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
            )
        return records

    def _regrade_migrated(
        self,
        victim_id: int,
        old: Placement,
        realized: Placement,
        dest: FleetHost,
    ) -> None:
        """Point the victim's graded decision at its post-migration
        placement and re-grade it, so the report describes the fleet the
        engine actually produced (a move to a lower-scored block can turn
        a met goal into a violation — that must be visible)."""
        entry = self._graded_by_id.get(victim_id)
        if entry is None:
            return
        decision = entry.decision
        decision.host_id = dest.host_id
        decision.placement = realized
        scorer = lambda nodes: dest.machine.interconnect.aggregate_bandwidth(nodes)  # noqa: E731
        decision.block_exact = decision.block_exact and scores_match(
            scorer(frozenset(realized.nodes)), scorer(frozenset(old.nodes))
        )
        regraded = grade_decision(decision, self.fleet, self.registry)
        entry.achieved_relative = regraded.achieved_relative
        entry.violated = regraded.violated
