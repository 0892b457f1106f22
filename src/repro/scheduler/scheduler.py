"""The fleet scheduler: drive a request stream through a policy and report.

:class:`FleetScheduler` is the control loop: it cuts the stream into
batches (so the goal-aware policy can predict a whole batch in one
vectorized call), lets the policy decide-and-allocate, then grades every
placed container — achieved performance relative to the shape's baseline
placement, measured through the per-shape simulator — and folds everything
into a :class:`FleetReport`.

The ``batch_size=1`` / ``memoize_enumeration=False`` configuration
reproduces the naive per-request pipeline (re-enumerate, predict one row at
a time); the benchmark in ``benchmarks/bench_fleet_scheduler.py`` measures
the gap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.memo import CacheInfo
from repro.scheduler.fleet import Fleet
from repro.scheduler.policies import (
    FleetDecision,
    FleetPolicy,
    GoalAwareFleetPolicy,
)
from repro.scheduler.registry import ModelRegistry
from repro.scheduler.requests import PlacementRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.scheduler.lifecycle import ChurnStats
    from repro.scheduler.service import ServiceStats
    from repro.serving.online import OnlineStats


@dataclass
class GradedDecision:
    """A policy decision plus the scheduler's post-hoc grading."""

    decision: FleetDecision
    #: Solo performance in the realized placement, relative to the shape's
    #: baseline placement (None for rejected requests).
    achieved_relative: float | None = None
    violated: bool = False
    #: Wall-clock seconds attributed to this request's decision (its
    #: batch's elapsed time divided by the batch length).
    decision_seconds: float = 0.0

    def describe(self) -> str:
        text = self.decision.describe()
        if self.achieved_relative is not None:
            text += f", achieved {self.achieved_relative:.2f}"
            if self.violated:
                text += " [VIOLATION]"
        return text

    def to_dict(self) -> Dict:
        """JSON-safe graded trace (the report format; shard messages
        carry :mod:`repro.scheduler.wire` rows instead)."""
        return {
            "decision": self.decision.to_dict(),
            "achieved_relative": self.achieved_relative,
            "violated": self.violated,
            "decision_seconds": self.decision_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict, machines) -> "GradedDecision":
        return cls(
            decision=FleetDecision.from_dict(data["decision"], machines),
            achieved_relative=data["achieved_relative"],
            violated=data["violated"],
            decision_seconds=data["decision_seconds"],
        )


def grade_decision(
    decision: FleetDecision, fleet: Fleet, registry: ModelRegistry
) -> GradedDecision:
    """Grade one decision: achieved performance in the realized placement
    relative to the shape's baseline, through the registry's simulator.

    Shared by the one-shot :class:`FleetScheduler` and the event-driven
    :class:`~repro.scheduler.lifecycle.LifecycleScheduler`, so both grade
    bit-for-bit identically.  Both IPC evaluations are noise-free and
    deterministic, so they go through the registry's memo
    (:meth:`~repro.scheduler.registry.ModelRegistry.solo_ipc` /
    :meth:`~repro.scheduler.registry.ModelRegistry.baseline_ipc`) —
    repeated (shape, profile, placement) keys cost two row lookups under
    hashes the profile and the placement already hold, not two simulator
    runs per placed container.
    """
    if not decision.placed:
        return GradedDecision(decision)
    request = decision.request
    host = fleet.hosts[decision.host_id]
    achieved = registry.solo_ipc(
        host.machine, request.profile, decision.placement
    ) / registry.baseline_ipc(host.machine, request.vcpus, request.profile)
    violated = (
        request.goal_fraction is not None
        and achieved < request.goal_fraction
    )
    return GradedDecision(
        decision, achieved_relative=float(achieved), violated=violated
    )


@dataclass
class FleetReport:
    """Fleet-level outcome of scheduling one request stream."""

    policy: str
    n_hosts: int
    n_requests: int
    decisions: List[GradedDecision] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    thread_utilization: float = 0.0
    node_utilization: float = 0.0
    busiest_host_utilization: float = 0.0
    #: Memoized important-placement lookups of the reporting registries
    #: (a service report adds its front end's): a miss made the
    #: process-wide enumeration cache run the Algorithm 1-3 pipeline, a
    #: hit was served from a registry's view or from that cache.
    cache_info: CacheInfo | None = None
    #: Pipeline executions those registries caused, naive-mode runs
    #: included.  Whoever asks the cache first is charged; a registry
    #: served from an already warm cache (a shard behind a front end, a
    #: respawned worker) reports 0.
    enumeration_runs: int = 0
    #: Fused forest calls and the prediction vectors they returned.  They
    #: count *probed* requests only: an arrival the goal-aware policy
    #: rejects for capacity off the fleet index is neither probed nor
    #: predicted (a batch rejected whole makes no forest call at all), so
    #: ``predicted_rows`` can be smaller than the requests decided.
    predict_calls: int = 0
    predicted_rows: int = 0
    #: Noise-free IPC memo accounting (the grader's hot path and the
    #: policy's probes — again of probed requests only).
    ipc_cache_info: CacheInfo | None = None
    #: Arena-inference accounting (process-wide, like the block-score
    #: cache): compiled forests, fused multi-forest calls, and total
    #: (row x tree) lanes descended.
    arena_forests: int = 0
    arena_fused_calls: int = 0
    arena_lanes: int = 0
    #: Shared block-score table accounting (per-shape, process-wide).
    blockscore_cache_info: CacheInfo | None = None
    #: Whether the policy consulted the incremental fleet index.
    indexed: bool = True
    #: Lifecycle statistics (departures, migrations, fragmentation
    #: timeline) — only set by the event-driven LifecycleScheduler.
    churn: "ChurnStats | None" = None
    #: Serving-loop statistics (observations, drift, retrains,
    #: promotions) — only set when an OnlineLearner was attached.
    online: "OnlineStats | None" = None
    #: Routing statistics (shards, retries, per-shard load) — only set by
    #: the sharded :class:`~repro.scheduler.service.SchedulerService`.
    service: "ServiceStats | None" = None

    # ------------------------------------------------------------------

    @classmethod
    def collect(
        cls,
        *,
        policy: FleetPolicy,
        fleet: Fleet,
        registry: ModelRegistry,
        n_requests: int,
        decisions: List[GradedDecision],
        elapsed_seconds: float,
        churn: "ChurnStats | None" = None,
        online: "OnlineStats | None" = None,
    ) -> "FleetReport":
        """Assemble a report from end-of-run state — the single place the
        fleet/registry/policy counters are folded in, shared by the
        one-shot and lifecycle schedulers so their reports cannot drift."""
        from repro.core.blockscores import DEFAULT_BLOCK_SCORE_CACHE
        from repro.ml.arena import ARENA_STATS

        per_host = [h.thread_utilization for h in fleet.hosts]
        return cls(
            policy=policy.name,
            n_hosts=len(fleet),
            n_requests=n_requests,
            decisions=decisions,
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
            indexed=getattr(policy, "indexed", True),
            churn=churn,
            online=online,
        )

    @property
    def placed(self) -> int:
        return sum(1 for g in self.decisions if g.decision.placed)

    @property
    def rejected(self) -> int:
        return self.n_requests - self.placed

    @property
    def goal_bearing(self) -> int:
        return sum(
            1
            for g in self.decisions
            if g.decision.request.goal_fraction is not None
        )

    @property
    def violations(self) -> int:
        return sum(1 for g in self.decisions if g.violated)

    @property
    def admission_pct(self) -> float:
        """Placed requests as a percentage of the stream.

        0.0 when the stream was empty or nothing was admitted — every
        percentage the report prints degrades to 0 instead of dividing by
        zero (a drained or fully-rejecting fleet is a reportable state,
        not a crash).
        """
        if self.n_requests == 0:
            return 0.0
        return 100.0 * self.placed / self.n_requests

    @property
    def violation_pct(self) -> float:
        """Goal violations as a percentage of goal-bearing requests;
        0.0 when no goal-bearing request was admitted."""
        if self.goal_bearing == 0:
            return 0.0
        return 100.0 * self.violations / self.goal_bearing

    @property
    def requests_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return float("inf")
        return self.n_requests / self.elapsed_seconds

    def decision_latency_ms(self) -> Tuple[float, float]:
        """(mean, p95) per-request decision latency in milliseconds."""
        if not self.decisions:
            return (0.0, 0.0)
        latencies = np.array([g.decision_seconds for g in self.decisions])
        return (
            float(latencies.mean() * 1000.0),
            float(np.percentile(latencies, 95) * 1000.0),
        )

    def latency_percentiles_ms(
        self, percentiles: Sequence[float] = (50.0, 99.0)
    ) -> Tuple[float, ...]:
        """Per-request decision latency percentiles in milliseconds (the
        service benchmark's p50/p99 headline; zeros with no decisions)."""
        if not self.decisions:
            return tuple(0.0 for _ in percentiles)
        latencies = np.array([g.decision_seconds for g in self.decisions])
        return tuple(
            float(np.percentile(latencies, p) * 1000.0) for p in percentiles
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self, *, include_decisions: bool = True) -> Dict:
        """JSON-safe report.

        With ``include_decisions`` (the default) the payload round-trips
        through :meth:`from_dict` into an equal report — every derived
        property (placed, violations, latency percentiles) recomputes
        from the decision list.  Without it, the payload is a compact
        machine-readable summary (what ``repro serve --emit-json``
        prints): the derived scalars are snapshotted into a ``summary``
        block instead, and ``from_dict`` reconstructs a report with an
        empty decision list.
        """
        mean_ms, p95_ms = self.decision_latency_ms()
        p50_ms, p99_ms = self.latency_percentiles_ms()
        payload: Dict = {
            "policy": self.policy,
            "n_hosts": self.n_hosts,
            "n_requests": self.n_requests,
            "elapsed_seconds": self.elapsed_seconds,
            "thread_utilization": self.thread_utilization,
            "node_utilization": self.node_utilization,
            "busiest_host_utilization": self.busiest_host_utilization,
            "cache_info": (
                None if self.cache_info is None else self.cache_info.to_dict()
            ),
            "enumeration_runs": self.enumeration_runs,
            "predict_calls": self.predict_calls,
            "predicted_rows": self.predicted_rows,
            "ipc_cache_info": (
                None
                if self.ipc_cache_info is None
                else self.ipc_cache_info.to_dict()
            ),
            "arena_forests": self.arena_forests,
            "arena_fused_calls": self.arena_fused_calls,
            "arena_lanes": self.arena_lanes,
            "blockscore_cache_info": (
                None
                if self.blockscore_cache_info is None
                else self.blockscore_cache_info.to_dict()
            ),
            "indexed": self.indexed,
            "churn": None if self.churn is None else self.churn.to_dict(),
            "online": None if self.online is None else self.online.to_dict(),
            "service": (
                None if self.service is None else self.service.to_dict()
            ),
            "summary": {
                "placed": self.placed,
                "rejected": self.rejected,
                "violations": self.violations,
                "admission_pct": self.admission_pct,
                "violation_pct": self.violation_pct,
                "requests_per_second": self.requests_per_second,
                "latency_mean_ms": mean_ms,
                "latency_p50_ms": p50_ms,
                "latency_p95_ms": p95_ms,
                "latency_p99_ms": p99_ms,
            },
        }
        if include_decisions:
            payload["decisions"] = [g.to_dict() for g in self.decisions]
        return payload

    @classmethod
    def from_dict(cls, data: Dict, machines) -> "FleetReport":
        """Inverse of :meth:`to_dict`; a payload without decisions comes
        back with an empty decision list (its derived counts then read 0
        — consult the payload's ``summary`` block for the snapshot)."""
        from repro.scheduler.lifecycle import ChurnStats
        from repro.scheduler.service import ServiceStats
        from repro.serving.online import OnlineStats

        def cache(entry):
            return None if entry is None else CacheInfo.from_dict(entry)

        return cls(
            policy=data["policy"],
            n_hosts=data["n_hosts"],
            n_requests=data["n_requests"],
            decisions=[
                GradedDecision.from_dict(entry, machines)
                for entry in data.get("decisions", [])
            ],
            elapsed_seconds=data["elapsed_seconds"],
            thread_utilization=data["thread_utilization"],
            node_utilization=data["node_utilization"],
            busiest_host_utilization=data["busiest_host_utilization"],
            cache_info=cache(data["cache_info"]),
            enumeration_runs=data["enumeration_runs"],
            predict_calls=data["predict_calls"],
            predicted_rows=data["predicted_rows"],
            ipc_cache_info=cache(data["ipc_cache_info"]),
            arena_forests=data["arena_forests"],
            arena_fused_calls=data["arena_fused_calls"],
            arena_lanes=data["arena_lanes"],
            blockscore_cache_info=cache(data["blockscore_cache_info"]),
            indexed=data["indexed"],
            churn=(
                None
                if data["churn"] is None
                else ChurnStats.from_dict(data["churn"])
            ),
            online=(
                None
                if data["online"] is None
                else OnlineStats.from_dict(data["online"])
            ),
            service=(
                None
                if data["service"] is None
                else ServiceStats.from_dict(data["service"])
            ),
        )

    def rejects_by_reason(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for g in self.decisions:
            if not g.decision.placed:
                reason = g.decision.reject_reason or "unknown"
                reasons[reason] = reasons.get(reason, 0) + 1
        return reasons

    def describe(self) -> str:
        mean_ms, p95_ms = self.decision_latency_ms()
        lines = [
            f"fleet report: {self.n_requests} requests over "
            f"{self.n_hosts} hosts (policy={self.policy})",
            f"  placed {self.placed} ({self.admission_pct:.1f}% admitted), "
            f"rejected {self.rejected}"
            + (
                " ("
                + ", ".join(
                    f"{count} {reason}"
                    for reason, count in sorted(self.rejects_by_reason().items())
                )
                + ")"
                if self.rejected
                else ""
            ),
            f"  goal violations: {self.violations} of "
            f"{self.goal_bearing} goal-bearing requests "
            f"({self.violation_pct:.1f}%)",
            f"  utilization: threads {self.thread_utilization:.1%}, "
            f"nodes reserved {self.node_utilization:.1%}, "
            f"busiest host {self.busiest_host_utilization:.1%}",
            f"  decision latency: mean {mean_ms:.2f} ms, p95 {p95_ms:.2f} ms",
            f"  enumeration pipeline runs: {self.enumeration_runs}"
            + (
                f" (cache: {self.cache_info.hits} hits, "
                f"{self.cache_info.misses} misses)"
                if self.cache_info is not None
                else ""
            ),
            f"  host selection: "
            f"{'indexed (fleet buckets)' if self.indexed else 'linear scan'}"
            + (
                # The table cache is process-wide; only report it for runs
                # whose policy actually consulted tables, and say what the
                # number is (a linear-scan A/B run would otherwise print
                # another run's accumulation as its own).
                f", block-score tables: "
                f"{self.blockscore_cache_info.currsize} shape(s) cached "
                f"process-wide"
                if self.indexed and self.blockscore_cache_info is not None
                else ""
            ),
        ]
        if self.ipc_cache_info is not None and (
            self.ipc_cache_info.hits or self.ipc_cache_info.misses
        ):
            lines.append(
                f"  grading ipc memo: {self.ipc_cache_info.hits} hits, "
                f"{self.ipc_cache_info.misses} simulator runs"
            )
        if self.predict_calls:
            lines.append(
                f"  batched prediction: {self.predicted_rows} vectors in "
                f"{self.predict_calls} fused forest calls"
            )
            lines.append(
                f"  arena inference: {self.arena_forests} forest(s) "
                f"compiled process-wide, {self.arena_fused_calls} fused "
                f"calls, {self.arena_lanes} lanes evaluated"
            )
        if self.churn is not None:
            lines.append(self.churn.describe())
        if self.online is not None:
            lines.append(self.online.describe())
        if self.service is not None:
            lines.append(self.service.describe())
        lines.append(
            f"  elapsed {self.elapsed_seconds:.2f} s -> "
            f"{self.requests_per_second:.1f} requests/s"
        )
        return "\n".join(lines)


class FleetScheduler:
    """Streams requests through a fleet policy in batches.

    Parameters
    ----------
    fleet:
        The hosts.
    policy:
        Any :class:`~repro.scheduler.policies.FleetPolicy`; defaults to the
        goal-aware ML policy with a fresh registry.
    registry:
        Used for post-hoc grading (baseline placements and simulators).
        Defaults to the policy's registry when it has one, so the grader
        shares the policy's caches.
    batch_size:
        Requests decided per policy call.  1 disables batching (the naive
        prediction path).
    """

    def __init__(
        self,
        fleet: Fleet,
        policy: FleetPolicy | None = None,
        *,
        registry: ModelRegistry | None = None,
        batch_size: int = 64,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.fleet = fleet
        self.policy = policy or GoalAwareFleetPolicy()
        if registry is None:
            registry = getattr(self.policy, "registry", None) or ModelRegistry()
        self.registry = registry
        self.batch_size = batch_size

    # ------------------------------------------------------------------

    def _grade(self, decision: FleetDecision) -> GradedDecision:
        return grade_decision(decision, self.fleet, self.registry)

    def run(self, requests: Sequence[PlacementRequest]) -> FleetReport:
        """Schedule the whole stream and return the fleet report."""
        start = time.perf_counter()
        graded: List[GradedDecision] = []
        for begin in range(0, len(requests), self.batch_size):
            batch = requests[begin : begin + self.batch_size]
            batch_start = time.perf_counter()
            decisions = self.policy.decide_batch(batch, self.fleet)
            if len(decisions) != len(batch):
                raise RuntimeError(
                    f"policy {self.policy.name} returned {len(decisions)} "
                    f"decisions for a {len(batch)}-request batch"
                )
            per_request = (time.perf_counter() - batch_start) / len(batch)
            for decision in decisions:
                entry = self._grade(decision)
                entry.decision_seconds = per_request
                graded.append(entry)
        elapsed = time.perf_counter() - start

        return FleetReport.collect(
            policy=self.policy,
            fleet=self.fleet,
            registry=self.registry,
            n_requests=len(requests),
            decisions=graded,
            elapsed_seconds=elapsed,
        )
