"""Graded decisions and the fleet report.

:func:`grade_decision` grades one placed container — achieved
performance relative to the shape's baseline placement, measured through
the per-shape simulator — and :class:`FleetReport` is what a run of the
lifecycle engine (:class:`~repro.scheduler.lifecycle.LifecycleScheduler`)
or of the sharded service reports.  There is one engine: a one-shot
stream, where nothing ever leaves, is the lifecycle engine's ``run`` over
arrivals alone, decided ``window`` requests per policy batch with the
rebalancer off.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.memo import CacheInfo
from repro.core.serialize import Record
from repro.scheduler.fleet import Fleet
from repro.scheduler.policies import FleetDecision
from repro.scheduler.registry import ModelRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.scheduler.lifecycle import ChurnStats
    from repro.scheduler.service import ServiceStats
    from repro.serving.online import OnlineStats


@dataclass(slots=True)
class GradedDecision(Record):
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


def grade_decision(
    decision: FleetDecision, fleet: Fleet, registry: ModelRegistry
) -> GradedDecision:
    """Grade one decision: achieved performance in the realized placement
    relative to the shape's baseline, through the registry's simulator.

    The lifecycle engine grades every arrival with it, and re-grades a
    container the rebalancer moved.  Both IPC evaluations are noise-free and
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
class FleetReport(Record):
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
    #: Pipeline executions those registries caused.  Whoever asks the
    #: cache first is charged; a registry served from an already warm
    #: cache (a shard behind a front end, a respawned worker) reports 0.
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
    #: Lifecycle statistics (departures, migrations, fragmentation
    #: timeline); every run of the lifecycle engine or the service sets it.
    churn: "ChurnStats | None" = None
    #: Serving-loop statistics (observations, drift, retrains,
    #: promotions) — only set when an OnlineLearner was attached.
    online: "OnlineStats | None" = None
    #: Routing statistics (shards, retries, per-shard load) — only set by
    #: the sharded :class:`~repro.scheduler.service.SchedulerService`.
    service: "ServiceStats | None" = None

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

    def to_dict(self, *, include_decisions: bool = True) -> Dict:
        """The fields, a ``summary`` block of derived scalars, then the
        decisions.  Without ``include_decisions`` (what ``repro serve
        --emit-json`` prints) the summary is all that is left of them,
        and :meth:`from_dict` rebuilds a report with none."""
        shown = self if include_decisions else replace(self, decisions=[])
        payload = super(FleetReport, shown).to_dict()
        decisions = payload.pop("decisions")
        mean_ms, p95_ms = self.decision_latency_ms()
        p50_ms, p99_ms = self.latency_percentiles_ms()
        payload["summary"] = {
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
        }
        if include_decisions:
            payload["decisions"] = decisions
        return payload

    @classmethod
    def from_dict(cls, data: Dict, machines=None) -> "FleetReport":
        """Inverse of :meth:`to_dict`, dropping the derived summary."""
        values = dict(data)
        values.pop("summary", None)
        # The modules of these fields' records import this one, so their
        # annotations here resolve by name once the module is loaded: load
        # each only when a payload carries its field.
        if values.get("churn") is not None:
            import repro.scheduler.lifecycle  # noqa: F401
        if values.get("service") is not None:
            import repro.scheduler.service  # noqa: F401
        if values.get("online") is not None:
            import repro.serving.online  # noqa: F401
        return super().from_dict(values, machines)

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
        ]
        if self.blockscore_cache_info is not None:
            # The table cache is process-wide: say so, or a run would
            # seem to claim another run's accumulation as its own.
            lines.append(
                f"  block-score tables: "
                f"{self.blockscore_cache_info.currsize} shape(s) cached "
                f"process-wide"
            )
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

