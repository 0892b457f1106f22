"""Migration planning: is online placement worth the move?

Section 7 closes with the operational guidance this module encodes: "the
migration overhead is proportional to the amount of memory used by the
container ... Using the container's memory footprint, the user can estimate
whether the migration cost warrants an online deployment of the placement
algorithm, or if it is preferable to use it offline for placement of
recurring jobs."

The fleet scheduler consumes this advice live: the lifecycle engine's
rebalancer (:class:`repro.scheduler.lifecycle.LifecycleScheduler`) calls
:meth:`MigrationPlanner.advise` for every candidate container move when a
request is rejected due to fragmentation, skips containers the planner
deems offline-only, and executes a plan only when the summed migration
time beats the configured rejection penalty
(:class:`repro.scheduler.lifecycle.RebalanceConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.migration.engines import (
    DefaultLinuxMigrator,
    FastMigrator,
    MigrationEngine,
    MigrationResult,
    ThrottledMigrator,
)
from repro.migration.memory import ContainerMemory
from repro.perfsim.workload import WorkloadProfile

#: Distinct ``(profile, probe_migrations)`` pairs a planner remembers
#: advice for before it starts over (jittered streams mint a profile per
#: request).
_ADVICE_MEMO_MAX = 4096


@dataclass(frozen=True)
class MigrationAdvice:
    """Recommendation for one container."""

    memory: ContainerMemory
    recommended: str  # engine name, or "offline"
    results: Mapping  # engine name -> MigrationResult (read-only)
    probe_migrations: int
    total_probe_seconds: float
    reason: str


class MigrationPlanner:
    """Chooses a migration strategy for the online placement workflow.

    The online workflow (Section 1, step 4) runs the container in two
    placements and then moves it to the chosen one, so up to
    ``probe_migrations`` migrations happen during the probing phase.

    Parameters
    ----------
    latency_sensitive_threshold:
        Containers whose ``comm_latency_sensitivity`` exceeds this are not
        frozen; they get the throttled engine.
    max_online_seconds:
        If even the best engine needs more probing time than this, advise
        computing the placement offline (for recurring jobs).

    Advice is a pure function of the profile, ``probe_migrations`` and
    the three settings above, which nothing changes after construction,
    so :meth:`advise` keeps what it computed (a fleet runs a few dozen
    distinct profiles and the rebalancer asks about every container on
    the host it consolidates, on every fragmentation reject).
    """

    def __init__(
        self,
        *,
        engines: Sequence[MigrationEngine] | None = None,
        latency_sensitive_threshold: float = 0.7,
        max_online_seconds: float = 180.0,
    ) -> None:
        if engines is None:
            engines = (DefaultLinuxMigrator(), FastMigrator(), ThrottledMigrator())
        if not engines:
            raise ValueError("at least one engine is required")
        self.engines = list(engines)
        self.latency_sensitive_threshold = latency_sensitive_threshold
        self.max_online_seconds = max_online_seconds
        self._advice: Dict[Tuple[WorkloadProfile, int], MigrationAdvice] = {}

    def evaluate(self, memory: ContainerMemory) -> dict:
        """Cost of every engine for this container."""
        return {engine.name: engine.migrate(memory) for engine in self.engines}

    def advise(
        self,
        profile: WorkloadProfile,
        *,
        probe_migrations: int = 2,
    ) -> MigrationAdvice:
        """Pick an engine (or recommend offline placement) for a workload.

        The lifecycle rebalancer calls this with ``probe_migrations=1``
        (a rebalancing move is a single migration, not a probe pair) and
        treats a ``"offline"`` recommendation as "this container is too
        expensive to move online — pick another victim".
        """
        if probe_migrations < 1:
            raise ValueError("probe_migrations must be >= 1")
        key = (profile, probe_migrations)
        advice = self._advice.get(key)
        if advice is None:
            if len(self._advice) >= _ADVICE_MEMO_MAX:
                self._advice.clear()
            advice = self._advice[key] = self._advise(
                profile, probe_migrations
            )
        return advice

    def _advise(
        self, profile: WorkloadProfile, probe_migrations: int
    ) -> MigrationAdvice:
        memory = ContainerMemory.from_profile(profile)
        # Remembered advice is shared by every caller: hand out a view.
        results = MappingProxyType(self.evaluate(memory))

        latency_sensitive = (
            profile.comm_latency_sensitivity > self.latency_sensitive_threshold
        )
        candidates: List[str] = []
        for engine in self.engines:
            if latency_sensitive and engine.freezes_container:
                continue
            if isinstance(engine, DefaultLinuxMigrator):
                # Strictly dominated for our purposes: slower and loses the
                # page cache; kept in results for comparison only.
                continue
            candidates.append(engine.name)
        if not candidates:
            candidates = [self.engines[0].name]

        best = min(candidates, key=lambda name: results[name].seconds)
        total = probe_migrations * results[best].seconds
        if total > self.max_online_seconds:
            return MigrationAdvice(
                memory=memory,
                recommended="offline",
                results=results,
                probe_migrations=probe_migrations,
                total_probe_seconds=total,
                reason=(
                    f"probing would spend {total:.0f}s migrating "
                    f"{memory.total_gb:.1f} GB; compute the placement "
                    f"offline and reuse it for recurring runs"
                ),
            )
        label = (
            "non-freezing (latency-sensitive)"
            if latency_sensitive
            else best
        )
        reason = (
            f"{label} migration moves {memory.total_gb:.1f} GB in "
            f"{results[best].seconds:.1f}s"
        )
        return MigrationAdvice(
            memory=memory,
            recommended=best,
            results=results,
            probe_migrations=probe_migrations,
            total_probe_seconds=total,
            reason=reason,
        )
