"""Versioned model serving: shadow candidates, holdout gates, promotion.

:class:`ModelServer` is the :class:`~repro.scheduler.registry.ModelRegistry`
grown into a serving plane: instead of one frozen model per ``(machine
shape, vcpus)`` key it holds a *version chain* — the active model serving
predictions, plus at most one shadow candidate whose predictions are
logged against the same observations but never acted on.  Promotion is
atomic (one reference swap) and invalidates exactly the memo entries the
retiring version produced:

* the registry's ``baseline_ipc`` memo is version-keyed through
  :meth:`ModelServer.model_version_token`, so stale denominators simply
  stop being addressable (and are purged eagerly);
* the process-wide :class:`~repro.core.blockscores.BlockScoreCache` is
  version-bumped for the shape, dropping the target-score match lists
  the old version's candidate placements populated.

A server with no candidates behaves bit-for-bit like the plain registry —
the fleet equivalence tests assert exactly that.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.blockscores import DEFAULT_BLOCK_SCORE_CACHE
from repro.core.model import PlacementModel
from repro.core.serialize import Record
from repro.scheduler.registry import ModelRegistry
from repro.topology.machine import MachineTopology


class VersionStatus(enum.Enum):
    """Where a model version sits in its lifecycle."""

    SHADOW = "shadow"
    ACTIVE = "active"
    RETIRED = "retired"


@dataclass
class ModelVersion:
    """One entry of a key's version chain.

    ``shadow_errors`` / ``incumbent_errors`` are *paired*: entry ``k`` of
    both lists scores the same live observation, so the holdout gate
    compares the candidate and the incumbent on identical data — the only
    comparison that is fair when the arrival mix itself is drifting.
    """

    version: int
    model: PlacementModel
    status: VersionStatus
    created_time: float
    n_training_rows: int
    #: Workloads newly folded into the corpus for this version (0 for the
    #: initial offline model).
    n_new_workloads: int = 0
    promoted_time: float | None = None
    retired_time: float | None = None
    shadow_errors: List[float] = field(default_factory=list)
    incumbent_errors: List[float] = field(default_factory=list)

    @property
    def n_shadow_observations(self) -> int:
        return len(self.shadow_errors)

    @property
    def shadow_mape_pct(self) -> float | None:
        if not self.shadow_errors:
            return None
        return 100.0 * sum(self.shadow_errors) / len(self.shadow_errors)

    @property
    def incumbent_mape_pct(self) -> float | None:
        if not self.incumbent_errors:
            return None
        return 100.0 * sum(self.incumbent_errors) / len(self.incumbent_errors)

    def describe(self) -> str:
        text = (
            f"v{self.version} [{self.status.value}] "
            f"{self.n_training_rows} rows"
        )
        if self.n_new_workloads:
            text += f" (+{self.n_new_workloads} observed workloads)"
        if self.shadow_errors:
            text += (
                f", shadow MAPE {self.shadow_mape_pct:.1f}% vs incumbent "
                f"{self.incumbent_mape_pct:.1f}% over "
                f"{self.n_shadow_observations} obs"
            )
        return text


@dataclass(frozen=True)
class PromotionRecord(Record):
    """One candidate clearing the holdout gate — the audit trail."""

    time: float
    fingerprint: Tuple
    vcpus: int
    version: int
    shadow_mape_pct: float
    incumbent_mape_pct: float
    n_shadow_observations: int

    def describe(self) -> str:
        return (
            f"t={self.time:9.2f}s promote v{self.version} for "
            f"{self.vcpus}-vCPU partition: shadow MAPE "
            f"{self.shadow_mape_pct:.1f}% beat incumbent "
            f"{self.incumbent_mape_pct:.1f}% over "
            f"{self.n_shadow_observations} paired obs"
        )


class ModelServer(ModelRegistry):
    """A :class:`ModelRegistry` whose models are versioned artifacts.

    Accepts the same constructor arguments as the registry and can be
    dropped in anywhere a registry is used (policies, schedulers, the
    grader).  Until a candidate is promoted it serves exactly what the
    plain registry would serve.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        #: (fingerprint, vcpus) -> version chain, oldest first.
        self._chains: Dict[Tuple, List[ModelVersion]] = {}
        self.promotions: List[PromotionRecord] = []
        self.discarded = 0

    # ------------------------------------------------------------------
    # Version chains
    # ------------------------------------------------------------------

    def _chain(
        self, machine: MachineTopology, vcpus: int
    ) -> List[ModelVersion]:
        key = (machine.fingerprint(), int(vcpus))
        chain = self._chains.get(key)
        if chain is None:
            base = super().model(machine, vcpus)
            chain = [
                ModelVersion(
                    version=1,
                    model=base,
                    status=VersionStatus.ACTIVE,
                    created_time=0.0,
                    n_training_rows=len(self.training_set(machine, vcpus)),
                )
            ]
            self._chains[key] = chain
        return chain

    def active_version(
        self, machine: MachineTopology, vcpus: int
    ) -> ModelVersion:
        for version in reversed(self._chain(machine, vcpus)):
            if version.status is VersionStatus.ACTIVE:
                return version
        raise RuntimeError("version chain has no active entry")  # pragma: no cover

    def shadow_candidate(
        self, machine: MachineTopology, vcpus: int
    ) -> ModelVersion | None:
        """The key's in-flight shadow candidate, if any (at most one)."""
        key = (machine.fingerprint(), int(vcpus))
        for version in reversed(self._chains.get(key, ())):
            if version.status is VersionStatus.SHADOW:
                return version
        return None

    # ------------------------------------------------------------------
    # Registry overrides: serve the active version
    # ------------------------------------------------------------------

    def model(self, machine: MachineTopology, vcpus: int) -> PlacementModel:
        return self.active_version(machine, vcpus).model

    def input_pair(
        self, machine: MachineTopology, vcpus: int
    ) -> Tuple[int, int]:
        key = (machine.fingerprint(), int(vcpus))
        chain = self._chains.get(key)
        if chain is not None:
            pair = self.active_version(machine, vcpus).model.input_pair
            if pair is not None:
                return pair
        return super().input_pair(machine, vcpus)

    def model_version_token(
        self, machine: MachineTopology, vcpus: int
    ) -> int:
        # 1 before the chain exists: the lazily built chain starts at v1,
        # so the token is stable across chain creation and only moves on
        # promotion — which is exactly when baseline_ipc entries may go
        # stale.
        return self._current_version_token(machine.fingerprint(), vcpus)

    def _current_version_token(self, fingerprint: Tuple, vcpus: int) -> int:
        chain = self._chains.get((fingerprint, int(vcpus)))
        if chain is None:
            return 1
        for version in reversed(chain):
            if version.status is VersionStatus.ACTIVE:
                return version.version
        raise RuntimeError(
            "version chain has no active entry"
        )  # pragma: no cover

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------

    def add_candidate(
        self,
        machine: MachineTopology,
        vcpus: int,
        model: PlacementModel,
        *,
        time: float,
        n_training_rows: int,
        n_new_workloads: int = 0,
    ) -> ModelVersion:
        """Append a shadow candidate to the key's chain.

        One candidate at a time: shadow evaluation is a paired comparison
        against the incumbent, and racing candidates would split the
        observation stream into windows too small to gate on.
        """
        chain = self._chain(machine, vcpus)
        if self.shadow_candidate(machine, vcpus) is not None:
            raise ValueError(
                "a shadow candidate is already in flight for this key"
            )
        candidate = ModelVersion(
            version=chain[-1].version + 1,
            model=model,
            status=VersionStatus.SHADOW,
            created_time=time,
            n_training_rows=n_training_rows,
            n_new_workloads=n_new_workloads,
        )
        chain.append(candidate)
        return candidate

    def promote(
        self, machine: MachineTopology, vcpus: int, *, time: float
    ) -> PromotionRecord:
        """Atomically make the shadow candidate the serving model.

        The swap itself is one status flip plus one ``_models`` reference
        assignment; every follow-on effect is cache invalidation scoped to
        exactly this key:

        * stale ``baseline_ipc`` rows (old version token) are purged;
        * the shape's shared block-score tables are version-bumped (their
          memoized target-match lists were built for the old version's
          candidate placements).
        """
        candidate = self.shadow_candidate(machine, vcpus)
        if candidate is None:
            raise ValueError("no shadow candidate to promote for this key")
        incumbent = self.active_version(machine, vcpus)
        fingerprint = machine.fingerprint()
        key = (fingerprint, int(vcpus))

        incumbent.status = VersionStatus.RETIRED
        incumbent.retired_time = time
        candidate.status = VersionStatus.ACTIVE
        candidate.promoted_time = time
        # Rebind this registry's own view to the serving model so any
        # code path reading ModelRegistry state (or bypassing the chain)
        # agrees with the chain.  v1 is shared through the artifact store:
        # it and every sibling registry keep serving it untouched.
        self._models[key] = candidate.model

        stale = [
            memo_key
            for memo_key in self._baseline_ipc
            if memo_key[:2] == key and memo_key[2] != candidate.version
        ]
        for memo_key in stale:
            del self._baseline_ipc[memo_key]
        DEFAULT_BLOCK_SCORE_CACHE.invalidate(fingerprint)
        # Cheap post-condition: the purge above left no entry keyed at a
        # retired version token (the memo-invalidation lint's
        # 'model-promotion-memos' surface, checked statically too).
        self.assert_version_consistency()

        record = PromotionRecord(
            time=time,
            fingerprint=fingerprint,
            vcpus=int(vcpus),
            version=candidate.version,
            shadow_mape_pct=candidate.shadow_mape_pct or 0.0,
            incumbent_mape_pct=candidate.incumbent_mape_pct or 0.0,
            n_shadow_observations=candidate.n_shadow_observations,
        )
        self.promotions.append(record)
        return record

    def discard_candidate(
        self, machine: MachineTopology, vcpus: int, *, time: float
    ) -> ModelVersion:
        """Retire the shadow candidate without promoting it (it failed the
        holdout gate); the incumbent keeps serving untouched."""
        candidate = self.shadow_candidate(machine, vcpus)
        if candidate is None:
            raise ValueError("no shadow candidate to discard for this key")
        candidate.status = VersionStatus.RETIRED
        candidate.retired_time = time
        self.discarded += 1
        return candidate

    def describe_chains(self) -> str:
        if not self._chains:
            return "model server: no version chains yet"
        lines = ["model server version chains:"]
        for (fingerprint, vcpus), chain in self._chains.items():
            name = fingerprint[0] if fingerprint else "?"
            lines.append(
                f"  {name} x{vcpus} vCPUs: "
                + "; ".join(version.describe() for version in chain)
            )
        return "\n".join(lines)
