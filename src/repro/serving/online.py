"""The closed loop: trace -> drift -> retrain -> shadow -> promote.

:class:`OnlineLearner` is what the event-driven
:class:`~repro.scheduler.lifecycle.LifecycleScheduler` calls after grading
each placed ML decision.  One ``observe`` call does the whole lifecycle
step for that observation's ``(machine shape, vcpus)`` partition:

1. close the prediction loop into a
   :class:`~repro.serving.traces.PlacementObservation` (the probe IPCs are
   re-read through the registry's memo, so they are bit-for-bit the values
   the policy predicted from) and record it in the
   :class:`~repro.serving.traces.TraceStore`;
2. update the partition's rolling MAPE
   (:class:`~repro.serving.drift.DriftMonitor`);
3. if a shadow candidate is in flight, score it on this observation
   (prediction logged, never acted on) and run the holdout gate: promote
   when it beats the incumbent on enough paired observations, discard when
   it has had its chance and has not;
4. otherwise, if the partition is drifted and its retrain cooldown has
   passed, build a new candidate from the trace window
   (:class:`~repro.serving.retrain.Retrainer`).

Everything is deterministic in the event stream: no wall clock, no RNG —
replaying a stream replays every retrain and promotion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.core.serialize import Record
from repro.perfsim.simulator import NoiseBatch
from repro.serving.drift import DriftConfig, DriftMonitor
from repro.serving.retrain import RetrainConfig, Retrainer
from repro.serving.server import ModelServer, PromotionRecord
from repro.serving.traces import PlacementObservation, TraceStore
from repro.topology.machine import MachineTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.scheduler.scheduler import GradedDecision


@dataclass(frozen=True)
class OnlineLearningConfig:
    """Knobs of the whole serving loop."""

    #: Simulated probe length; must match the policy's
    #: ``probe_duration_s`` so re-read probes are the predictions' inputs.
    probe_duration_s: float = 3.0
    drift: DriftConfig = field(default_factory=DriftConfig)
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    #: Observations kept per trace-store partition.
    trace_capacity: int = 512
    #: Observations a partition must accumulate between retrains (lets a
    #: freshly promoted model show what it can do before being judged).
    retrain_cooldown: int = 32
    #: Paired shadow observations before the gate may promote.
    shadow_min_observations: int = 16
    #: Paired shadow observations after which a candidate that has not
    #: won is discarded (the slot frees up for a retrain on newer data).
    shadow_max_observations: int = 64

    def __post_init__(self) -> None:
        if self.probe_duration_s <= 0:
            raise ValueError("probe_duration_s must be positive")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be >= 1")
        if self.retrain_cooldown < 0:
            raise ValueError("retrain_cooldown must be >= 0")
        if not (
            1
            <= self.shadow_min_observations
            <= self.shadow_max_observations
        ):
            raise ValueError(
                "need 1 <= shadow_min_observations <= shadow_max_observations"
            )


@dataclass
class OnlineStats(Record):
    """Serving-loop counters carried inside a FleetReport."""

    observations: int = 0
    drift_events: int = 0
    retrains: int = 0
    shadow_discards: int = 0
    promotions: List[PromotionRecord] = field(default_factory=list)
    #: (time, vcpus, rolling MAPE pct | None) per observation — the
    #: drift-recovery trajectory benchmarks plot.
    mape_timeline: List[Tuple[float, int, float | None]] = field(
        default_factory=list
    )

    @property
    def n_promotions(self) -> int:
        return len(self.promotions)

    def final_rolling_mape_pct(self, vcpus: int | None = None) -> float | None:
        """The last recorded rolling MAPE (optionally for one vCPU size)."""
        for time, size, mape in reversed(self.mape_timeline):
            if mape is None:
                continue
            if vcpus is None or size == vcpus:
                return mape
        return None

    def describe(self) -> str:
        lines = [
            f"  online learning: {self.observations} observations, "
            f"{self.drift_events} drift events, {self.retrains} retrains, "
            f"{self.n_promotions} promotions "
            f"({self.shadow_discards} shadow candidates discarded)"
        ]
        for record in self.promotions:
            lines.append(f"    {record.describe()}")
        final = self.final_rolling_mape_pct()
        if final is not None:
            lines.append(f"  final rolling MAPE: {final:.1f}%")
        return "\n".join(lines)


class OnlineLearner:
    """Drives one :class:`ModelServer` from a fleet's graded decisions."""

    def __init__(
        self,
        server: ModelServer,
        config: OnlineLearningConfig | None = None,
    ) -> None:
        self.server = server
        self.config = config or OnlineLearningConfig()
        self.traces = TraceStore(
            capacity_per_partition=self.config.trace_capacity
        )
        self.monitor = DriftMonitor(self.config.drift)
        self.retrainer = Retrainer(server, self.config.retrain)
        self.stats = OnlineStats()
        #: Partition -> observations seen since its last retrain.
        self._since_retrain: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------

    def observe(
        self,
        machine: MachineTopology,
        graded: "GradedDecision",
        time: float,
    ) -> PlacementObservation | None:
        """Fold one graded decision into the loop.

        Only model-driven placements close the loop (heuristic policies
        make no prediction to score); anything else returns None.
        """
        decision = graded.decision
        if (
            not decision.placed
            or decision.placement_id is None
            or decision.predicted_relative is None
            or graded.achieved_relative is None
        ):
            return None
        request = decision.request
        fingerprint = machine.fingerprint()
        partition = (fingerprint, request.vcpus)

        active = self.server.active_version(machine, request.vcpus)
        placements = self.server.placements(machine, request.vcpus)
        i, j = active.model.input_pair
        # Bit-for-bit the probes the policy predicted from: the same memo,
        # the same repetition keys, both drawn in one NoiseBatch.
        probes = [
            (placements[k], self.server.probe_row(machine, placements[k]))
            for k in (i, j)
        ]
        noise = NoiseBatch(self.config.probe_duration_s)
        for (placement, row), repetition in zip(
            probes, (request.request_id, request.request_id + 1)
        ):
            noise.add(
                row.simulator, [request.profile], placement, [repetition], row.prefixes
            )
        (probe_i,), (probe_j,) = (
            self.server.probe_ipc_batch(
                machine, [request.profile], placement, multipliers=drawn, row=row
            )
            for (placement, row), drawn in zip(probes, noise.multipliers())
        )
        observation = PlacementObservation(
            time=time,
            request_id=request.request_id,
            fingerprint=fingerprint,
            vcpus=request.vcpus,
            profile=request.profile,
            placement_id=decision.placement_id,
            probe_i=probe_i,
            probe_j=probe_j,
            predicted_relative=decision.predicted_relative,
            achieved_relative=graded.achieved_relative,
            model_version=active.version,
            block_exact=decision.block_exact,
        )
        self.traces.record(observation)
        self.stats.observations += 1
        self._since_retrain[partition] = (
            self._since_retrain.get(partition, self.config.retrain_cooldown)
            + 1
        )

        drifted = self.monitor.observe(observation)
        if drifted:
            self.stats.drift_events += 1

        candidate = self.server.shadow_candidate(machine, request.vcpus)
        if candidate is not None:
            self._score_shadow(machine, observation, candidate)
        elif drifted and (
            self._since_retrain[partition] > self.config.retrain_cooldown
        ):
            built = self.retrainer.retrain(
                machine,
                request.vcpus,
                self.traces.recent(fingerprint, request.vcpus),
                time=time,
            )
            if built is not None:
                self.stats.retrains += 1
                self._since_retrain[partition] = 0

        self.stats.mape_timeline.append(
            (
                time,
                request.vcpus,
                self.monitor.rolling_mape_pct(fingerprint, request.vcpus),
            )
        )
        return observation

    # ------------------------------------------------------------------

    def _score_shadow(
        self,
        machine: MachineTopology,
        observation: PlacementObservation,
        candidate,
    ) -> None:
        """Log the candidate's prediction for this observation and run the
        holdout gate."""
        shadow_vector = candidate.model.predict(
            observation.probe_i, observation.probe_j
        )
        shadow_predicted = float(
            shadow_vector[observation.placement_id - 1]
        )
        actual = observation.achieved_relative
        candidate.shadow_errors.append(
            abs(shadow_predicted - actual) / abs(actual)
        )
        candidate.incumbent_errors.append(observation.error_fraction)

        n = candidate.n_shadow_observations
        if n < self.config.shadow_min_observations:
            return
        if candidate.shadow_mape_pct < candidate.incumbent_mape_pct:
            self.server.promote(
                machine, observation.vcpus, time=observation.time
            )
            # The new model starts with a clean rolling window and a
            # fresh retrain cooldown — its MAPE must describe it, not
            # its predecessor, and it gets the configured grace period
            # before it can itself be judged drifted and replaced.
            self.monitor.reset(observation.fingerprint, observation.vcpus)
            self._since_retrain[
                (observation.fingerprint, observation.vcpus)
            ] = 0
            self.stats.promotions = self.server.promotions
        elif n >= self.config.shadow_max_observations:
            self.server.discard_candidate(
                machine, observation.vcpus, time=observation.time
            )
            self.stats.shadow_discards = self.server.discarded
