"""Tests for the online learner: the trace->drift->retrain->promote loop."""

import pytest

from repro.perfsim import simulator as simulator_module
from repro.perfsim.simulator import MEASURED_IPC_NOISE
from repro.scheduler import (
    Fleet,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    drift_phase_schedule,
    generate_churn_stream,
)
from repro.serving import (
    DriftConfig,
    ModelServer,
    OnlineLearner,
    OnlineLearningConfig,
    RetrainConfig,
)
from repro.topology import amd_opteron_6272
from tests.perfsim.oracle_noise import noise_multiplier


def _stream(n=220, seed=11):
    return generate_churn_stream(
        n,
        seed=seed,
        arrival_rate=2.0,
        mean_lifetime=25.0,
        vcpus_choices=(8,),
        phases=drift_phase_schedule(),
    )


def _run(learner_config=None, *, n=220, server=None):
    server = server or ModelServer(seed=0)
    learner = (
        OnlineLearner(server, learner_config)
        if learner_config is not None
        else None
    )
    engine = LifecycleScheduler(
        Fleet.homogeneous(amd_opteron_6272(), 6),
        GoalAwareFleetPolicy(server),
        config=RebalanceConfig(),
        online=learner,
    )
    return engine.run(_stream(n)), server, learner


class TestOnlineLearnerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineLearningConfig(probe_duration_s=0)
        with pytest.raises(ValueError):
            OnlineLearningConfig(trace_capacity=0)
        with pytest.raises(ValueError):
            OnlineLearningConfig(
                shadow_min_observations=5, shadow_max_observations=4
            )

    def test_learner_must_drive_the_schedulers_registry(self):
        server = ModelServer(seed=0)
        other = ModelServer(seed=0)
        with pytest.raises(ValueError, match="own"):
            LifecycleScheduler(
                Fleet.homogeneous(amd_opteron_6272(), 2),
                GoalAwareFleetPolicy(server),
                online=OnlineLearner(other),
            )

    def test_probe_duration_must_match_the_policy(self):
        server = ModelServer(seed=0)
        with pytest.raises(ValueError, match="probe_duration_s"):
            LifecycleScheduler(
                Fleet.homogeneous(amd_opteron_6272(), 2),
                GoalAwareFleetPolicy(server, probe_duration_s=1.0),
                online=OnlineLearner(server),
            )


class TestObservationFiltering:
    def test_heuristic_decisions_are_ignored(self):
        from repro.scheduler.scheduler import GradedDecision
        from repro.scheduler.policies import FleetDecision
        from repro.scheduler.requests import generate_request_stream

        server = ModelServer(seed=0)
        learner = OnlineLearner(server)
        request = generate_request_stream(1, seed=0)[0]
        rejected = GradedDecision(
            FleetDecision(request, reject_reason="capacity")
        )
        assert (
            learner.observe(amd_opteron_6272(), rejected, 0.0) is None
        )
        assert learner.stats.observations == 0


class TestObservationProbes:
    def test_probes_are_one_draw_of_two_rows_and_the_oracles(self, monkeypatch):
        """Each placed observation re-reads its two probes in one kernel
        call of two rows, and each probe is its memo row's noise-free IPC
        times the oracle's draw for the request's repetition keys."""
        calls = []
        kernel = simulator_module.standard_normals

        def counting(seeds):
            calls.append(len(seeds))
            return kernel(seeds)

        monkeypatch.setattr(simulator_module, "standard_normals", counting)
        seen = []

        class Recording(OnlineLearner):
            def observe(self, machine, graded, time):
                before = len(calls)
                observation = super().observe(machine, graded, time)
                if observation is not None:
                    seen.append((machine, observation, calls[before:]))
                return observation

        server = ModelServer(seed=0)
        learner = Recording(
            server, OnlineLearningConfig(drift=DriftConfig(threshold_pct=1e9))
        )
        LifecycleScheduler(
            Fleet.homogeneous(amd_opteron_6272(), 2),
            GoalAwareFleetPolicy(server),
            config=RebalanceConfig(),
            online=learner,
        ).run(_stream(40))
        assert len(seen) >= 10
        for machine, observation, drawn in seen:
            assert drawn == [2]
            placements = server.placements(machine, observation.vcpus)
            i, j = server.input_pair(machine, observation.vcpus)
            simulator = server.simulator(machine)
            for probe, k, repetition in (
                (observation.probe_i, i, observation.request_id),
                (observation.probe_j, j, observation.request_id + 1),
            ):
                placement = placements[k]
                assert probe == server.solo_ipc(
                    machine, observation.profile, placement
                ) * noise_multiplier(
                    simulator,
                    observation.profile,
                    placement,
                    learner.config.probe_duration_s,
                    repetition,
                    MEASURED_IPC_NOISE,
                )


@pytest.mark.slow
class TestDriftRecoveryEndToEnd:
    """The acceptance loop: a frozen model degrades across the phase
    shift; the online loop retrains, promotes through the holdout gate,
    and recovers."""

    @pytest.fixture(scope="class")
    def runs(self):
        # Frozen baseline: a learner that observes (so rolling MAPE is
        # recorded identically) but can never retrain.
        frozen_config = OnlineLearningConfig(
            drift=DriftConfig(threshold_pct=1e9)
        )
        online_config = OnlineLearningConfig(
            drift=DriftConfig(window=32, min_observations=16, threshold_pct=10.0),
            retrain=RetrainConfig(max_new_workloads=24, n_grow=16),
            retrain_cooldown=16,
            shadow_min_observations=12,
            shadow_max_observations=48,
        )
        frozen = _run(frozen_config)
        online = _run(online_config)
        return frozen, online

    def test_frozen_model_degrades_across_shift(self, runs):
        (report, _, learner), _ = runs
        timeline = [m for _, _, m in learner.stats.mape_timeline if m is not None]
        early = min(timeline)
        late = max(timeline[len(timeline) // 2 :])
        assert late > 2 * early
        assert learner.stats.retrains == 0
        assert report.online is learner.stats

    def test_online_model_promotes_and_recovers(self, runs):
        (_, _, frozen_learner), (report, server, learner) = runs
        assert learner.stats.retrains >= 1
        assert learner.stats.n_promotions >= 1
        promoted = server.promotions[0]
        assert promoted.shadow_mape_pct < promoted.incumbent_mape_pct
        # After retraining, the serving model's rolling MAPE ends strictly
        # below the frozen model's on the same stream.
        frozen_final = frozen_learner.stats.final_rolling_mape_pct()
        online_final = learner.stats.final_rolling_mape_pct()
        assert online_final is not None and frozen_final is not None
        assert online_final < frozen_final

    def test_frozen_decisions_match_plain_registry(self, runs):
        """A learner that never promotes must not change any decision:
        shadow predictions are logged, not acted on."""
        (report, _, _), _ = runs
        registry = ModelRegistry(seed=0)
        engine = LifecycleScheduler(
            Fleet.homogeneous(amd_opteron_6272(), 6),
            GoalAwareFleetPolicy(registry),
            config=RebalanceConfig(),
        )
        baseline = engine.run(_stream())

        def fingerprints(rep):
            return [
                (
                    g.decision.request.request_id,
                    g.decision.host_id,
                    None
                    if g.decision.placement is None
                    else g.decision.placement.nodes,
                    g.decision.reject_reason,
                    g.achieved_relative,
                )
                for g in rep.decisions
            ]

        assert fingerprints(report) == fingerprints(baseline)

    def test_report_describe_covers_online_lines(self, runs):
        _, (report, _, _) = runs
        text = report.describe()
        assert "online learning:" in text
        assert "promote v" in text
        assert "final rolling MAPE" in text
