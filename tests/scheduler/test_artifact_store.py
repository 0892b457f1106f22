"""The process-wide artifact store behind every ``ModelRegistry``.

The contracts under test:

* **Train once per process** — registries with equal parameters are served
  the *same* placement sets (from the process-wide enumeration cache),
  training sets and models, and a store-served model predicts bit-for-bit
  what a fresh enumerate/simulate/fit does.
* **Content keys** — any of seed, forest size, corpus size, vCPU count or
  machine fingerprint differing yields a different entry.
* **Shared means immutable** — stored matrices and arena arrays are
  read-only; promotion and retraining on one registry rebind only that
  registry's view.
* **Bounded** — LRU eviction at the cap, and an evicted key re-trains to an
  equal model.
* **HPE rows on first read** — serving and online retraining never measure
  a hardware-event row; a stored set measures its rows the first time they
  are read, equal to the eager loop and read-only.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.enumeration import enumerate_important_placements
from repro.core.memo import (
    DEFAULT_ENUMERATION_CACHE,
    cached_enumerate_important_placements,
)
from repro.core.model import HpeModel, PlacementModel
from repro.core.training import build_training_set
from repro.experiments import training_corpus
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.hpe import HpeMonitor
from repro.perfsim.simulator import PerformanceSimulator
from repro.scheduler import (
    Fleet,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    ScheduleConfig,
    SchedulerService,
    drift_phase_schedule,
    generate_churn_stream,
)
from repro.scheduler.artifacts import ArtifactStore
from repro.scheduler.policies import is_model_driven
from repro.serving import (
    DriftConfig,
    ModelServer,
    OnlineLearner,
    OnlineLearningConfig,
    RetrainConfig,
    Retrainer,
)
from repro.topology import PRESETS, amd_opteron_6272, intel_xeon_e7_4830_v3
from tests.core.test_model_training import eager_hpe_rows
from tests.ml.test_arena import _fleet_keys
from tests.serving.test_retrain import _trace

ROOT = Path(__file__).resolve().parents[2]
SMALL = dict(n_estimators=6, n_synthetic=2, seed=0)
PROBES = (np.array([0.7, 0.9, 1.3]), np.array([1.1, 0.8, 1.2]))


@pytest.fixture(scope="module")
def machine():
    return amd_opteron_6272()


def _train(store, machine, vcpus=8, *, seed=0, n_estimators=6, n_synthetic=2):
    placements = cached_enumerate_important_placements(machine, vcpus)
    return store.get(
        machine,
        vcpus,
        placements=placements,
        input_pair=(0, len(placements) - 1),
        seed=seed,
        n_estimators=n_estimators,
        n_synthetic=n_synthetic,
    )


class TestSharing:
    def test_equal_registries_are_served_the_same_objects(
        self, machine, empty_artifact_store
    ):
        first, second = ModelRegistry(**SMALL), ModelRegistry(**SMALL)
        model = first.model(machine, 8)
        assert second.model(machine, 8) is model
        assert second.placements(machine, 8) is first.placements(machine, 8)
        assert second.training_set(machine, 8) is first.training_set(machine, 8)
        # One enumeration and one fit, both charged to whoever asked first.
        assert empty_artifact_store.info().misses == 1
        assert empty_artifact_store.info().hits == 1
        assert (first.enumeration_runs(), second.enumeration_runs()) == (1, 0)
        assert second.enumeration_info().hits > 0

    def test_model_server_chain_starts_from_the_shared_model(self, machine):
        registry, server = ModelRegistry(**SMALL), ModelServer(**SMALL)
        assert server.model(machine, 8) is registry.model(machine, 8)
        assert server._chain(machine, 8)[0].model is registry.model(machine, 8)

    def test_store_model_predicts_what_a_fresh_fit_does(self, machine):
        registry = ModelRegistry(**SMALL)
        served = registry.model(machine, 8)
        placements = enumerate_important_placements(machine, 8)
        pair = (0, len(placements) - 1)
        training_set = build_training_set(
            machine,
            8,
            training_corpus(seed=SMALL["seed"] + 42, n_synthetic=SMALL["n_synthetic"]),
            simulator=PerformanceSimulator(machine, seed=SMALL["seed"]),
            baseline_index=pair[0],
        )
        fresh = PlacementModel(
            input_pair=pair,
            n_estimators=SMALL["n_estimators"],
            random_state=SMALL["seed"],
        ).fit(training_set)
        assert served.input_pair == pair
        np.testing.assert_array_equal(
            registry.training_set(machine, 8).ipc, training_set.ipc
        )
        np.testing.assert_array_equal(
            served.predict_batch(*PROBES), fresh.predict_batch(*PROBES)
        )


class TestContentKeys:
    @pytest.mark.parametrize(
        "other",
        [
            dict(SMALL, seed=1),
            dict(SMALL, n_estimators=7),
            dict(SMALL, n_synthetic=3),
        ],
        ids=["seed", "n_estimators", "n_synthetic"],
    )
    def test_a_differing_parameter_is_a_different_entry(
        self, machine, other, empty_artifact_store
    ):
        base = ModelRegistry(**SMALL).model(machine, 8)
        assert ModelRegistry(**other).model(machine, 8) is not base
        info = empty_artifact_store.info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_vcpus_and_fingerprint_are_part_of_the_key(
        self, machine, empty_artifact_store
    ):
        registry = ModelRegistry(**SMALL)
        intel = intel_xeon_e7_4830_v3()
        models = [
            registry.model(machine, 8),
            registry.model(machine, 16),
            registry.model(intel, 8),
        ]
        assert len({id(model) for model in models}) == 3
        assert empty_artifact_store.info().currsize == 3
        assert DEFAULT_ENUMERATION_CACHE.info().misses == 3


def _spy_hpe(monkeypatch) -> list:
    """Count ``HpeMonitor.measure`` calls from here on."""
    calls = []
    measure = HpeMonitor.measure

    def spy(self, *args, **kwargs):
        calls.append(args[0].name)
        return measure(self, *args, **kwargs)

    monkeypatch.setattr(HpeMonitor, "measure", spy)
    return calls


class TestDeferredHpe:
    @pytest.mark.parametrize("name, vcpus", _fleet_keys())
    def test_every_fleet_key_measures_the_eager_rows_on_first_read(
        self, name, vcpus, empty_artifact_store, monkeypatch
    ):
        machine = PRESETS[name]()
        calls = _spy_hpe(monkeypatch)
        training_set = ModelRegistry(seed=0).training_set(machine, vcpus)
        assert calls == []  # trained, fitted and sealed without one row
        features = training_set.hpe_features
        assert calls == training_set.names
        expected, names = eager_hpe_rows(
            training_set, PerformanceSimulator(machine, seed=0)
        )
        np.testing.assert_array_equal(features, expected)
        assert training_set.hpe_names == names
        assert training_set.hpe_features is features  # measured once
        with pytest.raises(ValueError, match="read-only"):
            features[0, 0] = 0

    def test_serving_measures_no_row_and_the_hpe_model_does(
        self, empty_artifact_store, monkeypatch
    ):
        calls = _spy_hpe(monkeypatch)
        stream = dict(
            requests=40,
            seed=3,
            churn=True,
            vcpus=(8, 16, 32),
            arrival_rate=2.0,
            mean_lifetime=20.0,
        )
        config = ScheduleConfig(machine="mixed", hosts=8, **stream)
        registry = config.build_registry()
        LifecycleScheduler(
            config.build_fleet(), config.build_policy(registry), registry=registry
        ).run(config.build_stream(), window=1)
        assert empty_artifact_store.info().misses >= 1
        empty_artifact_store.clear()
        with SchedulerService(
            ScheduleConfig(machine="amd", hosts=8, shards=2, window=4, **stream)
        ) as service:
            service.serve()
        assert empty_artifact_store.info().misses >= 1
        assert calls == []

        # Online learning: every retrain extends the key's corpus and
        # warm-refits on the vectors alone.
        server = ModelServer(seed=0)
        learner = OnlineLearner(
            server,
            OnlineLearningConfig(
                drift=DriftConfig(window=8, min_observations=4, threshold_pct=0.01),
                retrain=RetrainConfig(max_new_workloads=4, n_grow=2),
                retrain_cooldown=4,
                shadow_min_observations=2,
                shadow_max_observations=4,
            ),
        )
        LifecycleScheduler(
            Fleet.homogeneous(amd_opteron_6272(), 4),
            GoalAwareFleetPolicy(server),
            config=RebalanceConfig(),
            online=learner,
        ).run(
            generate_churn_stream(
                60,
                seed=11,
                arrival_rate=2.0,
                mean_lifetime=25.0,
                vcpus_choices=(8,),
                phases=drift_phase_schedule(),
            )
        )
        assert learner.stats.retrains >= 2
        assert calls == []

        HpeModel(features=["LLC_MISSES"], n_estimators=4, random_state=0).fit(
            registry.training_set(amd_opteron_6272(), 8)
        )
        assert calls


class TestImmutability:
    def test_writing_to_a_stored_matrix_raises(self, machine):
        registry = ModelRegistry(**SMALL)
        training_set = registry.training_set(machine, 8)
        arena = registry.model(machine, 8).forest.arena()
        for array in (
            training_set.ipc,
            training_set.vectors,
            training_set.hpe_features,
            arena.leaf_values,
            *(table for _, _, table in arena.bit_tables),
            *arena.arrays(),
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_promotion_leaves_the_sibling_and_the_store_alone(self, machine):
        promoting, sibling = ModelServer(**SMALL), ModelServer(**SMALL)
        shared = sibling.model(machine, 8)
        before = shared.predict_batch(*PROBES)
        candidate = promoting.add_candidate(
            machine,
            8,
            promoting.model(machine, 8).warm_refit(
                promoting.training_set(machine, 8), n_grow=2
            ),
            time=1.0,
            n_training_rows=len(promoting.training_set(machine, 8)),
        )
        promoting.promote(machine, 8, time=2.0)

        assert promoting.model(machine, 8) is candidate.model
        assert promoting.model_version_token(machine, 8) == 2
        assert sibling.model(machine, 8) is shared
        assert sibling.model_version_token(machine, 8) == 1
        assert [v.version for v in sibling._chain(machine, 8)] == [1]
        # A registry built afterwards is still served the original.
        assert ModelRegistry(**SMALL).model(machine, 8) is shared
        np.testing.assert_array_equal(shared.predict_batch(*PROBES), before)

    def test_retraining_leaves_the_sibling_and_the_store_alone(self, machine):
        retraining, sibling = ModelServer(**SMALL), ModelServer(**SMALL)
        shared_set = sibling.training_set(machine, 8)
        rows, matrix = len(shared_set), shared_set.ipc.copy()
        profiles = WorkloadGenerator(seed=77, namespace="live").sample(3)
        candidate = Retrainer(retraining, RetrainConfig(n_grow=2)).retrain(
            machine,
            8,
            [_trace(machine, profile, k) for k, profile in enumerate(profiles)],
            time=1.0,
        )
        assert candidate is not None
        assert len(retraining.training_set(machine, 8)) == rows + 3
        assert sibling.training_set(machine, 8) is shared_set
        assert ModelRegistry(**SMALL).training_set(machine, 8) is shared_set
        assert len(shared_set) == rows
        np.testing.assert_array_equal(shared_set.ipc, matrix)
        assert sibling.shadow_candidate(machine, 8) is None


class TestBound:
    def test_info_and_clear(self, machine):
        store = ArtifactStore()
        _train(store, machine)
        _train(store, machine)
        assert store.info().to_dict() == {"hits": 1, "misses": 1, "currsize": 1}
        store.clear()
        assert store.info().to_dict() == {"hits": 0, "misses": 0, "currsize": 0}

    def test_least_recently_used_entry_is_evicted(self, machine):
        store = ArtifactStore(maxsize=2)
        first = _train(store, machine, seed=0)
        second = _train(store, machine, seed=1)
        assert _train(store, machine, seed=0) is first  # refreshes its turn
        _train(store, machine, seed=2)  # evicts seed 1
        assert store.info().currsize == 2
        assert _train(store, machine, seed=0) is first
        assert _train(store, machine, seed=1) is not second

    def test_an_evicted_key_retrains_to_an_equal_model(self, machine):
        store = ArtifactStore(maxsize=1)
        before = _train(store, machine, seed=0)
        _train(store, machine, seed=1)
        after = _train(store, machine, seed=0)
        assert after is not before
        assert store.info().misses == 3
        np.testing.assert_array_equal(
            after.training_set.ipc, before.training_set.ipc
        )
        np.testing.assert_array_equal(
            after.model.predict_batch(*PROBES),
            before.model.predict_batch(*PROBES),
        )

    def test_rejects_an_empty_bound(self):
        with pytest.raises(ValueError):
            ArtifactStore(maxsize=0)


class TestServiceWarmUp:
    """``SchedulerService`` trains the keys it will route before it
    creates its clients — and only when that is what the shards would do."""

    BASE = dict(machine="amd", hosts=4, requests=8, seed=3, shards=2)

    def _trained_at_construction(self, **fields):
        with SchedulerService(ScheduleConfig(**self.BASE, **fields)) as service:
            return service._registry.enumeration_runs()

    def test_model_driven_policy_trains_every_routable_key(
        self, empty_artifact_store
    ):
        # 10 vCPUs cannot be hosted on this shape (no balanced placement)
        # and 64 has a single important placement, so no input pair:
        # neither has a model, neither may break construction.
        runs = self._trained_at_construction(policy="ml", vcpus=(8, 10, 16, 64))
        assert empty_artifact_store.info().misses == 2
        assert runs == 4  # every size was enumerated, the failed one too

    def test_heuristic_policy_trains_nothing(self, empty_artifact_store):
        assert is_model_driven("ml") and not is_model_driven("first-fit")
        runs = self._trained_at_construction(policy="first-fit", vcpus=(8, 16))
        assert (runs, empty_artifact_store.info().misses) == (0, 0)


def test_benchmark_worker_trains_once_per_key_and_decides_the_same():
    """The benchmark's own traced repeat: two inline shards, three vCPU
    classes, three fits — and the decisions the benchmark has on record."""
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks/perf/worker.py"),
            "--workload=serve-inline",
            "--seed=17",
            "--requests=1152",
            "--trace=1",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["per_layer"]["registry.fits"] == 3
    assert result["per_layer"]["registry.enumeration_runs"] == 3
    expected = json.loads(
        (ROOT / "benchmarks/perf/expected_digests.json").read_text()
    )["serve-inline"]
    recorded = {(row["seed"], row["requests"]): row["digest"] for row in expected}
    assert result["digest"] == recorded[(17, 1152)]
