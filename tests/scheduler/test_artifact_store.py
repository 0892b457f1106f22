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
from repro.core.model import PlacementModel
from repro.core.training import build_training_set
from repro.experiments import training_corpus
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.simulator import PerformanceSimulator
from repro.scheduler import ModelRegistry, ScheduleConfig, SchedulerService
from repro.scheduler.artifacts import ArtifactStore
from repro.scheduler.policies import is_model_driven
from repro.serving import ModelServer, RetrainConfig, Retrainer
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
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
        assert server.versions(machine, 8)[0].model is registry.model(machine, 8)

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

    def test_naive_registry_still_memoizes_the_fit(self, machine):
        naive = ModelRegistry(**SMALL, memoize_enumeration=False)
        assert naive.model(machine, 8) is ModelRegistry(**SMALL).model(machine, 8)
        runs = naive.enumeration_runs()
        naive.placements(machine, 8)
        naive.model(machine, 8)
        assert naive.enumeration_runs() == runs + 1  # placements(), not model()


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


class TestImmutability:
    def test_writing_to_a_stored_matrix_raises(self, machine):
        registry = ModelRegistry(**SMALL)
        training_set = registry.training_set(machine, 8)
        arena = registry.model(machine, 8).forest.arena()
        for array in (
            training_set.ipc,
            training_set.vectors,
            training_set.hpe_features,
            arena.values,
            arena.threshold,
            arena.left,
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
        assert [v.version for v in sibling.versions(machine, 8)] == [1]
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

    def test_naive_mode_leaves_training_to_the_shards(
        self, empty_artifact_store
    ):
        # Every naive placements() call is a pipeline run charged to the
        # report; a front-end warm-up would inflate the baseline's count.
        runs = self._trained_at_construction(policy="ml", vcpus=(8, 16), naive=True)
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
