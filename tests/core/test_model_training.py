"""Unit tests for the training set, the two models, and per-application CV.

These use a reduced corpus and fixed input pairs so the suite stays fast;
the full-accuracy reproduction runs in ``benchmarks/bench_fig4_accuracy.py``.
"""

import numpy as np
import pytest

from repro.core import (
    HpeModel,
    PlacementModel,
    TrainingSet,
    build_training_set,
    leave_one_workload_out,
    workload_family,
)
from repro.core.training import extend_training_set
from repro.experiments import standard_training_set
from repro.perfsim import (
    HpeMonitor,
    PerformanceSimulator,
    WorkloadGenerator,
    paper_workloads,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3


def eager_hpe_rows(training_set, simulator, repetition=0):
    """The HPE matrix and names as one monitor measures them row by row in
    the baseline placement: what training sets held before the rows were
    deferred to their first read."""
    monitor = HpeMonitor(simulator)
    baseline = training_set.placements[training_set.baseline_index]
    rows = []
    for profile in training_set.workloads:
        values = monitor.measure(profile, baseline, repetition=repetition)
        rows.append([values[name] for name in monitor.event_names])
    return np.asarray(rows), list(monitor.event_names)


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def small_ts(amd):
    corpus = paper_workloads() + WorkloadGenerator(seed=7, jitter=0.25).sample(24)
    return build_training_set(amd, 16, corpus)


class TestWorkloadFamily:
    def test_spark_family(self):
        assert workload_family("spark-cc") == "spark"
        assert workload_family("spark-pr-lj") == "spark"

    def test_postgres_family(self):
        assert workload_family("postgres-tpch") == workload_family(
            "postgres-tpcc"
        )

    def test_synthetic_groups_by_archetype(self):
        assert (
            workload_family("synthetic-latency-bound-0001")
            == workload_family("synthetic-latency-bound-0202")
        )
        assert workload_family("synthetic-cpu-bound-0001") != workload_family(
            "synthetic-latency-bound-0001"
        )

    def test_ordinary_workload_is_its_own_family(self):
        assert workload_family("gcc") == "gcc"


class TestTrainingSet:
    def test_shapes(self, small_ts):
        n = len(small_ts)
        assert small_ts.ipc.shape == (n, 13)
        assert small_ts.vectors.shape == (n, 13)
        assert small_ts.hpe_features.shape == (n, 25)

    def test_vectors_normalized_to_baseline(self, small_ts):
        baseline = small_ts.baseline_index
        assert np.allclose(small_ts.vectors[:, baseline], 1.0)

    def test_subset_selects_rows(self, small_ts):
        sub = small_ts.subset([0, 2, 4])
        assert len(sub) == 3
        assert sub.names == [small_ts.names[i] for i in (0, 2, 4)]
        assert np.array_equal(sub.ipc, small_ts.ipc[[0, 2, 4]])

    def test_empty_corpus_rejected(self, amd):
        with pytest.raises(ValueError):
            build_training_set(amd, 16, [])

    def test_shape_validation(self, small_ts):
        with pytest.raises(ValueError, match="baseline_index"):
            TrainingSet(
                machine=small_ts.machine,
                placements=small_ts.placements,
                workloads=small_ts.workloads,
                ipc=small_ts.ipc,
                vectors=small_ts.vectors,
                hpe_features=small_ts.hpe_features,
                hpe_names=small_ts.hpe_names,
                baseline_index=99,
            )
        with pytest.raises(ValueError, match="hpe_runs"):
            TrainingSet(
                machine=small_ts.machine,
                placements=small_ts.placements,
                workloads=small_ts.workloads,
                ipc=small_ts.ipc,
                vectors=small_ts.vectors,
                baseline_index=0,
            )


class TestDeferredHpe:
    """HPE rows are measured on first read, bit for bit what the eager
    loop measured."""

    @pytest.mark.parametrize("preset", [amd_opteron_6272, intel_xeon_e7_4830_v3])
    def test_standard_training_set_matches_the_eager_loop(self, preset):
        machine = preset()
        training_set = standard_training_set(machine)
        features, names = eager_hpe_rows(training_set, PerformanceSimulator(machine))
        np.testing.assert_array_equal(training_set.hpe_features, features)
        assert training_set.hpe_names == names

    def test_subset_and_extend_give_the_parents_matrices(self, amd):
        corpus = paper_workloads() + WorkloadGenerator(seed=9, jitter=0.25).sample(6)
        parent = build_training_set(amd, 16, corpus, baseline_index=3)
        rows = [0, 4, 5, 20]
        sub = parent.subset(rows)
        np.testing.assert_array_equal(sub.hpe_features, parent.hpe_features[rows])
        assert sub.hpe_names == parent.hpe_names

        fresh = WorkloadGenerator(seed=77, namespace="live").sample(3)
        extended = extend_training_set(parent, fresh)
        np.testing.assert_array_equal(
            extended.hpe_features[: len(parent)], parent.hpe_features
        )
        features, names = eager_hpe_rows(extended, PerformanceSimulator(amd))
        np.testing.assert_array_equal(extended.hpe_features, features)
        assert extended.hpe_names == names == parent.hpe_names

    def test_extending_an_unread_set_defers_both_runs(self, amd, monkeypatch):
        calls = []
        measure = HpeMonitor.measure

        def spy(self, *args, **kwargs):
            calls.append(args[0].name)
            return measure(self, *args, **kwargs)

        monkeypatch.setattr(HpeMonitor, "measure", spy)
        corpus = paper_workloads()[:6]
        parent = build_training_set(amd, 16, corpus, baseline_index=2)
        fresh = WorkloadGenerator(seed=77, namespace="live").sample(3)
        once = extend_training_set(parent, fresh[:2], repetition=1)
        twice = extend_training_set(
            once, fresh[2:], simulator=PerformanceSimulator(amd, seed=5)
        )
        assert calls == []

        features = twice.hpe_features
        assert calls == twice.names
        rows = [
            eager_hpe_rows(parent, PerformanceSimulator(amd))[0],
            eager_hpe_rows(
                once.subset(range(6, 8)), PerformanceSimulator(amd), repetition=1
            )[0],
            eager_hpe_rows(
                twice.subset([8]), PerformanceSimulator(amd, seed=5)
            )[0],
        ]
        np.testing.assert_array_equal(features, np.vstack(rows))
        np.testing.assert_array_equal(once.hpe_features, features[:8])
        assert twice.hpe_names == once.hpe_names == parent.hpe_names


class TestPlacementModel:
    def test_fit_with_fixed_pair_and_predict(self, small_ts):
        model = PlacementModel(input_pair=(0, 12), random_state=0)
        model.fit(small_ts)
        prediction = model.predict(1.0, 1.2)
        assert prediction.shape == (13,)
        assert np.all(prediction > 0)

    def test_baseline_is_first_of_pair(self, small_ts):
        model = PlacementModel(input_pair=(3, 9), random_state=0).fit(small_ts)
        assert model.baseline_index == 3

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            PlacementModel(input_pair=(0, 1)).predict(1.0, 1.0)

    def test_invalid_pair_rejected(self, small_ts):
        with pytest.raises(ValueError):
            PlacementModel(input_pair=(0, 0)).fit(small_ts)
        with pytest.raises(ValueError):
            PlacementModel(input_pair=(0, 99)).fit(small_ts)

    def test_pair_search_with_candidates(self, small_ts):
        model = PlacementModel(
            candidate_pairs=[(0, 12), (12, 0), (1, 5)],
            selection_estimators=5,
            random_state=0,
        )
        model.fit(small_ts)
        assert model.input_pair in {(0, 12), (12, 0), (1, 5)}
        assert set(model.selection_errors_) == {(0, 12), (12, 0), (1, 5)}

    def test_in_sample_accuracy_is_high(self, small_ts):
        model = PlacementModel(input_pair=(0, 12), random_state=0).fit(small_ts)
        i, _ = model.input_pair
        targets = small_ts.ipc / small_ts.ipc[:, i : i + 1]
        predictions = model.predict_batch(
            small_ts.ipc[:, 0], small_ts.ipc[:, 12]
        )
        error = np.mean(np.abs(predictions - targets) / targets)
        assert error < 0.05

    def test_rejects_non_positive_observation(self, small_ts):
        model = PlacementModel(input_pair=(0, 12), random_state=0).fit(small_ts)
        with pytest.raises(ValueError):
            model.predict(-1.0, 1.0)

    def test_actual_row_is_normalized_to_pair_first(self, small_ts):
        model = PlacementModel(input_pair=(2, 8), random_state=0).fit(small_ts)
        actual = model.actual_row(small_ts, 4)
        assert actual[2] == pytest.approx(1.0)


class TestHpeModel:
    def test_fit_with_explicit_features(self, small_ts):
        model = HpeModel(
            features=["LLC_MISSES", "INSTRUCTIONS_RETIRED"], random_state=0
        )
        model.fit(small_ts)
        assert model.selected_features == [
            "LLC_MISSES",
            "INSTRUCTIONS_RETIRED",
        ]
        prediction = model.predict(small_ts.hpe_features[0])
        assert prediction.shape == (13,)

    def test_unknown_feature_rejected(self, small_ts):
        with pytest.raises(ValueError, match="unknown HPE"):
            HpeModel(features=["NOPE"]).fit(small_ts)

    def test_sfs_selects_limited_features(self, small_ts):
        model = HpeModel(
            max_features=2, selection_estimators=4, random_state=0
        )
        model.fit(small_ts)
        assert 1 <= len(model.selected_features) <= 2
        assert model.selection_history_ is not None

    def test_predict_requires_full_vector(self, small_ts):
        model = HpeModel(features=["LLC_MISSES"], random_state=0).fit(small_ts)
        with pytest.raises(ValueError, match="expected"):
            model.predict([1.0, 2.0])

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            HpeModel().predict([0.0])

    def test_rejects_bad_max_features(self):
        with pytest.raises(ValueError):
            HpeModel(max_features=0)


class TestLeaveOneWorkloadOut:
    def test_families_are_excluded_together(self, small_ts):
        captured = []

        class SpyModel:
            def fit(self, ts):
                captured.append(set(ts.names))
                self._ts = ts
                return self

            def predict_row(self, ts, row):
                return np.ones(ts.n_placements)

            def actual_row(self, ts, row):
                return ts.vectors[row]

        results = leave_one_workload_out(
            SpyModel, small_ts, evaluate_names=["spark-cc"]
        )
        assert len(results) == 1
        train_names = captured[0]
        assert "spark-cc" not in train_names
        assert "spark-pr-lj" not in train_names  # sibling excluded too

    def test_fold_result_metrics(self, small_ts):
        model_factory = lambda: PlacementModel(
            input_pair=(0, 12), n_estimators=10, random_state=0
        )
        results = leave_one_workload_out(
            model_factory, small_ts, evaluate_names=["gcc", "swaptions"]
        )
        assert {r.name for r in results} == {"gcc", "swaptions"}
        for r in results:
            assert r.mape >= 0

    def test_unknown_evaluate_name_rejected(self, small_ts):
        with pytest.raises(ValueError, match="not in training set"):
            leave_one_workload_out(
                lambda: PlacementModel(input_pair=(0, 12)),
                small_ts,
                evaluate_names=["nope"],
            )
