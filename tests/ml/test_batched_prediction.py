"""Batched vs single prediction equivalence (bit-for-bit).

The fleet scheduler's hot path pushes whole batches of containers through
the forest in one vectorized call.  That is only a safe optimization if a
batch of N rows predicts exactly what N single-row calls would — same
leaves, same tree-mean, no float drift — which these tests pin down at
every layer: tree, forest, and placement model.
"""

import numpy as np
import pytest

from repro.core.model import PlacementModel, _pair_features
from repro.core.training import build_training_set
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from repro.perfsim import paper_workloads
from repro.topology import amd_opteron_6272


def _reference_tree_predict(tree, X):
    """Walk the nodes row by row — the pre-vectorization semantics."""
    feature, threshold, left, right, values = tree._flat
    out = np.empty((len(X), tree._n_outputs))
    for i, row in enumerate(X):
        node = 0
        while feature[node] >= 0:
            node = (
                left[node] if row[feature[node]] <= threshold[node] else right[node]
            )
        out[i] = values[node]
    return out[:, 0] if tree._y_was_1d else out


class TestTreeBatching:
    def test_vectorized_matches_graph_walk(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 5))
        Y = rng.normal(size=(120, 3))
        tree = DecisionTreeRegressor(random_state=1).fit(X, Y)
        X_test = rng.normal(size=(64, 5))
        assert np.array_equal(
            tree.predict(X_test), _reference_tree_predict(tree, X_test)
        )

    def test_single_row_matches_batch(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)  # 1-d output path
        tree = DecisionTreeRegressor(random_state=0).fit(X, y)
        X_test = rng.normal(size=(10, 4))
        batched = tree.predict(X_test)
        for k in range(len(X_test)):
            assert batched[k] == tree.predict(X_test[k : k + 1])[0]

    def test_leaf_only_tree(self):
        X = np.zeros((5, 2))
        y = np.full(5, 3.25)
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.array_equal(tree.predict(np.ones((4, 2))), np.full(4, 3.25))


class TestForestBatching:
    def test_batch_matches_singles_bit_for_bit(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 3))
        Y = rng.normal(size=(80, 6))
        forest = RandomForestRegressor(n_estimators=15, random_state=7).fit(X, Y)
        assert forest.arena().bit_tables is not None
        X_test = rng.normal(size=(33, 3))
        batched = forest.predict(X_test)
        for k in range(len(X_test)):
            single = forest.predict(X_test[k : k + 1])[0]
            assert np.array_equal(batched[k], single)

    def test_batch_matches_singles_past_one_mask_word(self):
        """240 training rows grow trees of more than 64 leaves: the forest
        is served by the lock-step descent, with the same guarantee."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(240, 3))
        forest = RandomForestRegressor(n_estimators=7, random_state=7).fit(
            X, rng.normal(size=(240, 2))
        )
        assert forest.arena().bit_tables is None
        X_test = rng.normal(size=(17, 3))
        batched = forest.predict(X_test)
        assert np.array_equal(batched, forest.predict_per_tree(X_test))
        for k in range(len(X_test)):
            assert np.array_equal(
                batched[k], forest.predict(X_test[k : k + 1])[0]
            )


class TestPairFeatures:
    def test_preallocated_matrix_equals_column_stack(self):
        rng = np.random.default_rng(4)
        for n in (0, 1, 2, 37):
            ipc_i = rng.uniform(0.2, 3.0, size=n)
            ipc_j = rng.uniform(0.2, 3.0, size=n)
            features = _pair_features(ipc_i, ipc_j)
            reference = np.column_stack([ipc_i, ipc_j, ipc_j / ipc_i])
            assert features.shape == (n, 3) and features.flags.c_contiguous
            assert np.array_equal(features, reference)

    def test_misaligned_observations_rejected(self):
        with pytest.raises(ValueError):
            _pair_features(np.ones(3), np.ones(4))

    def test_batch_features_from_floats_equal_the_array_kernel(self):
        """The fleet assembles rows from Python floats; the training path
        divides whole columns.  Same IEEE divide, same bits."""
        model = PlacementModel(input_pair=(0, 1))
        rng = np.random.default_rng(9)
        for n in (0, 1, 2, 37):
            ipc_i = rng.uniform(1e-3, 3.0, size=n) * 10.0 ** rng.integers(-3, 4, n)
            ipc_j = rng.uniform(1e-3, 3.0, size=n)
            features = model.batch_features(ipc_i.tolist(), ipc_j.tolist())
            assert features.shape == (n, 3) and features.dtype == np.float64
            assert np.array_equal(features, _pair_features(ipc_i, ipc_j))

    def test_batch_features_accepts_what_it_always_did(self):
        """Lists, scalars, a scalar beside a length-1 array and integer
        arrays all still convert; a NaN observation is not "non-positive"
        and flows through to NaN features, as it did with ``np.any``."""
        model = PlacementModel(input_pair=(0, 1))
        reference = np.array([[2.0, 3.0, 1.5]])
        for perf_i, perf_j in (
            ([2.0], [3.0]),
            (2.0, 3.0),
            (2, np.array([3.0])),
            (np.array([2]), np.array([3])),
        ):
            assert np.array_equal(
                model.batch_features(perf_i, perf_j), reference
            )
        features = model.batch_features([np.nan, 1.0], [1.0, np.nan])
        assert np.isnan(features[0, 0]) and np.isnan(features[0, 2])
        assert features[1, 0] == 1.0 and np.isnan(features[1, 2])
        with pytest.raises(ValueError, match="positive"):
            model.batch_features([1.0, -1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="equal-length"):
            model.batch_features(1.0, [1.0, 2.0])


class TestPlacementModelBatching:
    @pytest.fixture(scope="class")
    def model(self):
        machine = amd_opteron_6272()
        training_set = build_training_set(machine, 16, paper_workloads())
        return PlacementModel(
            input_pair=(0, 5), n_estimators=12, random_state=0
        ).fit(training_set)

    def test_predict_batch_matches_singles_bit_for_bit(self, model):
        rng = np.random.default_rng(11)
        perf_i = rng.uniform(0.4, 2.0, size=25)
        perf_j = rng.uniform(0.4, 2.0, size=25)
        batched = model.predict_batch(perf_i, perf_j)
        assert batched.shape[0] == 25
        for k in range(25):
            single = model.predict(float(perf_i[k]), float(perf_j[k]))
            assert np.array_equal(batched[k], single)

    def test_predict_many_is_an_alias(self, model):
        perf_i = np.array([0.9, 1.1])
        perf_j = np.array([1.2, 0.8])
        assert np.array_equal(
            model.predict_many(perf_i, perf_j),
            model.predict_batch(perf_i, perf_j),
        )

    def test_scalar_inputs_promote(self, model):
        assert model.predict_batch(1.0, 1.2).shape[0] == 1

    def test_shape_mismatch_rejected(self, model):
        with pytest.raises(ValueError):
            model.predict_batch(np.ones(3), np.ones(4))

    def test_2d_inputs_rejected(self, model):
        with pytest.raises(ValueError):
            model.predict_batch(np.ones((2, 2)), np.ones((2, 2)))

    def test_unfitted_model_raises(self):
        with pytest.raises(RuntimeError):
            PlacementModel().predict_batch(np.ones(2), np.ones(2))

    def test_nonpositive_observation_rejected(self, model):
        with pytest.raises(ValueError):
            model.predict_batch(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
