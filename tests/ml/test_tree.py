"""Unit and property tests for the CART regression tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import DecisionTreeRegressor
from repro.ml.tree import descend_flat


def step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where(X[:, 0] > 0.25, 2.0, -1.0)
    return X, y


class TestValidation:
    def test_rejects_1d_X(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            DecisionTreeRegressor().fit(np.zeros(5), np.zeros(5))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="sample count"):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_predict_wrong_width(self):
        tree = DecisionTreeRegressor().fit(*step_data())
        with pytest.raises(ValueError, match="features"):
            tree.predict(np.zeros((1, 5)))

    def test_bad_max_features(self):
        X, y = step_data()
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=1.5).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features="bogus").fit(X, y)


class TestFitting:
    def test_learns_step_function_exactly(self):
        X, y = step_data()
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_constant_target_yields_single_leaf(self):
        X = np.arange(10, dtype=float)[:, None]
        y = np.full(10, 3.5)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves == 1
        assert np.allclose(tree.predict(X), 3.5)

    def test_max_depth_limits_depth(self):
        X, y = step_data(n=400, seed=1)
        y = y + X[:, 1]  # more structure
        tree = DecisionTreeRegressor(max_depth=2).fit(X, y)
        assert tree.depth <= 2

    def test_min_samples_leaf_respected(self):
        X, y = step_data(n=100)
        tree = DecisionTreeRegressor(min_samples_leaf=20).fit(X, y)
        feature, threshold, left, right, _ = tree._flat
        leaf_of = descend_flat(
            feature,
            threshold,
            left,
            right,
            X,
            np.arange(len(X)),
            np.zeros(len(X), dtype=np.intp),
        )
        leaf_sizes = np.bincount(leaf_of)[feature < 0]
        assert len(leaf_sizes) == tree.n_leaves > 1
        assert leaf_sizes.min() >= 20

    def test_multi_output(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(150, 1))
        y = np.column_stack([np.sin(3 * X[:, 0]), np.cos(3 * X[:, 0])])
        tree = DecisionTreeRegressor(min_samples_leaf=3).fit(X, y)
        pred = tree.predict(X)
        assert pred.shape == y.shape
        assert np.abs(pred - y).mean() < 0.1

    def test_1d_y_gives_1d_predictions(self):
        X, y = step_data()
        pred = DecisionTreeRegressor().fit(X, y).predict(X)
        assert pred.ndim == 1

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(80, 4))
        y = X[:, 0] * 2 + rng.normal(size=80) * 0.1
        a = DecisionTreeRegressor(max_features=2, random_state=5).fit(X, y)
        b = DecisionTreeRegressor(max_features=2, random_state=5).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_feature_importances_identify_signal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 3))
        y = 5 * X[:, 1] + 0.01 * rng.normal(size=300)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        assert tree.feature_importances_ is not None
        assert tree.feature_importances_.argmax() == 1

    def test_duplicate_feature_values_are_not_split(self):
        # All x equal: no split possible, must yield a single leaf.
        X = np.ones((20, 1))
        y = np.arange(20, dtype=float)
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves == 1


@given(
    n=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=25, deadline=None)
def test_predictions_stay_within_target_range(n, seed):
    """Property: a regression tree predicts convex combinations (means) of
    training targets, so predictions never leave [min(y), max(y)]."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    tree = DecisionTreeRegressor().fit(X, y)
    test_X = rng.normal(size=(20, 2)) * 3
    pred = tree.predict(test_X)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_deep_tree_interpolates_training_data(seed):
    """Property: with distinct inputs and no depth limit, the tree fits the
    training set exactly."""
    rng = np.random.default_rng(seed)
    X = rng.permutation(30).astype(float)[:, None]  # distinct values
    y = rng.normal(size=30)
    tree = DecisionTreeRegressor().fit(X, y)
    assert np.allclose(tree.predict(X), y)


class TestStructureWithoutRecursion:
    """depth / n_leaves are derived from the flattened arrays: a chain tree
    deeper than the interpreter's recursion limit must not crash them."""

    @staticmethod
    def _chain_tree(length):
        """A degenerate left-spine tree of ``length`` internal nodes,
        written directly as preorder arrays (no fit can be forced this
        deep): internal node ``i`` sits at index ``i``, its left child
        right behind it, its right leaf after the whole left subtree."""
        spine = np.arange(length)
        n_nodes = 2 * length + 1
        feature = np.full(n_nodes, -1, dtype=np.intp)
        feature[:length] = 0
        threshold = np.zeros(n_nodes)
        threshold[:length] = spine[::-1]
        left = np.zeros(n_nodes, dtype=np.intp)
        left[:length] = spine + 1
        right = np.zeros(n_nodes, dtype=np.intp)
        right[:length] = 2 * length - spine
        tree = DecisionTreeRegressor()
        tree._n_features = 1
        tree._n_outputs = 1
        tree._y_was_1d = True
        tree._flat = (feature, threshold, left, right, np.zeros((n_nodes, 1)))
        return tree

    def test_deeper_than_recursion_limit(self):
        import sys

        length = sys.getrecursionlimit() + 500
        tree = self._chain_tree(length)
        assert tree.depth == length
        assert tree.n_leaves == length + 1

    def test_matches_known_small_trees(self):
        tree = self._chain_tree(3)
        assert tree.depth == 3
        assert tree.n_leaves == 4
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(200, 3))
        y = np.sin(X @ np.ones(3))
        fitted = DecisionTreeRegressor(max_depth=5).fit(X, y)
        # Cross-check against an explicit recursive walk.
        feature, _, left, right, _ = fitted._flat

        def walk_depth(node):
            if feature[node] < 0:
                return 0
            return 1 + max(walk_depth(left[node]), walk_depth(right[node]))

        def walk_leaves(node):
            if feature[node] < 0:
                return 1
            return walk_leaves(left[node]) + walk_leaves(right[node])

        assert fitted.depth == walk_depth(0)
        assert fitted.n_leaves == walk_leaves(0)

    def test_unfitted_raises(self):
        tree = DecisionTreeRegressor()
        with pytest.raises(RuntimeError):
            tree.depth
        with pytest.raises(RuntimeError):
            tree.n_leaves
