"""The batched builder grows the trees the recursion grew, bit for bit.

``repro.ml.tree.fit_trees`` replaces one-node-at-a-time recursion with
one pass per distinct node size across all trees of a forest.  Each lane
of a pass does the recursion's floating-point operations in the
recursion's order, so every flat array and every importance must equal
the oracle's (``tests/ml/oracle_tree.py`` — the old builder, verbatim)
under ``np.array_equal``: on arbitrary small problems (hypothesis), on
every forest the preset fleets train, and on a ``warm_refit`` candidate.

One thing is *not* oracle-equal and is pinned as such: with
``max_features`` below the feature count a node draws its candidate
subset from its tree's generator when its pass comes up (larger nodes
first), not in depth-first order — deterministic given the seed, the
same root split as the oracle, different subsets below it.
"""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import PlacementModel
from repro.core.training import build_training_set
from repro.experiments import CANONICAL_PAIRS, training_corpus
from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from repro.scheduler.registry import ModelRegistry
from repro.topology.presets import PRESETS
from tests.ml.oracle_tree import (
    OracleTreeRegressor,
    assert_same_forest,
    assert_same_tree,
    forest_problem,
    oracle_forest,
    oracle_grow,
)

@given(
    n_rows=st.integers(1, 60),
    n_features=st.integers(1, 4),
    n_outputs=st.integers(0, 17),  # 0: a 1-d y; 8+ reduces pairwise
    levels=st.integers(1, 12),  # distinct values per feature: ties abound
    max_depth=st.one_of(st.none(), st.integers(1, 9)),
    min_samples_split=st.integers(2, 6),
    min_samples_leaf=st.integers(1, 4),
    bootstrap=st.booleans(),
    n_trees=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=150, deadline=None)
def test_forest_equals_the_recursion(
    n_rows,
    n_features,
    n_outputs,
    levels,
    max_depth,
    min_samples_split,
    min_samples_leaf,
    bootstrap,
    n_trees,
    seed,
):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, size=(n_rows, n_features)) / 4.0
    if seed % 3 == 0:  # a continuous column among the tied ones
        X[:, 0] = rng.normal(size=n_rows)
    y = rng.normal(size=(n_rows, n_outputs) if n_outputs else n_rows)
    if seed % 5 == 0:  # repeated targets: pure nodes well above the leaves
        y = np.round(y)
    forest = RandomForestRegressor(
        n_estimators=n_trees,
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
        bootstrap=bootstrap,
        random_state=seed,
    ).fit(X, y)
    assert_same_forest(forest, oracle_forest(forest, X, y))
    assert forest.predict(X).shape == y.shape

    lone = DecisionTreeRegressor(
        max_depth=max_depth,
        min_samples_split=min_samples_split,
        min_samples_leaf=min_samples_leaf,
    ).fit(X, y)
    assert_same_tree(
        lone,
        OracleTreeRegressor(
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
        ).fit(X, y),
    )


def _fleet_keys():
    """Every (machine preset, vCPU class) key the ``amd``, ``intel`` and
    ``mixed`` fleets train (``mixed`` is the union of the other two)."""
    registry = ModelRegistry(seed=0)
    for name in ("amd", "intel"):
        machine = PRESETS[name]()
        for vcpus in (4, 8, 16, 32):
            try:
                trainable = len(registry.placements(machine, vcpus)) >= 2
            except ValueError:
                continue
            if trainable:
                yield pytest.param(name, vcpus, id=f"{name}-{vcpus}")


@pytest.mark.parametrize("preset, vcpus", list(_fleet_keys()))
def test_artifact_store_forests_equal_the_recursion(preset, vcpus):
    registry = ModelRegistry(seed=0)
    machine = PRESETS[preset]()
    model = registry.model(machine, vcpus)
    X, Y = forest_problem(model, registry.training_set(machine, vcpus))
    assert len(model.forest.trees_) == registry.n_estimators
    assert_same_forest(model.forest, oracle_forest(model.forest, X, Y))


def test_warm_refit_candidate_equals_the_recursion():
    machine = PRESETS["amd"]()
    corpus = training_corpus(seed=3, n_synthetic=12)
    pair = CANONICAL_PAIRS[machine.name]
    base = build_training_set(machine, 16, corpus[:20], baseline_index=pair[0])
    extended = build_training_set(machine, 16, corpus, baseline_index=pair[0])
    model = PlacementModel(input_pair=pair, n_estimators=40, random_state=0)
    model.fit(base)
    candidate = model.warm_refit(extended, n_grow=16)

    X, Y = forest_problem(model, extended)
    grown = oracle_grow(model.forest, 40, X, Y, 16)
    kept = oracle_forest(model.forest, *forest_problem(model, base))[16:]
    assert_same_forest(candidate.forest, kept + grown)
    # The incumbent's surviving trees are shared, not refitted.
    assert candidate.forest.trees_[:24] == model.forest.trees_[16:]


class TestStopsWhereTheRecursionStopped:
    """Each way a node can decline to split, checked against the oracle."""

    @staticmethod
    def _both(X, y, **params):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow case
            tree = DecisionTreeRegressor(**params).fit(X, y)
            oracle = OracleTreeRegressor(**params).fit(X, y)
            assert_same_tree(tree, oracle)
        return tree

    def test_every_position_a_tie(self):
        tree = self._both(np.ones((8, 2)), np.arange(8.0))
        assert tree.n_leaves == 1

    def test_pure_node(self):
        X = np.arange(12.0)[:, None]
        tree = self._both(X, np.where(X[:, 0] < 6, 1.0, 3.0))
        assert tree.n_leaves == 2  # both children pure at once

    def test_no_gain(self):
        # XOR on one feature: either side of the only cut keeps the
        # parent's spread, so the gain is exactly zero.
        tree = self._both([[0.0], [0.0], [1.0], [1.0]], [0.0, 1.0, 0.0, 1.0])
        assert tree.n_leaves == 1

    def test_non_finite_sse(self):
        tree = self._both(
            np.arange(6.0)[:, None], [1e200, -1e200, 1e200, 3.0, 4.0, -1e200]
        )
        assert tree.n_leaves == 1

    def test_min_samples_leaf_rules_out_every_cut(self):
        tree = self._both(
            np.arange(5.0)[:, None], np.arange(5.0), min_samples_leaf=3
        )
        assert tree.n_leaves == 1

    def test_min_samples_split_and_depth(self):
        rng = np.random.default_rng(0)
        X, y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
        tree = self._both(X, y, min_samples_split=7, max_depth=3)
        assert tree.depth == 3

    def test_one_sided_cut_is_no_split(self):
        # The midpoint of two adjacent doubles can round onto the upper
        # one; `x <= cut` then sends every row left.  The recursion split
        # anyway and recursed on the same rows for ever; the batched
        # builder's passes need children smaller than parents, so it
        # declines — the one deliberate difference.
        eps = np.finfo(float).eps
        X = np.array([[1 + eps], [1 + 2 * eps]])
        assert (X[0, 0] + X[1, 0]) / 2.0 == X[1, 0]
        y = np.array([0.0, 1.0])
        tree = DecisionTreeRegressor().fit(X, y)
        assert tree.n_leaves == 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(RecursionError):
                    OracleTreeRegressor().fit(X, y)
        finally:
            sys.setrecursionlimit(limit)


class TestFeatureSubsampling:
    """``max_features`` below the feature count: seeded, not oracle-equal."""

    @staticmethod
    def _problem():
        rng = np.random.default_rng(11)
        X = rng.normal(size=(70, 6))
        return X, X[:, :2] @ np.ones(2) + 0.1 * rng.normal(size=70)

    def test_same_seed_same_trees(self):
        X, y = self._problem()
        a, b = (
            RandomForestRegressor(
                n_estimators=5, max_features="sqrt", random_state=4
            ).fit(X, y)
            for _ in range(2)
        )
        for one, other in zip(a.trees_, b.trees_):
            for ours, theirs in zip(one._flat, other._flat):
                assert np.array_equal(ours, theirs)
        c = RandomForestRegressor(
            n_estimators=5, max_features="sqrt", random_state=5
        ).fit(X, y)
        assert not np.array_equal(a.predict(X), c.predict(X))

    def test_root_draw_is_the_oracles_and_splits_stay_in_range(self):
        X, y = self._problem()
        tree = DecisionTreeRegressor(max_features=2, random_state=9).fit(X, y)
        oracle = OracleTreeRegressor(max_features=2, random_state=9).fit(X, y)
        feature, threshold, _, _, values = tree._flat
        theirs = oracle._compile()
        # The root is the first node either order draws for.
        assert (feature[0], threshold[0]) == (theirs[0][0], theirs[1][0])
        assert feature.max() < X.shape[1]
        assert np.allclose(tree.predict(X), y)  # fully grown all the same
        assert values.min() >= y.min() and values.max() <= y.max()
