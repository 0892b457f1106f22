"""The recursive CART builder, kept verbatim as the test oracle.

This is ``repro.ml.tree`` as it stood before the batched builder replaced
it in ``src/``: one ``_Node`` per node, ``_build`` recursing depth-first,
``_best_split`` evaluating one node at a time, ``_compile`` flattening the
graph into depth-first-preorder arrays afterwards.  The batched builder
must reproduce every flat array and every importance of this code bit for
bit (``tests/ml/test_tree_builder.py``, ``bench_predict``'s ``fit_fleet``
gate); nothing in ``src/`` imports it.  :func:`oracle_forest` and
:func:`oracle_grow` are the forest's old construction loops around it,
:func:`assert_same_forest` the comparison both of those gates make.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np


@dataclass
class _Node:
    """One tree node; leaves carry a value, internal nodes a split."""

    value: np.ndarray  # mean of y at this node, shape (n_outputs,)
    impurity: float  # summed SSE over outputs
    n_samples: int
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _as_2d(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return y[:, None]
    if y.ndim == 2:
        return y
    raise ValueError(f"y must be 1- or 2-dimensional, got shape {y.shape}")


def _sse(y: np.ndarray) -> float:
    """Summed squared error around the mean, over all outputs."""
    if len(y) == 0:
        return 0.0
    mean = y.mean(axis=0)
    return float(((y - mean) ** 2).sum())


class OracleTreeRegressor:
    """CART regression tree with multi-output support.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; None grows until leaves are pure or too small.
    min_samples_split:
        Minimum samples a node needs to be considered for splitting.
    min_samples_leaf:
        Minimum samples each child must keep.
    max_features:
        Features examined per split: None (all), an int, a float fraction,
        ``"sqrt"`` or ``"log2"``.
    random_state:
        Seed for the per-split feature subsampling.
    """

    def __init__(
        self,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        random_state: int | None = None,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._root: _Node | None = None
        self._n_features: int = 0
        self._n_outputs: int = 0
        self._y_was_1d: bool = False
        self._flat: tuple | None = None
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------

    def _resolve_max_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None:
            return n_features
        if mf == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if mf == "log2":
            return max(1, int(np.log2(n_features))) if n_features > 1 else 1
        if isinstance(mf, float):
            if not 0.0 < mf <= 1.0:
                raise ValueError("float max_features must be in (0, 1]")
            return max(1, int(mf * n_features))
        if isinstance(mf, int):
            if not 1 <= mf <= n_features:
                raise ValueError(
                    f"int max_features must be in [1, {n_features}], got {mf}"
                )
            return mf
        raise ValueError(f"unrecognized max_features: {mf!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OracleTreeRegressor":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        raw_y = np.asarray(y, dtype=float)
        self._y_was_1d = raw_y.ndim == 1
        Y = _as_2d(raw_y)
        if len(X) != len(Y):
            raise ValueError(
                f"X and y disagree on sample count: {len(X)} vs {len(Y)}"
            )
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self._n_features = X.shape[1]
        self._n_outputs = Y.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._importances = np.zeros(self._n_features)
        self._total_samples = len(X)
        self._root = self._build(X, Y, depth=0)
        self._flat = None
        total = self._importances.sum()
        self.feature_importances_ = (
            self._importances / total if total > 0 else self._importances
        )
        return self

    def _build(self, X: np.ndarray, Y: np.ndarray, depth: int) -> _Node:
        node = _Node(
            value=Y.mean(axis=0), impurity=_sse(Y), n_samples=len(Y)
        )
        if (
            (self.max_depth is not None and depth >= self.max_depth)
            or len(Y) < self.min_samples_split
            or node.impurity <= 1e-12
        ):
            return node

        split = self._best_split(X, Y, node.impurity)
        if split is None:
            return node
        feature, threshold, gain = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        self._importances[feature] += gain * len(Y) / self._total_samples
        node.left = self._build(X[mask], Y[mask], depth + 1)
        node.right = self._build(X[~mask], Y[~mask], depth + 1)
        return node

    def _best_split(
        self, X: np.ndarray, Y: np.ndarray, parent_sse: float
    ) -> tuple[int, float, float] | None:
        n, d = X.shape
        k = self._resolve_max_features(d)
        if k < d:
            features = self._rng.choice(d, size=k, replace=False)
        else:
            features = np.arange(d)

        # Evaluate every candidate threshold of every candidate feature in
        # one vectorized pass: sort each feature column, then derive the
        # left/right SSE of each split position from prefix sums of y and
        # y^2 (summed over outputs).
        Xf = X[:, features]  # (n, k)
        order = np.argsort(Xf, axis=0, kind="stable")
        x_sorted = np.take_along_axis(Xf, order, axis=0)
        y_sorted = Y[order]  # (n, k, m)

        csum = np.cumsum(y_sorted, axis=0)
        csum_sq = np.cumsum(y_sorted**2, axis=0)
        total = csum[-1]  # (k, m)
        total_sq = csum_sq[-1]

        left_n = np.arange(1, n, dtype=float)[:, None, None]  # (n-1, 1, 1)
        right_n = n - left_n
        left_sum = csum[:-1]
        left_sq = csum_sq[:-1]
        right_sum = total - left_sum
        right_sq = total_sq - left_sq

        sse = (
            (left_sq - left_sum**2 / left_n)
            + (right_sq - right_sum**2 / right_n)
        ).sum(axis=2)  # (n-1, k)

        msl = self.min_samples_leaf
        valid = x_sorted[:-1] != x_sorted[1:]
        if msl > 1:
            positions = np.arange(1, n)[:, None]
            valid &= (positions >= msl) & (n - positions >= msl)
        if not valid.any():
            return None
        sse = np.where(valid, sse, np.inf)

        flat = int(np.argmin(sse))
        row, col = divmod(flat, sse.shape[1])
        best_sse = float(sse[row, col])
        gain = parent_sse - best_sse
        if not np.isfinite(best_sse) or gain <= 1e-12:
            return None
        threshold = float((x_sorted[row, col] + x_sorted[row + 1, col]) / 2.0)
        return (int(features[col]), threshold, gain)

    # ------------------------------------------------------------------

    def _compile(self) -> tuple:
        """Flatten the node graph into parallel arrays for vectorized
        evaluation.  Built lazily on the first predict() and kept for the
        tree's lifetime; the arrays carry the leaf values verbatim, so the
        flattened evaluation is bit-for-bit identical to walking the graph.
        Nodes are laid out in depth-first preorder, left child first —
        :attr:`depth` and the arena's bit tables rely on it.
        """
        assert self._root is not None
        nodes: List[_Node] = []
        stack = [self._root]
        index = {}
        while stack:
            node = stack.pop()
            index[id(node)] = len(nodes)
            nodes.append(node)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.right)
                stack.append(node.left)
        n = len(nodes)
        feature = np.full(n, -1, dtype=np.intp)
        threshold = np.zeros(n, dtype=float)
        left = np.zeros(n, dtype=np.intp)
        right = np.zeros(n, dtype=np.intp)
        values = np.empty((n, self._n_outputs), dtype=float)
        for i, node in enumerate(nodes):
            values[i] = node.value
            if not node.is_leaf:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = index[id(node.left)]
                right[i] = index[id(node.right)]
        self._flat = (feature, threshold, left, right, values)
        return self._flat



def _oracle_trees(forest, rng, X, y, count: int) -> List[OracleTreeRegressor]:
    """The seed-draw / bootstrap / ``tree.fit`` loop both ``fit`` and
    ``grow`` carried: one tree at a time, seed and indices interleaved."""
    n = len(X)
    trees = []
    for _ in range(count):
        tree = OracleTreeRegressor(
            max_depth=forest.max_depth,
            min_samples_split=forest.min_samples_split,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            random_state=int(rng.integers(0, 2**31 - 1)),
        )
        if forest.bootstrap:
            indices = rng.integers(0, n, size=n)
        else:
            indices = np.arange(n)
        trees.append(tree.fit(X[indices], y[indices]))
    return trees


def oracle_forest(forest, X, y) -> List[OracleTreeRegressor]:
    """The trees ``forest.fit(X, y)`` grew recursively (``forest`` lends
    its hyper-parameters and seed; it is not modified)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(forest.random_state)
    return _oracle_trees(forest, rng, X, y, forest.n_estimators)


def oracle_grow(forest, n_existing: int, X, y, n_more: int) -> List[OracleTreeRegressor]:
    """The ``n_more`` trees ``grow`` appended recursively to a forest
    that held ``n_existing``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(
        (forest.random_state or 0) + 1_000_003 * n_existing
    )
    return _oracle_trees(forest, rng, X, y, n_more)


def oracle_importances(trees) -> np.ndarray:
    """The forest importance sum as ``fit`` accumulated it."""
    importances = np.zeros_like(trees[0].feature_importances_)
    for tree in trees:
        importances = importances + tree.feature_importances_
    total = importances.sum()
    return importances / total if total > 0 else importances


def forest_problem(model, training_set):
    """The ``(X, Y)`` a ``PlacementModel`` fits its forest on."""
    from repro.core.model import _pair_features

    i, j = model.input_pair
    ipc = training_set.ipc
    return _pair_features(ipc[:, i], ipc[:, j]), ipc / ipc[:, i : i + 1]


def assert_same_tree(tree, oracle) -> None:
    """Every flat array (dtype included) and the importances are equal."""
    names = ("feature", "threshold", "left", "right", "values")
    for name, ours, theirs in zip(names, tree._flat, oracle._compile()):
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs, equal_nan=True), name
    assert np.array_equal(tree.feature_importances_, oracle.feature_importances_)
    assert (tree._n_features, tree._n_outputs, tree._y_was_1d) == (
        oracle._n_features,
        oracle._n_outputs,
        oracle._y_was_1d,
    )


def assert_same_forest(forest, oracle_trees) -> None:
    assert len(forest.trees_) == len(oracle_trees)
    for tree, oracle in zip(forest.trees_, oracle_trees):
        assert_same_tree(tree, oracle)
    assert np.array_equal(
        forest.feature_importances_, oracle_importances(oracle_trees)
    )
