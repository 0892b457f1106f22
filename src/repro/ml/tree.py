"""Multi-output CART regression trees.

The tree grows greedily: at every node it evaluates axis-aligned splits on a
(possibly random) subset of features and picks the one that minimizes the
summed squared error of the children, accumulated over *all* outputs — the
natural multi-output extension of CART, and what the paper's multi-output
Random Forest needs to predict a whole performance vector at once.

Split search is vectorized: for one feature, sorting the samples lets every
candidate threshold's left/right SSE be computed from prefix sums of ``y``
and ``y**2`` in O(n) after the sort.
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


def descend_flat(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    X: np.ndarray,
    lane_row: np.ndarray,
    position: np.ndarray,
) -> np.ndarray:
    """Advance every lane to its leaf over flattened node arrays, one
    numpy pass per tree level.

    ``position`` holds each lane's current node index and is advanced in
    place; ``lane_row`` maps lanes to rows of ``X``.  A single tree's
    prediction is the ``lane_row = arange(n)``, ``position = zeros(n)``
    special case; the forest arena stacks many trees' lanes into one call
    for forests its bit tables do not fit (:mod:`repro.ml.arena`).  Kept
    next to the flat-array format it interprets so the single-tree and
    arena descents can never diverge.
    """
    active = np.nonzero(feature[position] >= 0)[0]
    while len(active):
        at = position[active]
        go_left = X[lane_row[active], feature[at]] <= threshold[at]
        position[active] = np.where(go_left, left[at], right[at])
        active = active[feature[position[active]] >= 0]
    return position


class DecisionTreeRegressor:
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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
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

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized prediction: all rows descend the flattened tree in
        lock-step, one numpy pass per tree level instead of a Python loop
        per sample (the hot path of batched fleet prediction)."""
        if self._root is None:
            raise RuntimeError("predict() called before fit()")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fit on "
                f"{self._n_features}"
            )
        feature, threshold, left, right, values = self._flat or self._compile()
        position = descend_flat(
            feature,
            threshold,
            left,
            right,
            X,
            np.arange(len(X), dtype=np.intp),
            np.zeros(len(X), dtype=np.intp),
        )
        out = values[position]
        return out[:, 0] if self._y_was_1d else out

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree.

        Derived iteratively from the flattened arrays (a recursive walk
        can blow the interpreter's recursion limit on degenerate deep
        trees): the compile order is depth-first preorder, so children
        always follow their parent and one reverse pass computes every
        subtree height.
        """
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        feature, _, left, right, _ = self._flat or self._compile()
        height = np.zeros(len(feature), dtype=np.intp)
        for index in range(len(feature) - 1, -1, -1):
            if feature[index] >= 0:
                height[index] = 1 + max(
                    height[left[index]], height[right[index]]
                )
        return int(height[0])

    @property
    def n_leaves(self) -> int:
        """Leaf count, read off the flattened arrays without recursion."""
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        feature, _, _, _, _ = self._flat or self._compile()
        return int(np.count_nonzero(feature < 0))
