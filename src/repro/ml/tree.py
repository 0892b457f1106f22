"""Multi-output CART regression trees, grown in batches and born flat.

A tree grows greedily: every node evaluates axis-aligned splits on a
(possibly random) subset of features and takes the one that minimizes the
summed squared error of the children, accumulated over *all* outputs — the
natural multi-output extension of CART, and what the paper's multi-output
Random Forest needs to predict a whole performance vector at once.

No node is visited on its own.  :func:`fit_trees` grows any number of
trees — a forest, or the one tree of :meth:`DecisionTreeRegressor.fit` —
together: each pass takes the pending nodes of *every* tree that hold the
largest sample count ``n``, stacks their rows as ``(G, n, ·)`` and runs
the split search once with a leading lane axis (:func:`_best_splits`).  A
child is strictly smaller than its parent, so when size ``n`` comes up
every node of that size exists, whatever its depth: a fit is one pass per
distinct node size (about 45 for a 40-tree forest on 50 rows, which has
about 2 500 nodes).  Each lane performs the floating-point operations of
one-node-at-a-time recursion in the same order — stable ``argsort``,
``cumsum`` along the sample axis, reductions over contiguous trailing
axes, row-major ``argmin`` — so the trees are bit-for-bit the ones that
recursion grew; it lives on as the oracle in ``tests/ml/oracle_tree.py``.

Trees are born flat: the builder emits the depth-first-preorder
``(feature, threshold, left, right, values)`` arrays that prediction, the
forest arena and its bit tables read, with impurity importances summed in
that same preorder.  There is no node graph to compile.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

#: Elements one 4-d temporary of :func:`_best_splits` may hold: a pass
#: wider than this evaluates its lanes in blocks, so a fit's transient
#: memory is a few 64 KB arrays however many trees grow at once (unblocked,
#: the fleet's fits peaked 5 MB higher for no measurable time).
SPLIT_BLOCK_ELEMENTS = 1 << 13


def check_fit_input(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` as float arrays: ``X`` 2-d, ``y`` 1- or 2-d, as many
    rows in both and at least one."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if y.ndim not in (1, 2):
        raise ValueError(f"y must be 1- or 2-dimensional, got shape {y.shape}")
    if len(X) != len(y):
        raise ValueError(
            f"X and y disagree on sample count: {len(X)} vs {len(y)}"
        )
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y


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


def _resolve_max_features(max_features, n_features: int) -> int:
    mf = max_features
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


def _best_splits(
    Xf: np.ndarray, Y: np.ndarray, impurity: np.ndarray, min_samples_leaf: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The best split of each of ``G`` equal-sized nodes, in one pass.

    ``Xf`` is ``(G, n, k)`` — every lane's rows under its ``k`` candidate
    features — ``Y`` is ``(G, n, m)`` and ``impurity`` the lanes' own SSE.
    Every candidate threshold of every candidate feature is scored from
    prefix sums of ``y`` and ``y**2`` over the sorted column.  Returns
    ``(column, threshold, gain, found)`` per lane; ``found`` is false
    where every position is a tie or under ``min_samples_leaf``, the best
    SSE is not finite, or the gain is at most ``1e-12``.
    """
    G, n, k = Xf.shape
    lanes = np.arange(G)
    order = np.argsort(Xf, axis=1, kind="stable")
    x_sorted = np.take_along_axis(Xf, order, axis=1)
    y_sorted = Y[lanes[:, None, None], order]  # (G, n, k, m)

    csum = np.cumsum(y_sorted, axis=1)
    csum_sq = np.cumsum(y_sorted**2, axis=1)
    del y_sorted
    left_n = np.arange(1, n, dtype=float)[:, None, None]  # (n-1, 1, 1)
    right_n = n - left_n
    left_sum = csum[:, :-1]
    left_sq = csum_sq[:, :-1]
    right_sum = csum[:, -1:] - left_sum
    right_sq = csum_sq[:, -1:] - left_sq
    sse = (
        (left_sq - left_sum**2 / left_n)
        + (right_sq - right_sum**2 / right_n)
    ).sum(axis=3)  # (G, n-1, k)
    del csum, csum_sq, left_sum, left_sq, right_sum, right_sq

    valid = x_sorted[:, :-1] != x_sorted[:, 1:]
    if min_samples_leaf > 1:
        positions = np.arange(1, n)[:, None]
        valid &= (positions >= min_samples_leaf) & (
            n - positions >= min_samples_leaf
        )
    sse = np.where(valid, sse, np.inf).reshape(G, -1)
    best_at = sse.argmin(axis=1)  # row-major: first position, first column
    row, column = np.divmod(best_at, k)
    best_sse = sse[lanes, best_at]
    gain = impurity - best_sse
    found = np.isfinite(best_sse) & ~(gain <= 1e-12)
    below, above = x_sorted[lanes, row, column], x_sorted[lanes, row + 1, column]
    return column, (below + above) / 2.0, gain, found


def fit_trees(
    trees: Sequence["DecisionTreeRegressor"],
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
) -> None:
    """Fit ``trees`` — unfitted, sharing their hyper-parameters — in one
    batched build: tree ``t`` on rows ``samples[t]`` of ``(X, y)``.

    ``samples`` is ``(len(trees), n_rows)``: a forest passes one bootstrap
    draw per tree, a lone tree ``arange(len(X))``.  With ``max_features``
    below the feature count each node draws its candidate subset from its
    own tree's generator (seeded by the tree's ``random_state``) when its
    pass comes up — larger nodes first, equal sizes in creation order —
    which is deterministic given the seeds, though not the order in which
    a depth-first recursion would have drawn.
    """
    X, y = check_fit_input(X, y)
    Y = y[:, None] if y.ndim == 1 else y
    first = trees[0]
    n_trees, n_rows = samples.shape
    n_features = X.shape[1]
    n_candidates = _resolve_max_features(first.max_features, n_features)
    subsample = n_candidates < n_features
    if subsample:
        rngs = [np.random.default_rng(tree.random_state) for tree in trees]
    max_depth = first.max_depth
    min_samples_split = first.min_samples_split
    min_samples_leaf = first.min_samples_leaf

    # Every node owns a slice of `rows`: tree t's root all of
    # rows[t * n_rows : (t + 1) * n_rows], a child the left or right part
    # of its parent's slice once that is partitioned in place (order kept).
    rows = samples.reshape(-1).astype(np.intp)
    # Pending and grown nodes, one row each: id, tree, start, size, depth.
    pending = np.zeros((n_trees, 5), dtype=np.intp)
    pending[:, 0] = pending[:, 1] = np.arange(n_trees)
    pending[:, 2] = pending[:, 1] * n_rows
    pending[:, 3] = n_rows
    n_nodes = n_trees
    grown: List[tuple] = []
    while len(pending):
        n = int(pending[:, 3].max())
        taken = pending[:, 3] == n
        batch, pending = pending[taken], pending[~taken]
        G = len(batch)
        tree, start, depth = batch[:, 1], batch[:, 2], batch[:, 4]
        at = start[:, None] + np.arange(n)
        R = rows[at]
        Yg = Y[R]
        value = Yg.mean(axis=1)
        feature = np.full(G, -1, dtype=np.intp)
        threshold = np.zeros(G)
        weight = np.zeros(G)  # importance the split adds to its feature
        n_left = np.zeros(G, dtype=np.intp)
        if n >= min_samples_split:
            spread = (Yg - value[:, None, :]) ** 2
            impurity = spread.reshape(G, -1).sum(axis=1)  # n * m terms each
            live = ~(impurity <= 1e-12)
            if max_depth is not None:
                live &= depth < max_depth
            live = np.flatnonzero(live)
            block = max(
                1, SPLIT_BLOCK_ELEMENTS // (n * n_candidates * Y.shape[1])
            )
            for lo in range(0, len(live), block):
                lanes = live[lo : lo + block]
                Xg = X[R[lanes]]
                if subsample:
                    candidates = np.stack(
                        [
                            rngs[t].choice(
                                n_features, size=n_candidates, replace=False
                            )
                            for t in tree[lanes]
                        ]
                    )
                    Xf = np.take_along_axis(Xg, candidates[:, None, :], axis=2)
                else:
                    Xf = Xg
                column, cut, gain, found = _best_splits(
                    Xf, Yg[lanes], impurity[lanes], min_samples_leaf
                )
                if subsample:
                    column = candidates[np.arange(len(lanes)), column]
                go_left = Xg[np.arange(len(lanes)), :, column] <= cut[:, None]
                to_left = go_left.sum(axis=1)
                # A cut that sends every row one way (the midpoint of
                # adjacent doubles can round onto the upper one) is no
                # split: children are strictly smaller than their parent.
                found &= (to_left > 0) & (to_left < n)
                lanes, go_left = lanes[found], go_left[found]
                partition = np.argsort(~go_left, axis=1, kind="stable")
                rows[at[lanes]] = np.take_along_axis(
                    R[lanes], partition, axis=1
                )
                feature[lanes] = column[found]
                threshold[lanes] = cut[found]
                weight[lanes] = gain[found] * n / n_rows
                n_left[lanes] = to_left[found]
        split = np.flatnonzero(feature >= 0)
        left_id = np.zeros(G, dtype=np.intp)
        left_id[split] = n_nodes + 2 * np.arange(len(split))
        children = np.repeat(batch[split], 2, axis=0)  # left, right, ...
        children[:, 0] = n_nodes + np.arange(len(children))
        children[1::2, 2] += n_left[split]
        children[0::2, 3] = n_left[split]
        children[1::2, 3] -= n_left[split]
        children[:, 4] += 1
        pending = np.concatenate([pending, children])
        n_nodes += len(children)
        grown.append((batch, value, feature, threshold, weight, left_id))

    # Slices nest, so sorting by (start, larger first) is the forest-wide
    # depth-first preorder, left child first, tree after tree.
    nodes, value, feature, threshold, weight, left_id = (
        np.concatenate(column) for column in zip(*grown)
    )
    preorder = np.lexsort((-nodes[:, 3], nodes[:, 2]))
    position = np.empty(n_nodes, dtype=np.intp)
    position[nodes[preorder, 0]] = np.arange(n_nodes)
    tree = nodes[preorder, 1]
    feature = feature[preorder]
    internal = feature >= 0
    base = position[tree]  # a tree's root is node `tree` and comes first
    left_id = left_id[preorder]
    left = np.where(internal, position[left_id] - base, 0)
    right = np.where(internal, position[left_id + internal] - base, 0)
    threshold = threshold[preorder]
    value = value[preorder]
    importances = np.bincount(
        tree[internal] * n_features + feature[internal],
        weights=weight[preorder][internal],
        minlength=n_trees * n_features,
    ).reshape(n_trees, n_features)
    bounds = np.append(position[:n_trees], n_nodes)
    for t, fitted in enumerate(trees):
        own = slice(bounds[t], bounds[t + 1])
        total = importances[t].sum()
        fitted._n_features, fitted._n_outputs = n_features, Y.shape[1]
        fitted._y_was_1d = y.ndim == 1
        fitted._flat = (
            feature[own].copy(),
            threshold[own].copy(),
            left[own].copy(),
            right[own].copy(),
            value[own].copy(),
        )
        fitted.feature_importances_ = (
            importances[t] / total if total > 0 else importances[t].copy()
        )


class DecisionTreeRegressor:
    """CART regression tree with multi-output support.

    Fitted state is the flat depth-first-preorder node arrays
    (:func:`fit_trees` builds them directly; a forest fits all its trees
    in one call, :meth:`fit` is the one-tree case of the same code).

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
        self._n_features: int = 0
        self._n_outputs: int = 0
        self._y_was_1d: bool = False
        #: (feature, threshold, left, right, values), depth-first preorder,
        #: left child first — :attr:`depth` and the arena's bit tables rely
        #: on the order; ``feature < 0`` marks a leaf.
        self._flat: tuple | None = None
        self.feature_importances_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        fit_trees([self], X, y, np.arange(len(X))[None, :])
        return self

    def _fitted(self) -> tuple:
        if self._flat is None:
            raise RuntimeError("tree is not fitted; call fit() first")
        return self._flat

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Vectorized prediction: all rows descend the flat arrays in
        lock-step, one numpy pass per tree level instead of a Python loop
        per sample."""
        feature, threshold, left, right, values = self._fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self._n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fit on "
                f"{self._n_features}"
            )
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

        The nodes are in depth-first preorder, so children always follow
        their parent and one reverse pass computes every subtree height
        (no recursion to blow the interpreter's limit on degenerate deep
        trees).
        """
        feature, _, left, right, _ = self._fitted()
        height = np.zeros(len(feature), dtype=np.intp)
        for index in range(len(feature) - 1, -1, -1):
            if feature[index] >= 0:
                height[index] = 1 + max(
                    height[left[index]], height[right[index]]
                )
        return int(height[0])

    @property
    def n_leaves(self) -> int:
        """Leaf count, read off the flat arrays."""
        return int(np.count_nonzero(self._fitted()[0] < 0))
