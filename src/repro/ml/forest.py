"""Bagged random forests over multi-output CART trees.

"RF is a machine learning technique known for its ability to learn
non-linear functions with very little or no tuning" (Section 5) — which is
exactly the property the reproduction relies on: the same default
configuration trains the performance model on both machines.

A forest does not fit its trees one after another: ``fit`` and ``grow``
draw every tree's seed and bootstrap sample, then hand all of them to
:func:`repro.ml.tree.fit_trees`, which grows the whole ensemble in one
batched pass per distinct node size — the "trains in seconds" of Section 5
is tens of milliseconds for the fleet's 40-tree models.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.ml.arena import ForestArena
from repro.ml.tree import DecisionTreeRegressor, check_fit_input, fit_trees

#: Row count above which predict() takes the per-tree path instead of an
#: arena in lock-step form (one whose forest its bit tables do not fit).
#: That form wins the dispatch-bound regime (few rows, many trees); at
#: several thousand rows both paths are memory-bound and its (rows x
#: trees) lane gather starts losing (~0.8x at 8k rows).  Bit tables win at
#: every size.  The paths are bit-for-bit identical, so the cutover is
#: free to correctness.
ARENA_MAX_ROWS = 4096


class RandomForestRegressor:
    """Bootstrap-aggregated regression forest with multi-output support.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, max_features:
        Passed to each :class:`DecisionTreeRegressor`.
    bootstrap:
        Draw a bootstrap sample per tree (True) or train every tree on the
        full data (False; only the feature subsampling differs then).
    random_state:
        Seed; each tree derives an independent stream from it.

    ``trees_`` holds the fitted trees, each its own flat node arrays;
    ``fit``/``grow``/``prune`` only ever *reassign* it, which is what
    drops the compiled arena.
    """

    def __init__(
        self,
        *,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = None,
        bootstrap: bool = True,
        random_state: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: List[DecisionTreeRegressor] = []
        self.feature_importances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Compiled-arena lifecycle
    # ------------------------------------------------------------------

    @property
    def trees_(self) -> List[DecisionTreeRegressor]:
        return self._trees

    @trees_.setter
    def trees_(self, trees) -> None:
        # Every change of ensemble is a reassignment (fit, grow, prune,
        # warm_refit's tree sharing), and reassigning drops the arena.
        self._trees = trees if isinstance(trees, list) else list(trees)
        self._arena: ForestArena | None = None

    def arena(self) -> ForestArena:
        """The forest compiled into one contiguous arena, bit tables
        included (:mod:`repro.ml.arena`) — built on first request, cached
        until ``fit``/``grow``/``prune`` (or any ``trees_`` reassignment)
        drops it whole.  Evaluating the arena is bit-for-bit identical to
        the per-tree path."""
        if not self._trees:
            raise RuntimeError("arena() requested before fit()")
        if self._arena is None:
            self._arena = ForestArena(self._trees)
        return self._arena

    def _per_tree_wins(self, X: np.ndarray) -> bool:
        return (
            np.ndim(X) == 2
            and len(X) > ARENA_MAX_ROWS
            and self.arena().bit_tables is None
        )

    def _grow_trees(
        self, rng: np.random.Generator, X: np.ndarray, y: np.ndarray, count: int
    ) -> List[DecisionTreeRegressor]:
        """``count`` new trees fitted on ``(X, y)`` in one batched build.

        Per tree, a seed and then a bootstrap sample are drawn from ``rng``
        — interleaved, the order the forest has always consumed its
        generator in — and every sample goes to the builder at once.
        """
        n = len(X)
        trees = []
        samples = np.empty((count, n), dtype=np.intp)
        for t in range(count):
            trees.append(
                DecisionTreeRegressor(
                    max_depth=self.max_depth,
                    min_samples_split=self.min_samples_split,
                    min_samples_leaf=self.min_samples_leaf,
                    max_features=self.max_features,
                    random_state=int(rng.integers(0, 2**31 - 1)),
                )
            )
            samples[t] = (
                rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            )
        fit_trees(trees, X, y, samples)
        return trees

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X, y = check_fit_input(X, y)
        rng = np.random.default_rng(self.random_state)
        self.trees_ = self._grow_trees(rng, X, y, self.n_estimators)
        self._sum_importances()
        return self

    def grow(self, X: np.ndarray, y: np.ndarray, n_more: int) -> "RandomForestRegressor":
        """Append ``n_more`` trees fitted on ``(X, y)`` without touching the
        existing ones — the warm-start half of grow-and-prune retraining.

        The new trees' seeds derive from ``(random_state, current tree
        count)``, so growing is deterministic given the forest's history:
        the same base forest grown on the same data always produces the
        same trees, regardless of wall clock or call site.
        """
        if n_more < 1:
            raise ValueError("n_more must be >= 1")
        if not self.trees_:
            raise RuntimeError("grow() called before fit(); use fit() first")
        X, y = check_fit_input(X, y)
        rng = np.random.default_rng(
            (self.random_state or 0) + 1_000_003 * len(self.trees_)
        )
        self.trees_ = self.trees_ + self._grow_trees(rng, X, y, n_more)
        self.n_estimators = len(self.trees_)
        self._sum_importances()
        return self

    def prune(self, budget: int) -> "RandomForestRegressor":
        """Drop the *oldest* trees until at most ``budget`` remain — the
        prune half of grow-and-prune retraining.  Oldest-first because the
        oldest trees were fitted on the stalest corpus; after enough
        grow/prune cycles a drifted workload population fully replaces the
        ensemble without ever refitting it wholesale."""
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if not self.trees_:
            raise RuntimeError("prune() called before fit()")
        if len(self.trees_) > budget:
            self.trees_ = self.trees_[len(self.trees_) - budget :]
            self.n_estimators = len(self.trees_)
            self._sum_importances()
        return self

    def _sum_importances(self) -> None:
        """Forest importances: the trees' normalized importances summed in
        tree order, renormalized."""
        importances = np.zeros_like(self.trees_[0].feature_importances_)
        for tree in self.trees_:
            importances = importances + tree.feature_importances_
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Forest mean over all rows of ``X`` at once.

        Runs on the compiled arena: every ``(row, tree)`` lane's leaf is
        read off the forest's bit tables (or, for forests they do not
        fit, found by one lock-step descent), so a whole forest call is a
        few numpy passes plus one reduction instead of a Python loop of
        per-tree passes.  The arena carries the leaf values verbatim and
        the reduction sees the exact tensor the per-tree path would stack,
        so results are bit-for-bit identical to :meth:`predict_per_tree`
        (asserted by tests and the ``bench_predict`` gate).  Batches past
        :data:`ARENA_MAX_ROWS` take the per-tree path when the arena is
        in lock-step form.
        """
        if not self.trees_:
            raise RuntimeError("predict() called before fit()")
        if self._per_tree_wins(X):
            return self.predict_per_tree(X)
        return self.arena().predict(X)

    def predict_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Reference implementation: one vectorized pass per tree, mean
        over the stacked predictions.  Kept as the equivalence baseline
        the arena is verified against."""
        if not self.trees_:
            raise RuntimeError("predict_per_tree() called before fit()")
        predictions = [tree.predict(X) for tree in self.trees_]
        return np.mean(predictions, axis=0)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Per-sample standard deviation across trees — a cheap uncertainty
        signal the policies can use to hedge decisions.  Arena-backed
        (with the same :data:`ARENA_MAX_ROWS` cutover as :meth:`predict`),
        bit-for-bit identical to :meth:`predict_std_per_tree`."""
        if not self.trees_:
            raise RuntimeError("predict_std() called before fit()")
        if self._per_tree_wins(X):
            return self.predict_std_per_tree(X)
        return self.arena().predict_std(X)

    def predict_std_per_tree(self, X: np.ndarray) -> np.ndarray:
        """Reference per-tree implementation of :meth:`predict_std`."""
        if not self.trees_:
            raise RuntimeError("predict_std_per_tree() called before fit()")
        predictions = np.stack([tree.predict(X) for tree in self.trees_])
        return predictions.std(axis=0)
