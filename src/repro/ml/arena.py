"""Arena-compiled forest inference: bit tables, not tree descent.

At fleet scale the model is consulted per scheduling event on a handful
of rows, so the fixed dispatch cost of many small numpy passes — not
arithmetic — is what a prediction pays.  :class:`ForestArena` compiles a
fitted forest once, where it is built (``RandomForestRegressor.arena()``,
which the artifact store calls before sealing an entry), into one of two
forms:

* **bit tables** (QuickScorer): each tree's leaves are numbered left to
  right and every internal node owns a 64-bit mask that clears the leaves
  of its *left* subtree — the leaves a row can no longer reach once the
  node's test ``x[f] <= threshold`` fails.  Per feature, the forest's
  thresholds are sorted and the masks prefix-ANDed per tree into a
  ``(n_thresholds + 1, n_trees)`` ``uint64`` table, so row ``k`` holds,
  for every tree, the AND of all failed tests when ``k`` thresholds lie
  strictly below the value.  A prediction is one ``searchsorted`` and one
  row gather per feature, an ``&`` across features, and the lowest set
  bit of each word is the exit leaf: about ten numpy calls however deep
  the trees are.
* **lock-step descent** (:func:`repro.ml.tree.descend_flat` over the
  stacked node arrays, one pass per tree level) for forests the tables do
  not fit.

The choice is made once per compiled arena and is a pure function of the
forest: every tree has at most :data:`MAX_LEAVES` leaves (one machine
word) and the tables take at most :data:`BIT_TABLE_MAX_BYTES` (they grow
with thresholds x trees: the fleet's 40-tree arenas need about 0.4 MB,
a 100-tree forest fitted on 400 rows would need about 80 MB).  There is
no parameter, flag or environment variable.

Bit-for-bit equivalence with the per-tree path is the design invariant:
both forms gather the same ``(n_trees, n_rows, n_outputs)`` C-contiguous
tensor ``np.stack([tree.predict(X) ...])`` builds, and the same
``add.reduce / n_trees`` (what ``np.mean`` computes) or ``std`` reduces
it.  Tests and the ``bench_predict`` gate assert equality on both sides
of the rule, including after ``grow``/``prune``/``warm_refit``.
:func:`predict_fused` is a loop over its groups: fusing several forests
into one descent only ever paid for the dispatch cost the tables removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.ml.tree import descend_flat

#: Leaves one ``uint64`` mask can number; a forest with a larger tree
#: takes the lock-step descent.
MAX_LEAVES = 64
#: Byte budget of one arena's bit tables ((internal nodes + features) x
#: trees x 8); a forest over it takes the lock-step descent.
BIT_TABLE_MAX_BYTES = 8 << 20


@dataclass
class ArenaStats:
    """Process-wide arena accounting (surfaced by the fleet report)."""

    #: Forests compiled into arenas (recompiles after grow/prune included).
    forests_compiled: int = 0
    #: Arena predict/predict_std calls (single-forest).
    predict_calls: int = 0
    #: Multi-forest calls (one per goal-aware batch).
    fused_calls: int = 0
    #: (row x tree) lanes evaluated across all calls.
    lanes_evaluated: int = 0


#: Global counters, cumulative for the process (mirroring the block-score
#: cache's process-wide accounting idiom).
ARENA_STATS = ArenaStats()


class ForestArena:
    """One fitted forest compiled into contiguous parallel arrays.

    Built from the trees' own flat arrays — what a fitted tree *is*;
    there is no node graph to flatten first — with leaf values carried
    verbatim, so evaluating the arena is bit-for-bit identical to
    evaluating the trees.  Instances are immutable; the forest caches one
    and replaces it — bit tables included — wholesale when refitted.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "values",
        "roots",
        "n_trees",
        "n_features",
        "n_outputs",
        "squeeze",
        "bit_tables",
        "leaf_values",
        "leaf_base",
    )

    def __init__(self, trees: Sequence) -> None:
        if not trees:
            raise ValueError("cannot compile an arena from zero trees")
        first = trees[0]
        self.n_trees = len(trees)
        self.n_features = first._n_features
        self.n_outputs = first._n_outputs
        self.squeeze = first._y_was_1d
        for tree in trees:
            if (
                tree._n_features != self.n_features
                or tree._n_outputs != self.n_outputs
                or tree._y_was_1d != self.squeeze
            ):
                raise ValueError(
                    "all trees of a forest must share feature/output shape"
                )
        flats = [tree._fitted() for tree in trees]
        counts = np.array([len(flat[0]) for flat in flats], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        self.feature = np.concatenate([flat[0] for flat in flats])
        self.threshold = np.concatenate([flat[1] for flat in flats])
        # Child indices rebased to the arena: the descent never leaves a
        # tree because left/right are only read at internal nodes.
        self.left = np.concatenate(
            [flat[2] + base for flat, base in zip(flats, offsets)]
        )
        self.right = np.concatenate(
            [flat[3] + base for flat, base in zip(flats, offsets)]
        )
        self.values = np.vstack([flat[4] for flat in flats])
        self.roots = offsets[:-1].astype(np.intp)
        self._compile_bit_tables(offsets)
        ARENA_STATS.forests_compiled += 1

    def _compile_bit_tables(self, offsets: np.ndarray) -> None:
        """Build the per-feature tables, or record that the forest is over
        the rule (``bit_tables = None``).

        Relies on the flat format's depth-first preorder: a node's left
        subtree is the index range ``[left, right)``, and leaves met in
        index order are the tree's leaves left to right.
        """
        is_leaf = self.feature < 0
        leaves_before = np.concatenate(([0], np.cumsum(is_leaf)))
        first_leaf = leaves_before[offsets]  # per tree, plus the total
        internal = np.flatnonzero(~is_leaf)
        table_bytes = (len(internal) + self.n_features) * self.n_trees * 8
        self.bit_tables = self.leaf_values = self.leaf_base = None
        if (
            not len(internal)  # nothing to test: the descent is a no-op
            or np.diff(first_leaf).max() > MAX_LEAVES
            or table_bytes > BIT_TABLE_MAX_BYTES
        ):
            return
        tree_of = np.searchsorted(offsets, internal, side="right") - 1
        lo = leaves_before[self.left[internal]]
        width = (leaves_before[self.right[internal]] - lo).astype(np.uint64)
        one = np.uint64(1)
        # At most 63 leaves sit left of a node, so the shifts never wrap.
        mask = ~(
            ((one << width) - one)
            << (lo - first_leaf[tree_of]).astype(np.uint64)
        )
        # Sorted by (feature, threshold): each feature's nodes are one run.
        order = np.lexsort((self.threshold[internal], self.feature[internal]))
        runs = np.searchsorted(
            self.feature[internal][order], np.arange(self.n_features + 1)
        )
        tables = []
        for feature, (start, end) in enumerate(zip(runs[:-1], runs[1:])):
            if start == end:
                continue  # no tree tests this feature
            nodes = order[start:end]
            table = np.full((end - start + 1, self.n_trees), ~np.uint64(0))
            table[np.arange(1, len(table)), tree_of[nodes]] = mask[nodes]
            np.bitwise_and.accumulate(table, axis=0, out=table)
            tables.append((feature, self.threshold[internal[nodes]], table))
        self.bit_tables = tuple(tables)
        self.leaf_values = self.values[is_leaf]
        # frexp's exponent of the lowest set bit is its index plus one.
        self.leaf_base = (first_leaf[:-1] - 1)[:, None]

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """Every array the arena owns — what the artifact store seals."""
        owned = [self.feature, self.threshold, self.left, self.right,
                 self.values, self.roots]
        if self.bit_tables is not None:
            owned += [self.leaf_values, self.leaf_base]
            owned += [a for _, *pair in self.bit_tables for a in pair]
        return tuple(owned)

    # ------------------------------------------------------------------

    def _check_X(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, forest was fit on "
                f"{self.n_features}"
            )
        return X

    def stacked(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions as one C-contiguous tensor.

        Shape ``(n_trees, n_rows, n_outputs)`` (outputs squeezed for 1-d
        targets) — byte-for-byte the array ``np.stack([tree.predict(X) for
        tree in trees])`` builds.
        """
        X = self._check_X(X)
        n = len(X)
        ARENA_STATS.lanes_evaluated += n * self.n_trees
        if self.bit_tables is None:
            position = np.repeat(self.roots, n)
            descend_flat(
                self.feature, self.threshold, self.left, self.right, X,
                np.tile(np.arange(n, dtype=np.intp), self.n_trees), position,
            )
            stacked = self.values[position].reshape(
                self.n_trees, n, self.n_outputs
            )
        else:
            bits = None
            for feature, cuts, table in self.bit_tables:
                # side="left": a row exactly on a threshold passes `<=`.
                hit = table.take(cuts.searchsorted(X[:, feature]), axis=0)
                bits = hit if bits is None else np.bitwise_and(bits, hit, bits)
            np.bitwise_and(bits, -bits, out=bits)  # isolate the lowest bit
            exponent = np.frexp(bits.astype(float))[1]
            # order="C": the reduction below must see the per-tree layout.
            leaf = np.add(exponent.T, self.leaf_base, order="C")
            stacked = self.leaf_values.take(leaf, axis=0)
        return stacked[:, :, 0] if self.squeeze else stacked

    def _mean(self, X: np.ndarray) -> np.ndarray:
        # Exactly np.mean(stacked, axis=0), minus its Python wrapper.
        return np.add.reduce(self.stacked(X), axis=0) / self.n_trees

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Forest mean: one evaluation + one reduction."""
        ARENA_STATS.predict_calls += 1
        return self._mean(X)

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Per-row std across trees: one evaluation + one reduction."""
        ARENA_STATS.predict_calls += 1
        return self.stacked(X).std(axis=0)


def predict_fused(plans: Sequence[Tuple[object, np.ndarray]]) -> List[np.ndarray]:
    """Evaluate many ``(forest, X)`` groups — one per ``(shape, vcpus)``
    key of a scheduler batch — as one accounted call.

    The returned list holds, per group, exactly what ``forest.predict(X)``
    returns, bit for bit.  Groups must agree on the feature count.
    """
    if not plans:
        return []
    arenas = [forest.arena() for forest, _ in plans]
    widths = {arena.n_features for arena in arenas}
    if len(widths) > 1:
        raise ValueError(
            f"fused groups disagree on feature count: {sorted(widths)}"
        )
    ARENA_STATS.fused_calls += 1
    return [arena._mean(X) for arena, (_, X) in zip(arenas, plans)]
