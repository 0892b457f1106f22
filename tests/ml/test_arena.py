"""Bit-for-bit equivalence of arena-compiled inference vs the per-tree path.

The arena is the forest's serving hot path; the repo's bar for hot-path
rewrites is *exact* equality with the reference implementation, so every
assertion here is ``np.array_equal``, never ``allclose``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.model import PlacementModel
from repro.core.training import build_training_set
from repro.experiments import CANONICAL_PAIRS, training_corpus
from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from repro.ml import arena as arena_module
from repro.ml.arena import ARENA_STATS, MAX_LEAVES, ForestArena, predict_fused
from repro.scheduler.registry import ModelRegistry
from repro.topology import amd_opteron_6272
from repro.topology.presets import PRESETS
from tests.ml.oracle_tree import n_leaves


def _random_problem(rng, n_outputs):
    n = int(rng.integers(30, 120))
    d = int(rng.integers(2, 6))
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    weights = rng.normal(size=(d, n_outputs))
    Y = np.tanh(X @ weights) + rng.normal(scale=0.1, size=(n, n_outputs))
    if n_outputs == 1 and rng.integers(2):
        Y = Y[:, 0]  # exercise the squeezed 1-d target path too
    return X, Y


#: What only the lock-step form reads.
DESCENT_SLOTS = ("feature", "threshold", "left", "right", "values", "roots")


def _lock_step_arena(trees):
    """The same trees compiled on the far side of the rule: a byte budget
    no table fits sends the forest to the lock-step descent."""
    with mock.patch.object(arena_module, "BIT_TABLE_MAX_BYTES", 0):
        arena = ForestArena(trees)
    assert arena.bit_tables is None
    return arena


def _tests(trees):
    """``(feature, threshold)`` of every internal node, read off the
    trees' own flat arrays (a table arena keeps no node arrays)."""
    feature = np.concatenate([tree._fitted()[0] for tree in trees])
    threshold = np.concatenate([tree._fitted()[1] for tree in trees])
    internal = feature >= 0
    return feature[internal], threshold[internal]


def _boundary_queries(rng, trees, rows):
    """Random rows, with cells moved exactly onto the forest's thresholds
    (the ``<=`` boundary) and onto the values no threshold orders."""
    n_features = trees[0]._n_features
    Q = rng.uniform(-2.5, 2.5, size=(rows, n_features))
    feature, threshold = _tests(trees)
    if rows and len(feature):
        for node in rng.integers(len(feature), size=3 * rows):
            Q[rng.integers(rows), feature[node]] = threshold[node]
    for value in (np.inf, -np.inf, np.nan):
        if rows:
            Q[rng.integers(rows), rng.integers(n_features)] = value
    return Q


def _assert_arena_matches_trees(arena, trees, Q):
    """stacked/predict/predict_std against the per-tree oracle, bit for
    bit (``equal_nan``: a NaN cell descends right at every test, in both)."""
    oracle = np.stack([tree.predict(Q) for tree in trees])
    stacked = arena.stacked(Q)
    assert stacked.shape == oracle.shape
    assert np.array_equal(stacked, oracle, equal_nan=True)
    assert np.array_equal(arena.predict(Q), np.mean(oracle, axis=0))
    assert np.array_equal(arena.predict_std(Q), oracle.std(axis=0))


class TestBothSidesOfTheRule:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(2, 150),
        n_features=st.integers(1, 4),
        n_outputs=st.integers(0, 3),  # 0: a 1-d target (squeezed outputs)
        n_trees=st.integers(1, 12),
        max_depth=st.one_of(st.none(), st.integers(1, 9)),
        levels=st.one_of(st.none(), st.integers(2, 5)),
        rows=st.integers(0, 24),
    )
    def test_random_forests_match_the_trees_exactly(
        self, seed, n_train, n_features, n_outputs, n_trees, max_depth,
        levels, rows,
    ):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2.0, 2.0, size=(n_train, n_features))
        if levels is not None:
            # A few distinct values per feature: the same thresholds recur
            # within a tree and across trees.
            X = np.round(X * levels / 2.0)
        Y = np.tanh(X @ rng.normal(size=(n_features, max(n_outputs, 1))))
        Y += rng.normal(scale=0.1, size=Y.shape)
        forest = RandomForestRegressor(
            n_estimators=n_trees, max_depth=max_depth, random_state=seed % 997
        ).fit(X, Y[:, 0] if n_outputs == 0 else Y)

        arena = forest.arena()
        has_tests = any(n_leaves(tree) > 1 for tree in forest.trees_)
        fits = max(n_leaves(tree) for tree in forest.trees_) <= MAX_LEAVES
        assert (arena.bit_tables is not None) == (has_tests and fits)

        Q = _boundary_queries(rng, forest.trees_, rows)
        for compiled in (arena, _lock_step_arena(forest.trees_)):
            _assert_arena_matches_trees(compiled, forest.trees_, Q)
        clean = Q[np.isfinite(Q).all(axis=1)]
        assert np.array_equal(forest.predict(clean), forest.predict_per_tree(clean))
        assert np.array_equal(
            forest.predict_std(clean), forest.predict_std_per_tree(clean)
        )
        other = RandomForestRegressor(n_estimators=3, random_state=1).fit(
            X, Y[:, :1]
        )
        fused = predict_fused([(forest, clean), (other, clean[:1]), (forest, Q)])
        assert np.array_equal(fused[0], forest.predict_per_tree(clean))
        assert np.array_equal(fused[1], other.predict_per_tree(clean[:1]))
        assert np.array_equal(
            fused[2], forest.predict_per_tree(Q), equal_nan=True
        )

    @pytest.mark.parametrize("leaves", [MAX_LEAVES, MAX_LEAVES + 1])
    def test_one_word_of_leaves_is_the_limit(self, leaves):
        """A tree of exactly 64 leaves still fits a mask (its last leaf is
        bit 63); one leaf more sends the whole forest to the descent."""
        rng = np.random.default_rng(leaves)
        X = rng.permutation(leaves)[:, None].astype(float)
        y = rng.normal(size=leaves)
        big = DecisionTreeRegressor().fit(X, y)
        assert n_leaves(big) == leaves
        small = DecisionTreeRegressor(max_depth=2).fit(X, y)
        arena = ForestArena([small, big])
        assert (arena.bit_tables is not None) == (leaves <= MAX_LEAVES)
        # Every leaf of the big tree is reached, on and between thresholds.
        Q = np.arange(-1.0, leaves + 1.0, 0.5)[:, None]
        assert len(np.unique(big.predict(Q))) == leaves
        _assert_arena_matches_trees(arena, [small, big], Q)

    def test_single_leaf_trees(self):
        """A tree without conditions owns no mask: beside trees that have
        some its word stays all ones (leaf 0); a forest of nothing else
        has no table to build and keeps the (no-op) descent."""
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20, 2))
        stump = DecisionTreeRegressor().fit(X, np.full(20, 1.5))
        tree = DecisionTreeRegressor().fit(X, rng.normal(size=20))
        assert n_leaves(stump) == 1
        Q = rng.uniform(size=(5, 2))
        mixed = ForestArena([stump, tree, stump])
        assert mixed.bit_tables is not None
        _assert_arena_matches_trees(mixed, [stump, tree, stump], Q)
        stumps = ForestArena([stump, stump])
        assert stumps.bit_tables is None
        _assert_arena_matches_trees(stumps, [stump, stump], Q)

    def test_byte_budget_is_the_other_half_of_the_rule(self):
        rng = np.random.default_rng(1)
        forest = RandomForestRegressor(n_estimators=4, random_state=0).fit(
            rng.uniform(size=(30, 3)), rng.normal(size=30)
        )
        arena = forest.arena()
        n_internal = len(_tests(forest.trees_)[0])
        table_bytes = sum(table.nbytes for _, _, table in arena.bit_tables)
        # At most one row per threshold plus the all-ones first row per
        # tested feature: the estimate the rule budgets.
        assert table_bytes <= (n_internal + 3) * 4 * 8
        with mock.patch.object(
            arena_module, "BIT_TABLE_MAX_BYTES", (n_internal + 3) * 4 * 8 - 1
        ):
            assert ForestArena(forest.trees_).bit_tables is None

    def test_arrays_names_every_array_the_arena_owns(self):
        """What the artifact store seals: exactly the compiled form's own
        arrays, tables included, and nothing of the other form."""
        rng = np.random.default_rng(2)
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(
            rng.uniform(size=(30, 3)), rng.normal(size=(30, 2))
        )
        for arena in (forest.arena(), _lock_step_arena(forest.trees_)):
            held = [
                getattr(arena, slot)
                for slot in ForestArena.__slots__
                if isinstance(getattr(arena, slot), np.ndarray)
            ]
            for _, cuts, table in arena.bit_tables or ():
                held += [cuts, table]
                assert table.dtype == np.uint64
            assert sorted(map(id, arena.arrays())) == sorted(map(id, held))
            tabled = arena.bit_tables is not None
            assert (arena.leaf_values is not None) == tabled
            assert all(
                (getattr(arena, slot) is None) == tabled
                for slot in DESCENT_SLOTS
            )


def _assert_compact(arena, trees):
    """A table arena keeps one row per distinct threshold of each tested
    feature, plus the all-ones row, and no descent array."""
    if arena.bit_tables is None:
        return
    assert all(getattr(arena, slot) is None for slot in DESCENT_SLOTS)
    feature, threshold = _tests(trees)
    assert [tested for tested, _, _ in arena.bit_tables] == sorted(
        set(feature.tolist())
    )
    for tested, cuts, table in arena.bit_tables:
        distinct = np.unique(threshold[feature == tested])
        assert np.array_equal(cuts, distinct)
        assert table.shape == (len(distinct) + 1, len(trees))


def _assert_serves_exactly(forest, Q):
    """predict, predict_std and predict_fused against the per-tree path,
    bit for bit."""
    expected = forest.predict_per_tree(Q)
    assert np.array_equal(forest.predict(Q), expected)
    assert np.array_equal(predict_fused([(forest, Q)])[0], expected)
    assert np.array_equal(forest.predict_std(Q), forest.predict_std_per_tree(Q))


def _fleet_keys():
    """Every (preset, vCPU class) the fleet trains a model for."""
    registry = ModelRegistry(seed=0)
    return [
        (name, vcpus)
        for name in sorted(PRESETS)
        for vcpus in (8, 16, 32)
        if len(registry.placements(PRESETS[name](), vcpus)) >= 2
    ]


class TestCompactTables:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(2, 80),
        n_features=st.integers(1, 3),
        levels=st.integers(1, 4),
        n_trees=st.integers(1, 10),
        max_depth=st.one_of(st.none(), st.integers(1, 8)),
        n_grow=st.integers(1, 4),
        budget=st.integers(1, 12),
        rows=st.integers(0, 16),
    )
    def test_tables_hold_distinct_thresholds_and_serve_exactly(
        self, seed, n_train, n_features, levels, n_trees, max_depth, n_grow,
        budget, rows,
    ):
        """Few distinct values per feature, so thresholds recur within and
        across trees; queries sit on them, between them, at +-inf and NaN."""
        rng = np.random.default_rng(seed)
        X = np.round(rng.uniform(-1.0, 1.0, size=(n_train, n_features)) * levels)
        y = np.tanh(X @ rng.normal(size=n_features))
        y += rng.normal(scale=0.1, size=n_train)
        forest = RandomForestRegressor(
            n_estimators=n_trees, max_depth=max_depth, random_state=seed % 997
        ).fit(X, y)
        for step in ("fit", "grow", "prune"):
            if step == "grow":
                forest.grow(X, y, n_grow)
            elif step == "prune":
                forest.prune(budget)
            _assert_compact(forest.arena(), forest.trees_)
            _assert_serves_exactly(
                forest, _boundary_queries(rng, forest.trees_, rows)
            )

    @pytest.mark.parametrize("name, vcpus", _fleet_keys())
    def test_every_fleet_key_before_and_after_warm_refit(self, name, vcpus):
        machine = PRESETS[name]()
        registry = ModelRegistry(seed=0)
        model = registry.model(machine, vcpus)
        candidate = model.warm_refit(
            registry.training_set(machine, vcpus), n_grow=4
        )
        rng = np.random.default_rng(vcpus)
        for forest in (model.forest, candidate.forest):
            assert forest.arena().bit_tables is not None
            _assert_compact(forest.arena(), forest.trees_)
            _assert_serves_exactly(
                forest, _boundary_queries(rng, forest.trees_, 12)
            )


class TestArenaEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_forests_match_per_tree_exactly(self, seed):
        """Property-based sweep: random shapes, outputs, depths, and query
        batches — arena and per-tree predictions are identical bits."""
        rng = np.random.default_rng(seed)
        n_outputs = int(rng.integers(1, 5))
        X, Y = _random_problem(rng, n_outputs)
        forest = RandomForestRegressor(
            n_estimators=int(rng.integers(1, 40)),
            max_depth=int(rng.integers(2, 12)),
            max_features="sqrt" if rng.integers(2) else None,
            random_state=seed,
        ).fit(X, Y)
        for rows in (0, 1, int(rng.integers(2, 64))):
            Q = rng.uniform(-2.5, 2.5, size=(rows, X.shape[1]))
            assert np.array_equal(
                forest.predict(Q), forest.predict_per_tree(Q)
            )
            assert np.array_equal(
                forest.predict_std(Q), forest.predict_std_per_tree(Q)
            )

    @pytest.mark.parametrize("n_outputs", [1, 3])
    def test_equivalence_survives_grow_and_prune(self, n_outputs):
        rng = np.random.default_rng(7)
        X, Y = _random_problem(rng, n_outputs)
        forest = RandomForestRegressor(
            n_estimators=6, max_depth=5, random_state=1
        ).fit(X, Y)
        Q = rng.uniform(-2.0, 2.0, size=(20, X.shape[1]))
        before = forest.predict(Q).copy()

        forest.grow(X, Y, 5)
        assert np.array_equal(forest.predict(Q), forest.predict_per_tree(Q))
        assert not np.array_equal(forest.predict(Q), before), (
            "grow must change the ensemble (else the arena was stale)"
        )
        _assert_arena_matches_trees(
            _lock_step_arena(forest.trees_), forest.trees_, Q
        )
        forest.prune(4)
        # The tables go with the arena: one column per surviving tree.
        for _, _, table in forest.arena().bit_tables:
            assert table.shape[1] == 4
        assert np.array_equal(forest.predict(Q), forest.predict_per_tree(Q))
        assert np.array_equal(
            forest.predict_std(Q), forest.predict_std_per_tree(Q)
        )

    def test_equivalence_after_warm_refit(self):
        machine = amd_opteron_6272()
        corpus = training_corpus(seed=3, n_synthetic=6)
        base = build_training_set(
            machine, 16, corpus[:16],
            baseline_index=CANONICAL_PAIRS[machine.name][0],
        )
        extended = build_training_set(
            machine, 16, corpus,
            baseline_index=CANONICAL_PAIRS[machine.name][0],
        )
        model = PlacementModel(
            input_pair=CANONICAL_PAIRS[machine.name],
            n_estimators=10,
            random_state=0,
        ).fit(base)
        candidate = model.warm_refit(extended, n_grow=4)
        rng = np.random.default_rng(0)
        obs_i = rng.uniform(0.5, 2.0, size=12)
        obs_j = rng.uniform(0.5, 2.0, size=12)
        assert candidate.forest.arena() is not model.forest.arena()
        for m in (model, candidate):
            features = m.batch_features(obs_i, obs_j)
            assert m.forest.arena().bit_tables is not None
            assert np.array_equal(
                m.predict_batch(obs_i, obs_j),
                m.forest.predict_per_tree(features),
            )
            _assert_arena_matches_trees(
                _lock_step_arena(m.forest.trees_), m.forest.trees_, features
            )

    def test_single_predict_matches_batch_row(self):
        rng = np.random.default_rng(2)
        X, Y = _random_problem(rng, 2)
        forest = RandomForestRegressor(n_estimators=9, random_state=2).fit(X, Y)
        Q = rng.uniform(size=(5, X.shape[1]))
        batch = forest.predict(Q)
        for row in range(len(Q)):
            assert np.array_equal(forest.predict(Q[row : row + 1])[0], batch[row])


class TestArenaLifecycle:
    def test_arena_cached_until_invalidated(self):
        rng = np.random.default_rng(0)
        X, Y = _random_problem(rng, 1)
        forest = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, Y)
        first = forest.arena()
        assert forest.arena() is first  # cached
        forest.grow(X, Y, 1)
        assert forest.arena() is not first
        second = forest.arena()
        forest.prune(2)
        assert forest.arena() is not second
        third = forest.arena()
        forest.fit(X, Y)
        assert forest.arena() is not third

    def test_trees_reassignment_invalidates(self):
        rng = np.random.default_rng(1)
        X, Y = _random_problem(rng, 1)
        a = RandomForestRegressor(n_estimators=3, random_state=0).fit(X, Y)
        b = RandomForestRegressor(n_estimators=3, random_state=1).fit(X, Y)
        stale = a.arena()
        a.trees_ = list(b.trees_)
        assert a.arena() is not stale
        Q = rng.uniform(size=(7, X.shape[1]))
        assert np.array_equal(a.predict(Q), b.predict_per_tree(Q))

    def test_arena_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().arena()

    def test_mixed_shape_trees_rejected(self):
        rng = np.random.default_rng(3)
        X, Y = _random_problem(rng, 1)
        a = RandomForestRegressor(n_estimators=2, random_state=0).fit(X, Y)
        b = RandomForestRegressor(n_estimators=2, random_state=0).fit(
            rng.uniform(size=(30, X.shape[1] + 1)), rng.uniform(size=30)
        )
        with pytest.raises(ValueError, match="share feature/output shape"):
            ForestArena(a.trees_ + b.trees_)

    def test_feature_width_validated(self):
        rng = np.random.default_rng(4)
        X, Y = _random_problem(rng, 1)
        forest = RandomForestRegressor(n_estimators=2, random_state=0).fit(X, Y)
        with pytest.raises(ValueError, match="features"):
            forest.predict(np.zeros((3, X.shape[1] + 2)))
        with pytest.raises(ValueError, match="2-dimensional"):
            forest.predict(np.zeros(X.shape[1]))


class TestFusedPrediction:
    def test_fused_groups_match_individual_forests(self):
        """Groups with different tree counts, output widths, and row
        counts fused into one call — each output identical to the group's
        own forest."""
        rng = np.random.default_rng(5)
        plans = []
        expected = []
        for n_outputs, n_trees, rows in ((1, 5, 3), (3, 11, 0), (2, 7, 17)):
            X = rng.uniform(size=(60, 4))
            Y = rng.normal(size=(60, n_outputs))
            if n_outputs == 1:
                Y = Y[:, 0]
            forest = RandomForestRegressor(
                n_estimators=n_trees, random_state=n_outputs
            ).fit(X, Y)
            Q = rng.uniform(size=(rows, 4))
            plans.append((forest, Q))
            expected.append(forest.predict_per_tree(Q))
        outputs = predict_fused(plans)
        assert len(outputs) == len(plans)
        for out, ref in zip(outputs, expected):
            assert np.array_equal(out, ref)

    def test_fused_equals_separate_arena_calls(self):
        rng = np.random.default_rng(6)
        forests = [
            RandomForestRegressor(n_estimators=k + 2, random_state=k).fit(
                rng.uniform(size=(40, 3)), rng.normal(size=(40, 2))
            )
            for k in range(3)
        ]
        Qs = [rng.uniform(size=(k + 1, 3)) for k in range(3)]
        fused = predict_fused(list(zip(forests, Qs)))
        for forest, Q, out in zip(forests, Qs, fused):
            assert np.array_equal(out, forest.predict(Q))

    def test_fused_stats_advance(self):
        rng = np.random.default_rng(8)
        forest = RandomForestRegressor(n_estimators=4, random_state=0).fit(
            rng.uniform(size=(30, 3)), rng.normal(size=30)
        )
        Q = rng.uniform(size=(6, 3))
        before = (ARENA_STATS.fused_calls, ARENA_STATS.lanes_evaluated)
        first = predict_fused([(forest, Q)])
        second = predict_fused([(forest, Q)])
        assert np.array_equal(first[0], second[0])
        assert ARENA_STATS.fused_calls == before[0] + 2
        assert ARENA_STATS.lanes_evaluated == before[1] + 2 * 4 * 6

    def test_fused_empty_and_width_mismatch(self):
        assert predict_fused([]) == []
        rng = np.random.default_rng(9)
        a = RandomForestRegressor(n_estimators=2, random_state=0).fit(
            rng.uniform(size=(20, 3)), rng.normal(size=20)
        )
        b = RandomForestRegressor(n_estimators=2, random_state=0).fit(
            rng.uniform(size=(20, 4)), rng.normal(size=20)
        )
        with pytest.raises(ValueError, match="feature count"):
            predict_fused([(a, rng.uniform(size=(2, 3))),
                           (b, rng.uniform(size=(2, 4)))])


class TestLargeBatchCutover:
    def test_only_the_lock_step_form_hands_large_batches_to_the_trees(self):
        """Past ARENA_MAX_ROWS the lane gather of a descent loses to the
        per-tree loop; a table look-up never does, and either way the
        bits are the same."""
        from repro.ml.forest import ARENA_MAX_ROWS

        rng = np.random.default_rng(11)
        X = rng.uniform(size=(200, 2))
        Q = rng.uniform(size=(ARENA_MAX_ROWS + 1, 2))
        for max_depth, tabled in ((4, True), (None, False)):
            forest = RandomForestRegressor(
                n_estimators=3, max_depth=max_depth, random_state=0
            ).fit(X, rng.normal(size=200))
            assert (forest.arena().bit_tables is not None) == tabled
            before = ARENA_STATS.predict_calls
            assert np.array_equal(forest.predict(Q), forest.predict_per_tree(Q))
            assert np.array_equal(
                forest.predict_std(Q), forest.predict_std_per_tree(Q)
            )
            assert ARENA_STATS.predict_calls == before + (2 if tabled else 0)
