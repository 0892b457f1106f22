"""A cold-start gate that does not read a clock.

Forest fitting is most of the fleet's cold start, and what made it cheap
is that no node is visited on its own: ``repro.ml.tree.fit_trees`` runs
the split search once per distinct node size across all 40 trees (and
once more per block when a pass is wider than its memory bound), not
once per node.  A fleet fit has about 2 500 nodes; node-at-a-time
fitting would show up as thousands of evaluator calls and a recursive
Python frame per node.  This sandbox's wall clock spreads ±15 % between
identical runs, so — like ``test_call_budget.py`` and
``test_message_budget.py`` — the gate counts: the calls of a seeded fit
are the same on every machine.
"""

import cProfile
import pstats

import numpy as np

from repro.ml import RandomForestRegressor
from repro.ml import tree as tree_module
from repro.scheduler.registry import ModelRegistry
from repro.topology.presets import PRESETS
from tests.ml.oracle_tree import forest_problem

#: Split-evaluator calls one 40-tree fleet fit may make.  Measured: 90 on
#: this key (≈ 45 distinct node sizes, the widest few evaluated in
#: blocks); the recursion made one per internal node, ≈ 1 200.
EVALUATOR_CALLS_MAX = 120


def _preset_problem():
    registry = ModelRegistry(seed=0)
    machine = PRESETS["amd"]()
    return forest_problem(
        registry.model(machine, 8), registry.training_set(machine, 8)
    )


def test_fleet_fit_visits_no_node_on_its_own(monkeypatch):
    X, Y = _preset_problem()
    assert len(X) == 50
    evaluated = []
    evaluate = tree_module._best_splits

    def counting(Xf, *rest):
        evaluated.append(len(Xf))
        return evaluate(Xf, *rest)

    monkeypatch.setattr(tree_module, "_best_splits", counting)
    forest = RandomForestRegressor(n_estimators=40, random_state=0)
    profile = cProfile.Profile()
    profile.runcall(forest.fit, X, Y)

    internal = sum(
        int(np.count_nonzero(tree._flat[0] >= 0)) for tree in forest.trees_
    )
    assert internal > 1000  # the trees really are fully grown
    assert len(evaluated) <= EVALUATOR_CALLS_MAX
    # Every internal node went through the evaluator, in company.
    assert sum(evaluated) >= internal

    stats = pstats.Stats(profile).stats
    builder = {
        name: (primitive, total)
        for (path, _, name), (primitive, total, *_) in stats.items()
        if path == tree_module.__file__
    }
    assert builder["fit_trees"] == (1, 1)
    # No Python frame per node, recursive or otherwise: the builder's
    # module ran the one build and its input checks ...
    assert all(primitive == total for primitive, total in builder.values())
    # ... beyond an evaluator pass each and the 40 tree constructors.
    frames = sum(total for _, total in builder.values())
    assert frames <= len(evaluated) + 40 + 12
