"""One goal rule for the paper's policy and the fleet's.

``MlPolicy.choose_placement`` (one host) and the goal-aware fleet policy
(a preference order its rank walk follows) both call
:func:`repro.core.model.goal_order`.  The property draws candidate sizes
and prediction vectors with many ties and checks the shared rule against
both policies' former bodies (``tests/core/oracle_goal_rule.py``): the
same first choice as the paper's policy, the same order as the fleet's.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.model import goal_order
from tests.core.oracle_goal_rule import choose_placement, preference_order

#: Few distinct values, so sizes and predictions tie often.
_COARSE = st.sampled_from([0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.2])


@st.composite
def _candidates(draw):
    n = draw(st.integers(1, 12))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    predicted = draw(
        st.lists(
            st.one_of(_COARSE, st.floats(0.05, 2.0)), min_size=n, max_size=n
        )
    )
    return sizes, predicted


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    candidates=_candidates(),
    goal=st.one_of(st.none(), _COARSE),
    safety_margin=st.sampled_from([0.0, 0.05]),
    best_effort_slack=st.sampled_from([0.9, 1.0]),
)
def test_goal_order_is_both_policies_rule(
    candidates, goal, safety_margin, best_effort_slack
):
    sizes, predicted = candidates
    if goal is None:
        threshold = best_effort_slack * max(predicted)
    else:
        threshold = goal * (1.0 + safety_margin)
    order = goal_order(sizes, predicted, threshold)
    assert sorted(order) == list(range(len(sizes)))
    assert order == preference_order(
        sizes,
        predicted,
        goal,
        safety_margin=safety_margin,
        best_effort_slack=best_effort_slack,
    )
    assert order[0] == choose_placement(sizes, np.array(predicted), threshold)

