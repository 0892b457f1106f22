"""The goal rule as the two policies spelled it before they shared
:func:`repro.core.model.goal_order`, kept as the test oracle.

``choose_placement`` is ``MlPolicy.choose_placement``'s body over
candidate indices instead of placements (``sizes[k]`` is placement
``k``'s node count); ``preference_order`` is
``GoalAwareFleetPolicy._preference_order``'s, its two policy knobs
passed in.
"""

from typing import List, Sequence, Tuple

import numpy as np


def choose_placement(
    sizes: Sequence[int], vector: np.ndarray, threshold: float
) -> int:
    """Cheapest candidate predicted to meet the goal; falls back to the
    best-predicted candidate when none does."""
    candidates = [
        (k, predicted)
        for k, predicted in enumerate(vector)
        if predicted >= threshold
    ]
    if candidates:
        # Cheapest first; break ties by predicted performance.
        best = min(candidates, key=lambda c: (sizes[c[0]], -c[1]))
        return best[0]
    return int(np.argmax(vector))


def preference_order(
    sizes: Sequence[int],
    predicted: Sequence[float],
    goal_fraction: float | None,
    *,
    safety_margin: float,
    best_effort_slack: float,
) -> List[int]:
    """Candidate indices, most preferred first: goal-meeting (or, for
    best-effort requests, near-best) ones cheapest-first, then the rest
    by prediction; ties keep index order."""
    if goal_fraction is None:
        threshold = best_effort_slack * max(predicted)
    else:
        threshold = goal_fraction * (1.0 + safety_margin)
    meeting: List[Tuple] = []
    rest: List[Tuple] = []
    for k, value in enumerate(predicted):
        if value >= threshold:
            meeting.append((sizes[k], -value, k))
        elif value < threshold:  # a NaN prediction is in neither
            rest.append((-value, k))
    meeting.sort()
    rest.sort()
    return [key[-1] for key in meeting + rest]
