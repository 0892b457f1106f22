"""The goal-aware policy without its capacity short-circuit: the oracle.

:class:`~repro.scheduler.policies.GoalAwareFleetPolicy` answers
``capacity`` from the fleet index's free-count buckets — before probing a
group no host can hold, and again per request at placement time — instead
of learning it from a rank walk that comes back empty.  The walk itself
is the specification, so it is kept here: this policy believes every lane
always has room, hence probes every hostable group, predicts it, sorts
its preferences and walks ``2 passes x ranks x lanes`` before it says
``capacity``.  ``tests/scheduler/test_capacity_shortcut.py`` holds the
production policy and its linear-scan oracle
(``tests/scheduler/oracle_linear.py``) to its decisions, row for row.
"""

from repro.scheduler import GoalAwareFleetPolicy


class FullWalkPolicy(GoalAwareFleetPolicy):
    """Every ``capacity`` reject is the rank walk's own conclusion."""

    def _has_room(self, index, lane) -> bool:
        return True
