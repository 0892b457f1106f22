"""Seeded fault schedules beyond ``FaultPlan``'s own constructors."""

from __future__ import annotations

import random

from repro.scheduler.faults import FAULT_KINDS, FaultAction, FaultPlan


def storm(
    n_shards: int,
    *,
    seed: int = 0,
    n_faults: int = 8,
    span: int = 32,
    delay_ms: float = 2.0,
) -> FaultPlan:
    """A seeded mixed-mode schedule (crashes, drops, delays, wedges)
    for soak-style chaos runs."""
    rng = random.Random(seed)
    actions = []
    for _ in range(n_faults):
        kind = FAULT_KINDS[rng.randrange(len(FAULT_KINDS))]
        actions.append(
            FaultAction(
                shard=rng.randrange(n_shards),
                at_message=rng.randrange(span),
                kind=kind,
                delay_ms=delay_ms if kind == "delay" else 0.0,
            )
        )
    return FaultPlan(actions=actions, seed=seed)
