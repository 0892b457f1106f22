"""The benchmark's four workloads: configs, seeded streams, decision digests.

Nothing here imports ``repro`` at module level: the worker's set-up clock
starts before ``import repro``, so every function that needs the program
imports it when called.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

#: Warm-up request ids start here, so measured decisions are the ones below it.
WARM_ID_BASE = 10**9
#: Warm-up arrivals per shard: enough that every shard sees every vCPU class.
WARM_ARRIVALS_PER_SHARD = 64
#: Warm-up lifetimes are clamped to this, so the fleet is empty again afterwards.
WARM_MAX_LIFETIME_S = 0.01
#: Warm-up stream seed offset from the measured stream's seed.
WARM_SEED_OFFSET = 82

VCPUS = (8, 8, 16, 32)
#: The program's own seed (models, simulators) stays at the CLI default; the
#: benchmark's ``--seed`` shapes only the request streams.
PROGRAM_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how the program is configured and driven."""

    name: str
    #: "serve" drives ``SchedulerService.serve``; "monolith" drives
    #: ``LifecycleScheduler.step`` one event at a time.
    kind: str
    #: Measured arrivals per second of ``--seconds``.  Frozen: sized so the
    #: measured phase takes about ``--seconds`` at the speed of the commit
    #: that added the benchmark, on the 2 cores it was written on.
    requests_per_second: int
    #: ``ScheduleConfig`` fields (``requests`` is filled per run).
    config: Dict = field(default_factory=dict)

    def requests(self, seconds: float) -> int:
        return max(WARM_ARRIVALS_PER_SHARD, round(self.requests_per_second * seconds))


_STEADY = dict(
    machine="amd",
    hosts=1000,
    shards=2,
    window=8,
    policy="ml",
    arrival_rate=20.0,
    mean_lifetime=120.0,
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("serve-inline", "serve", 960, dict(_STEADY, workers="inline")),
        Workload("serve-process", "serve", 960, dict(_STEADY, workers="process")),
        Workload(
            "serve-overload",
            "serve",
            1920,
            dict(
                machine="amd",
                hosts=200,
                shards=2,
                window=8,
                workers="inline",
                policy="ml",
                admission=True,
                queue_limit=64,
                shed_policy="deadline",
                brownout_watermark=0.05,
                arrival_rate=20.0,
                mean_lifetime=48.0,
            ),
        ),
        Workload(
            "monolith-events",
            "monolith",
            1280,
            dict(machine="mixed", hosts=400, policy="ml", arrival_rate=20.0, mean_lifetime=60.0),
        ),
    )
}


def build_config(workload: Workload, requests: int):
    from repro.scheduler.config import ScheduleConfig

    return ScheduleConfig(
        requests=requests, seed=PROGRAM_SEED, vcpus=VCPUS, churn=True, **workload.config
    ).validate()


def build_streams(config, seed: int) -> Tuple[List, List]:
    """(warm-up stream, measured stream) from the benchmark seed — the only
    inputs the program receives.  Exponential lifetimes: Pareto ones never
    reach steady occupancy within one run."""
    from repro.scheduler.requests import generate_churn_stream

    def stream(n: int, seed: int):
        return generate_churn_stream(
            n,
            seed=seed,
            vcpus_choices=config.vcpus,
            arrival_rate=config.arrival_rate,
            mean_lifetime=config.mean_lifetime,
        )

    warm = [
        replace(
            request,
            request_id=WARM_ID_BASE + request.request_id,
            lifetime=min(request.lifetime, WARM_MAX_LIFETIME_S),
        )
        for request in stream(WARM_ARRIVALS_PER_SHARD * config.shards, seed + WARM_SEED_OFFSET)
    ]
    return warm, stream(config.requests, seed)


def measured_decisions(decisions) -> List:
    """The graded decisions of measured arrivals (warm-up ids filtered out)."""
    return [g for g in decisions if g.decision.request.request_id < WARM_ID_BASE]


def decision_digest(decisions) -> str:
    """sha256 over ``(request_id, host_id, placement_id, reject_reason)`` in
    request-id order: equal digests mean equal decisions."""
    rows = sorted(
        (
            (
                g.decision.request.request_id,
                g.decision.host_id,
                g.decision.placement_id,
                g.decision.reject_reason,
            )
            for g in decisions
        ),
        key=lambda row: row[0],
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()
