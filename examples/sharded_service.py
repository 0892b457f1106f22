"""Sharded scheduler service walkthrough: route, batch, retry.

The lifecycle engine (examples/fleet_churn.py) is a single loop: one
fleet, one policy, one event at a time.  This example runs the same
churn stream through the **sharded service**: the fleet is partitioned
across shard workers (each owning its own fleet index, block-score
tables, and model registry), and a thin front-end

* **routes** each arrival to the shard whose cached summary looks
  best-fit for the request's shape,
* **batches** consecutive arrivals into per-shard windows so each shard
  amortizes one fused forest call across the window, and defers
  departures into per-shard outboxes that ride inside the shard's next
  window message,
* **retries** optimistically on the next-best shard when a stale
  summary routed a request to a shard that turned out to be full —
  placement state lives only on the shards, the router's summaries are
  allowed to be wrong.

Every message is a dict of flat, JSON-safe rows (``repro.scheduler.wire``):
the default in-process transport hands it to the shard as is, and
``workers="process"`` moves each shard into a real child process with
the same message pickled onto a pipe.  A single-shard service is
decision-for-decision identical to the monolithic engine — sharding
changes where decisions happen, never what they are.

Run:  python examples/sharded_service.py
"""

import time

from repro.scheduler import (
    LifecycleScheduler,
    RebalanceConfig,
    ScheduleConfig,
    SchedulerService,
)


def run_monolith(config: ScheduleConfig, stream):
    registry = config.build_registry()
    engine = LifecycleScheduler(
        config.build_fleet(),
        config.build_policy(registry),
        registry=registry,
        config=RebalanceConfig(enabled=config.rebalance_enabled),
    )
    start = time.perf_counter()
    report = engine.run(stream)
    return report, time.perf_counter() - start


def main() -> None:
    # A churning fleet: Poisson arrivals, heavy-tailed lifetimes, mostly
    # 1-node containers with occasional 4-node ones.
    base = dict(
        machine="amd",
        hosts=200,
        requests=400,
        seed=11,
        churn=True,
        arrival_rate=4.0,
        mean_lifetime=30.0,
        heavy_tail=True,
        vcpus=(8, 8, 16, 32),
    )
    stream = ScheduleConfig(**base).build_stream()
    print(
        f"stream: {len(stream)} requests over "
        f"{stream[-1].arrival_time:.0f} simulated seconds, "
        f"fleet of {base['hosts']} hosts"
    )
    print()

    mono_report, mono_seconds = run_monolith(ScheduleConfig(**base), stream)
    print(f"--- monolithic lifecycle engine ({mono_seconds:.2f}s) ---")
    print(mono_report.describe())
    print()

    service_config = ScheduleConfig(**base, shards=4, window=16)
    with SchedulerService(service_config) as service:
        start = time.perf_counter()
        svc_report = service.serve(stream)
        svc_seconds = time.perf_counter() - start
    print(f"--- 4-shard service, window 16 ({svc_seconds:.2f}s) ---")
    print(svc_report.describe())
    print()

    # The same stream through one shard with window 1 *is* the
    # monolithic engine behind a wire protocol: identical decisions.
    with SchedulerService(ScheduleConfig(**base, shards=1, window=1)) as one:
        one_report = one.serve(stream)
    identical = all(
        a.decision.host_id == b.decision.host_id
        and a.decision.placement_id == b.decision.placement_id
        for a, b in zip(one_report.decisions, mono_report.decisions)
    )
    print(
        f"single shard, window 1 vs monolith: "
        f"{'identical decisions' if identical else 'DIVERGED'} "
        f"({len(one_report.decisions)} decisions)"
    )
    print(
        "(at this toy size each shard's one-time model fits dominate the "
        "wall clock; benchmarks/bench_service.py measures the crossover — "
        "the 4-shard service clears 2x the single loop from ~40k hosts)"
    )
    print(
        "the CLI front door: `repro serve --shards 4 --window 16 "
        "--hosts 10000 --requests 2000`"
    )


if __name__ == "__main__":
    main()
