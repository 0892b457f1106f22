"""Sharded scheduler service benchmark: throughput and tail latency.

One heavy-tailed churn stream (Poisson arrivals at 20/s, Pareto
lifetimes, 8-32 vCPU containers) is replayed at fleet sizes from 10k to
100k hosts through two schedulers:

* the **monolithic** single-loop ``LifecycleScheduler`` (one fleet, one
  policy, one event at a time);
* the **4-shard service**: the fleet partitioned across shard workers,
  arrivals routed from per-shard summaries and decided in windows of 16
  per shard, departures deferred into batched per-shard messages.

Everything runs in one process (inline transport — messages are handed
to the shard unserialized), so the measured speedup is *algorithmic*, not
parallelism: each shard's candidate scans cover 1/4 of the hosts, the
window amortizes the policy's fused forest call across 16 arrivals, and
departures stop costing a round trip each.  The host-scan term grows
with fleet size while the rest is per-request, so the service's
advantage widens with the fleet — the headline assertion is >= 2x at
40k hosts, where the scan term dominates.

Also asserted (full and smoke): a single-shard, window-1 service run of
the reference churn stream is decision-for-decision identical to the
monolithic engine — the wire protocol may cost time but never changes
an outcome.

Model fitting and arena compilation happen outside every timed region.
p50/p99 per-placement decision latency comes from the service report's
decision traces.  Results are persisted to ``BENCH_fleet.json`` under
the ``service`` scenario for regression tracking.

Set ``REPRO_BENCH_SMOKE=1`` to run a tiny configuration (CI's benchmark
smoke step): 60 hosts, 2 shards, same equivalence assertion, no
wall-clock-ratio assertions (shared runners are too noisy).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import BENCH_SMOKE as SMOKE
from conftest import record_bench

from repro.scheduler import (
    LifecycleScheduler,
    RebalanceConfig,
    ScheduleConfig,
    SchedulerService,
)

FLEET_SIZES = (60,) if SMOKE else (10_000, 40_000, 100_000)
N_REQUESTS = 200 if SMOKE else 2_000
SHARDS = 2 if SMOKE else 4
WINDOW = 8 if SMOKE else 16
VCPUS = (8, 8, 16, 32)
ARRIVAL_RATE = 20.0
MEAN_LIFETIME = 40.0
SEED = 17
#: Fleet size at which the >= 2x speedup floor is asserted (full mode).
SPEEDUP_FLOOR_HOSTS = 40_000
MIN_SPEEDUP = 2.0

#: The single-shard equivalence reference (same shape as the
#: test-suite's churn reference stream).
REFERENCE = dict(
    machine="amd",
    hosts=4,
    requests=40 if SMOKE else 60,
    seed=11,
    churn=True,
    arrival_rate=1.0,
    mean_lifetime=25.0,
    heavy_tail=True,
    vcpus=(8, 8, 8, 32),
)


def _stream_config(hosts: int, **service_knobs) -> ScheduleConfig:
    return ScheduleConfig(
        machine="amd",
        hosts=hosts,
        requests=N_REQUESTS,
        seed=SEED,
        churn=True,
        arrival_rate=ARRIVAL_RATE,
        mean_lifetime=MEAN_LIFETIME,
        heavy_tail=True,
        vcpus=VCPUS,
        **service_knobs,
    )


def _prefit(registry, machine, vcpus) -> None:
    """Fit models and warm the arena outside the timed region."""
    for size in sorted(set(vcpus)):
        model = registry.model(machine, size)
        model.predict_batch(np.array([1.0]), np.array([1.0]))


def _run_monolith(config: ScheduleConfig, stream):
    fleet = config.build_fleet()
    registry = config.build_registry()
    policy = config.build_policy(registry)
    _prefit(registry, fleet.hosts[0].machine, config.vcpus)
    engine = LifecycleScheduler(
        fleet,
        policy,
        registry=registry,
        config=RebalanceConfig(
            enabled=config.rebalance_enabled,
            reject_penalty_seconds=config.penalty_seconds,
        ),
    )
    start = time.perf_counter()
    fleet_report = engine.run(stream)
    return fleet_report, time.perf_counter() - start


def _run_service(config: ScheduleConfig, stream):
    with SchedulerService(config) as service:
        for client in service.clients:  # inline: workers are reachable
            _prefit(
                client.worker.registry,
                client.worker.machines[0],
                config.vcpus,
            )
        start = time.perf_counter()
        fleet_report = service.serve(stream)
        return fleet_report, time.perf_counter() - start


def _fingerprints(decisions):
    return [
        (
            g.decision.request.request_id,
            g.decision.host_id,
            None
            if g.decision.placement is None
            else (tuple(g.decision.placement.nodes), g.decision.placement.l2_share),
            g.decision.placement_id,
            g.decision.block_exact,
            g.decision.reject_reason,
            g.achieved_relative,
            g.violated,
        )
        for g in decisions
    ]


def test_service_throughput_and_equivalence(report):
    # ------------------------------------------------------------------
    # Gate: the wire protocol must not change a single decision.
    # ------------------------------------------------------------------
    reference = ScheduleConfig(**REFERENCE, shards=1, window=1)
    reference_stream = reference.build_stream()
    mono_ref, _ = _run_monolith(reference, reference_stream)
    svc_ref, _ = _run_service(reference, reference_stream)
    equivalent = _fingerprints(svc_ref.decisions) == _fingerprints(
        mono_ref.decisions
    )
    assert equivalent, (
        "single-shard service must be bit-identical to the monolithic "
        "lifecycle engine on the reference stream"
    )

    # ------------------------------------------------------------------
    # Sweep: one stream, growing fleets, monolith vs 4-shard service.
    # ------------------------------------------------------------------
    stream = _stream_config(FLEET_SIZES[0]).build_stream()
    lines = [
        f"sharded scheduler service vs monolithic single loop "
        f"({N_REQUESTS} heavy-tailed churn requests, {SHARDS} shards, "
        f"window {WINDOW}, inline transport, seed {SEED}"
        f"{', SMOKE' if SMOKE else ''}):",
        "",
        f"{'hosts':>8} {'monolith req/s':>15} {'service req/s':>14} "
        f"{'speedup':>8} {'p50 ms':>8} {'p99 ms':>8} {'retries':>8}",
    ]
    by_hosts = {}
    speedups = {}
    for hosts in FLEET_SIZES:
        _, mono_seconds = _run_monolith(_stream_config(hosts), stream)
        svc_report, svc_seconds = _run_service(
            _stream_config(hosts, shards=SHARDS, window=WINDOW), stream
        )
        assert len(svc_report.decisions) == N_REQUESTS
        assert svc_report.placed + svc_report.rejected == N_REQUESTS
        stats = svc_report.service
        assert stats.exhausted == svc_report.rejected
        p50_ms, p99_ms = svc_report.latency_percentiles_ms()
        mono_rps = N_REQUESTS / mono_seconds
        svc_rps = N_REQUESTS / svc_seconds
        speedups[hosts] = mono_seconds / svc_seconds
        lines.append(
            f"{hosts:>8} {mono_rps:>15.1f} {svc_rps:>14.1f} "
            f"{speedups[hosts]:>8.2f} {p50_ms:>8.3f} {p99_ms:>8.3f} "
            f"{stats.retries:>8}"
        )
        by_hosts[str(hosts)] = {
            "monolith_rps": round(mono_rps, 1),
            "service_rps": round(svc_rps, 1),
            "speedup": round(speedups[hosts], 2),
            "p50_ms": round(p50_ms, 3),
            "p99_ms": round(p99_ms, 3),
            "placed": svc_report.placed,
            "rejected": svc_report.rejected,
            "retries": stats.retries,
            "recovered_by_retry": stats.recovered_by_retry,
            "departure_batches": stats.departure_batches,
        }

    lines += [
        "",
        "same stream, same process, one CPU: the speedup is algorithmic "
        f"(1/{SHARDS} candidate scans per shard, windows of {WINDOW} "
        "amortizing the fused forest call, batched departures) and "
        "widens with fleet size as the host-scan term dominates",
        f"single-shard reference stream: decisions bit-identical to the "
        f"monolithic engine ({len(svc_ref.decisions)} decisions)",
    ]
    report("service_throughput", "\n".join(lines))

    record_bench(
        "service",
        {
            "scenario": f"{SHARDS}-shard service vs monolithic loop, AMD "
            f"shape, heavy-tailed churn, vcpus {list(VCPUS)}, seed {SEED}",
            "requests": N_REQUESTS,
            "shards": SHARDS,
            "window": WINDOW,
            "transport": "inline",
            "single_shard_equivalent": equivalent,
            "by_hosts": by_hosts,
        },
    )

    if not SMOKE:
        floor = speedups[SPEEDUP_FLOOR_HOSTS]
        assert floor >= MIN_SPEEDUP, (
            f"{SHARDS}-shard service must clear {MIN_SPEEDUP}x over the "
            f"single loop at {SPEEDUP_FLOOR_HOSTS} hosts, got {floor:.2f}x"
        )
