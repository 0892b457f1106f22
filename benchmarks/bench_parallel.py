"""Parallel dispatch benchmark: overlapped vs sequential shard fan-out.

One heavy-tailed churn stream runs through the process-transport sharded
service twice per grid cell — once with ``--no-overlap`` (the serial
baseline: one blocking round trip per shard) and once with the default
overlapped dispatch (fire every shard's message, gather the replies via
``multiprocessing.connection.wait``) — across 10k/40k/100k hosts and
2–8 shards.

Hard gates (asserted in full *and* smoke mode):

* **Equivalence** — every cell's overlapped run must produce bit-for-bit
  the sequential run's decisions and merged churn report; the overlap is
  a pure wall-clock optimization.
* **Overlap accounting** — the overlapped run's summed per-shard service
  time must exceed its window wall clock (the round trips really did
  overlap), and ``overlapped_rounds`` must be positive.

The headline ≥2x wall-clock floor at 4 shards / 40k hosts is asserted
only on machines with at least 4 usable cores (and never in smoke mode):
overlapping pure-Python workers cannot beat the sequential baseline on a
single core, where the recorded speedup honestly hovers around 1x — the
``cpu_cores`` field in the payload says which regime produced the
numbers.

Results are persisted to ``BENCH_fleet.json`` under the ``parallel``
scenario.  Set ``REPRO_BENCH_SMOKE=1`` for the tiny CI configuration.
"""

from __future__ import annotations

import time

from conftest import BENCH_SMOKE as SMOKE
from conftest import record_bench, usable_cores

from repro.scheduler import ScheduleConfig, SchedulerService

if SMOKE:
    GRID = [(64, 2)]
    N_REQUESTS = 60
else:
    GRID = [
        (hosts, shards)
        for hosts in (10_000, 40_000, 100_000)
        for shards in (2, 4, 8)
    ]
    N_REQUESTS = 200
WINDOW = 8
VCPUS = (8, 8, 16, 32)
SEED = 11
#: The acceptance-criteria cell: ≥2x wall-clock at 4 shards / 40k hosts.
HEADLINE = (64, 2) if SMOKE else (40_000, 4)
SPEEDUP_FLOOR = 2.0
MIN_CORES_FOR_FLOOR = 4


CORES = usable_cores()


def _config(hosts: int, shards: int, overlap: bool) -> ScheduleConfig:
    return ScheduleConfig(
        machine="amd",
        hosts=hosts,
        requests=N_REQUESTS,
        seed=SEED,
        churn=True,
        policy="first-fit",
        arrival_rate=10.0,
        mean_lifetime=30.0,
        heavy_tail=True,
        vcpus=VCPUS,
        shards=shards,
        window=WINDOW,
        workers="process",
        overlap=overlap,
    )


def _run(config: ScheduleConfig):
    with SchedulerService(config) as service:
        start = time.perf_counter()
        fleet_report = service.serve()
        return fleet_report, time.perf_counter() - start


def _fingerprints(decisions):
    return [
        (
            g.decision.request.request_id,
            g.decision.host_id,
            None
            if g.decision.placement is None
            else (
                tuple(g.decision.placement.nodes),
                g.decision.placement.l2_share,
            ),
            g.decision.placement_id,
            g.decision.block_exact,
            g.decision.reject_reason,
            g.achieved_relative,
            g.violated,
        )
        for g in decisions
    ]


def _signature(fleet_report):
    return (
        _fingerprints(fleet_report.decisions),
        fleet_report.placed,
        fleet_report.rejected,
        fleet_report.churn.to_dict(),
    )


def test_parallel_dispatch(report):
    cells = []
    for hosts, shards in GRID:
        sequential_report, sequential_s = _run(
            _config(hosts, shards, overlap=False)
        )
        overlapped_report, overlapped_s = _run(
            _config(hosts, shards, overlap=True)
        )
        # The hard equivalence gate, asserted even at smoke size: the
        # overlap must not change a single decision or churn sample.
        assert _signature(overlapped_report) == _signature(
            sequential_report
        ), f"overlap diverged at {hosts} hosts / {shards} shards"
        stats = overlapped_report.service
        assert stats.overlapped_rounds > 0
        assert stats.shard_service_seconds > stats.window_wall_seconds, (
            "overlapped per-shard round trips never actually overlapped"
        )
        assert sequential_report.service.overlapped_rounds == 0
        seq_p50, seq_p99 = sequential_report.latency_percentiles_ms()
        ovl_p50, ovl_p99 = overlapped_report.latency_percentiles_ms()
        cells.append(
            {
                "hosts": hosts,
                "shards": shards,
                "sequential_rps": round(N_REQUESTS / sequential_s, 1),
                "overlapped_rps": round(N_REQUESTS / overlapped_s, 1),
                "speedup": round(sequential_s / overlapped_s, 2),
                "sequential_p50_ms": round(seq_p50, 3),
                "sequential_p99_ms": round(seq_p99, 3),
                "overlapped_p50_ms": round(ovl_p50, 3),
                "overlapped_p99_ms": round(ovl_p99, 3),
                "overlap_ratio": round(
                    stats.shard_service_seconds
                    / max(stats.window_wall_seconds, 1e-9),
                    2,
                ),
            }
        )

    headline = next(
        cell
        for cell in cells
        if (cell["hosts"], cell["shards"]) == HEADLINE
    )

    lines = [
        f"parallel dispatch: {N_REQUESTS} heavy-tailed churn requests, "
        f"window {WINDOW}, process transport, seed {SEED}, "
        f"{CORES} usable core(s){', SMOKE' if SMOKE else ''}:",
        "",
        f"{'hosts':>8} {'shards':>6} {'seq req/s':>10} {'ovl req/s':>10} "
        f"{'speedup':>8} {'seq p99 ms':>11} {'ovl p99 ms':>11} "
        f"{'overlap x':>9}",
    ]
    for cell in cells:
        lines.append(
            f"{cell['hosts']:>8} {cell['shards']:>6} "
            f"{cell['sequential_rps']:>10.1f} "
            f"{cell['overlapped_rps']:>10.1f} {cell['speedup']:>8.2f} "
            f"{cell['sequential_p99_ms']:>11.3f} "
            f"{cell['overlapped_p99_ms']:>11.3f} "
            f"{cell['overlap_ratio']:>9.2f}"
        )
    lines += [
        "",
        "every cell: overlapped decisions and merged churn report are "
        "bit-for-bit the sequential baseline's",
        f"headline ({HEADLINE[0]} hosts / {HEADLINE[1]} shards): "
        f"{headline['speedup']:.2f}x wall-clock, overlap ratio "
        f"{headline['overlap_ratio']:.2f}x (summed shard service time / "
        "window wall clock)",
    ]
    report("parallel_dispatch", "\n".join(lines))

    record_bench(
        "parallel",
        {
            "scenario": "overlapped vs sequential shard dispatch, "
            f"heavy-tailed churn, process transport, window {WINDOW}, "
            f"vcpus {list(VCPUS)}, seed {SEED}",
            "requests": N_REQUESTS,
            "transport": "process",
            "headline": {
                "hosts": HEADLINE[0],
                "shards": HEADLINE[1],
                "speedup": headline["speedup"],
                "overlapped_rps": headline["overlapped_rps"],
                "sequential_rps": headline["sequential_rps"],
                "floor_asserted": (not SMOKE)
                and CORES >= MIN_CORES_FOR_FLOOR,
            },
            "cells": cells,
            # Nested dict (not a list) so the regression gate's
            # recursive *_rps walk picks every cell up.
            "by_cell": {
                f"{cell['hosts']}x{cell['shards']}": {
                    "sequential_rps": cell["sequential_rps"],
                    "overlapped_rps": cell["overlapped_rps"],
                }
                for cell in cells
            },
        },
    )

    # The multi-core acceptance floor.  On fewer cores the overlapped
    # round trips still interleave (asserted above via overlap_ratio),
    # but pure-Python workers time-slicing one core cannot run faster
    # in wall-clock terms, so the floor would only measure the host.
    if not SMOKE and CORES >= MIN_CORES_FOR_FLOOR:
        assert headline["speedup"] >= SPEEDUP_FLOOR, (
            f"overlapped dispatch managed only {headline['speedup']:.2f}x "
            f"at {HEADLINE[0]} hosts / {HEADLINE[1]} shards on {CORES} "
            f"cores (floor {SPEEDUP_FLOOR}x)"
        )
