"""Fleet scheduler throughput: indexed vs linear-scan vs naive pipeline.

Three generations of the placement hot path, measured on one stream:

* **indexed** (this PR): host selection through the incremental
  ``FleetIndex`` (only hosts whose bucketed largest free block fits are
  visited), block search through shared per-shape ``BlockScoreTable``
  lookups, and grading through the registry's noise-free IPC memo;
* **linear scan** (the PR 2 baseline): memoized enumeration and batched
  prediction, but every request scans all hosts, re-scores free-node
  combinations per host, and re-simulates both grading IPC runs;
* **naive per-request** (the PR 1 baseline): additionally re-enumerates
  the Algorithm 1-3 pipeline and predicts one row at a time.

Asserted (full mode): the indexed path clears 5x over the linear-scan
baseline at the largest fleet — the decision cost no longer grows with
the host count — while producing decision-for-decision identical output
(the equivalence itself is asserted at every size by
``benchmarks/bench_fleet_index.py`` and ``tests/scheduler/test_index.py``).
Model fitting and tree compilation are excluded from the timed region for
every path.  Results are persisted to ``BENCH_fleet.json`` for regression
tracking.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import BENCH_SMOKE as SMOKE
from conftest import record_bench

from repro.core.memo import DEFAULT_ENUMERATION_CACHE
from repro.scheduler import (
    Fleet,
    FleetScheduler,
    ModelRegistry,
    generate_request_stream,
    make_policy,
)
from repro.scheduler.artifacts import DEFAULT_ARTIFACT_STORE
from repro.topology import amd_opteron_6272

FLEET_SIZES = (10, 50) if SMOKE else (10, 100, 1000)
FAST_REQUESTS = 40 if SMOKE else 200
# The linear scan is ~5x slower at the largest size; the naive path ~50x.
LINEAR_REQUESTS = 20 if SMOKE else 100
NAIVE_REQUESTS = 10 if SMOKE else 60
VCPUS_CHOICES = (8, 16)
SEED = 7
REPEATS = 1 if SMOKE else 3


def _registry(*, memoize: bool, memoize_ipc: bool) -> ModelRegistry:
    registry = ModelRegistry(
        memoize_enumeration=memoize,
        n_estimators=40,
        n_synthetic=32,
        seed=SEED,
        memoize_ipc=memoize_ipc,
    )
    machine = amd_opteron_6272()
    for vcpus in VCPUS_CHOICES:
        # Prefit outside the timed region, and run one dummy prediction so
        # the lazy per-tree compilation is warm for every path.
        model = registry.model(machine, vcpus)
        model.predict_batch(np.array([1.0]), np.array([1.0]))
    return registry


def _run(
    n_hosts: int,
    n_requests: int,
    *,
    memoize: bool,
    batch_size: int,
    indexed: bool,
    memoize_ipc: bool,
):
    requests = generate_request_stream(
        n_requests, seed=SEED, vcpus_choices=VCPUS_CHOICES
    )
    best_rps, report = 0.0, None
    for _ in range(REPEATS):
        # Every repeat starts cold, as when each registry trained its own:
        # whichever registry asks the process-wide caches first is the one
        # charged with the pipeline runs.
        DEFAULT_ENUMERATION_CACHE.clear()
        DEFAULT_ARTIFACT_STORE.clear()
        registry = _registry(memoize=memoize, memoize_ipc=memoize_ipc)
        fleet = Fleet.homogeneous(amd_opteron_6272(), n_hosts)
        scheduler = FleetScheduler(
            fleet,
            make_policy("ml", registry=registry, indexed=indexed),
            registry=registry,
            batch_size=batch_size,
        )
        start = time.perf_counter()
        fleet_report = scheduler.run(requests)
        elapsed = time.perf_counter() - start
        if n_requests / elapsed > best_rps:
            best_rps, report = n_requests / elapsed, fleet_report
    return report, best_rps


def test_fleet_scheduler_throughput(report):
    lines = [
        "goal-aware fleet scheduling throughput (AMD shape, vCPUs in "
        f"{list(VCPUS_CHOICES)}, seed {SEED}, best of {REPEATS}):",
        "",
        f"{'hosts':>6} {'requests':>9} {'path':>18} {'req/s':>9}",
    ]
    indexed_by_size = {}
    for n_hosts in FLEET_SIZES:
        fleet_report, rps = _run(
            n_hosts,
            FAST_REQUESTS,
            memoize=True,
            batch_size=64,
            indexed=True,
            memoize_ipc=True,
        )
        indexed_by_size[n_hosts] = rps
        lines.append(
            f"{n_hosts:>6} {FAST_REQUESTS:>9} {'indexed':>18} {rps:>9.1f}"
        )
        assert fleet_report.enumeration_runs == len(VCPUS_CHOICES), (
            "memoized path must enumerate once per (shape, vcpus) key"
        )
        assert fleet_report.ipc_cache_info.hits > 0, (
            "indexed path must serve repeated gradings from the IPC memo"
        )

    largest = FLEET_SIZES[-1]
    linear_report, linear_rps = _run(
        largest,
        LINEAR_REQUESTS,
        memoize=True,
        batch_size=64,
        indexed=False,
        memoize_ipc=False,
    )
    lines.append(
        f"{largest:>6} {LINEAR_REQUESTS:>9} {'linear scan (PR2)':>18} "
        f"{linear_rps:>9.1f}"
    )

    naive_report, naive_rps = _run(
        100 if not SMOKE else 50,
        NAIVE_REQUESTS,
        memoize=False,
        batch_size=1,
        indexed=False,
        memoize_ipc=False,
    )
    lines.append(
        f"{100 if not SMOKE else 50:>6} {NAIVE_REQUESTS:>9} "
        f"{'naive per-request':>18} {naive_rps:>9.1f}"
    )
    assert naive_report.enumeration_runs >= NAIVE_REQUESTS, (
        "naive path must re-enumerate per request"
    )

    speedup = indexed_by_size[largest] / linear_rps
    lines += [
        "",
        f"indexed vs linear scan at {largest} hosts: {speedup:.1f}x "
        "(acceptance floor: 5x; the gap is the per-request fleet scan, "
        "per-host combination re-scoring, and per-container grading "
        "re-simulation the index/tables/memo remove)",
        f"indexed vs naive per-request: "
        f"{indexed_by_size[largest] / naive_rps:.1f}x",
    ]
    report("fleet_scheduler_throughput", "\n".join(lines))

    record_bench(
        "fleet_scheduler",
        {
            "scenario": "goal-aware one-shot, AMD shape, "
            f"vcpus {list(VCPUS_CHOICES)}, seed {SEED}",
            "hosts": largest,
            "requests": FAST_REQUESTS,
            "indexed_rps_by_hosts": {
                str(k): round(v, 1) for k, v in indexed_by_size.items()
            },
            "linear_scan_rps": round(linear_rps, 1),
            "naive_rps": round(naive_rps, 1),
            "speedup_vs_linear": round(speedup, 2),
            "speedup_vs_naive": round(
                indexed_by_size[largest] / naive_rps, 2
            ),
        },
    )
    if not SMOKE:
        assert speedup >= 5.0
