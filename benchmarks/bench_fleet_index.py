"""Fleet index benchmark: sub-linear host selection, with equivalence gate.

Runs the heuristic policies (no model, no simulator — pure placement
machinery, so the host-selection cost dominates) through the same stream
twice per policy: once on the linear-scan oracle over ``fleet.hosts``
(``tests/scheduler/oracle_linear.py``), once on the production path, the
incremental ``FleetIndex`` + shared block-score tables.  Asserts, in
every mode including the CI smoke run:

* **decision equivalence** — production picks exactly the hosts and node
  blocks the linear oracle picks, request for request (the hard gate; a
  mismatch fails the build);
* **index consistency** — after the run, every index counter equals a
  from-scratch recomputation;
* (full mode only) the indexed path is faster at the largest fleet.

A second test times the goal-aware ML policy end-to-end on the same
mixed 1000-host fleet (one fused arena forest call per 64-request batch)
— the number the arena inference engine moves.  The goal-aware policy's
equivalence on churn streams is covered by
``tests/scheduler/test_index.py``; its scaling across fleet sizes by
``bench_fleet_scheduler.py``.  Results go to ``BENCH_fleet.json``.
"""

from __future__ import annotations

import time

from conftest import BENCH_SMOKE as SMOKE
from conftest import record_bench

from repro.scheduler import (
    Fleet,
    FirstFitFleetPolicy,
    GoalAwareFleetPolicy,
    ModelRegistry,
    SpreadFleetPolicy,
    generate_request_stream,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from tests.scheduler.oracle_linear import (
    LinearFirstFitPolicy,
    LinearSpreadPolicy,
)

N_HOSTS = 40 if SMOKE else 1000
# Enough requests to fill most of the fleet: the linear scan's cost grows
# as early hosts fill (every request walks past them) while the indexed
# scan's shrinks (full hosts drop out of the candidate buckets) — the
# regime the index exists for.  The smoke size keeps the timed kernel in
# the tens of milliseconds: shorter runs are scheduler-noise-dominated
# and make the CI benchmark-regression gate flaky.
N_REQUESTS = 500 if SMOKE else 2500
SEED = 13


def _fleet():
    # Mixed shapes so bucket iteration spans several fingerprints.
    half = N_HOSTS // 2
    return Fleet.mixed(
        [
            (amd_opteron_6272(), N_HOSTS - half),
            (intel_xeon_e7_4830_v3(), half),
        ]
    )


def _run(policy_factory, repeats: int = 3):
    """Best-of-``repeats`` timing: the kernel is milliseconds at smoke
    size, so a single sample is scheduler-noise-dominated; the fastest
    repeat is the standard microbenchmark noise killer.  Decisions are
    asserted identical across repeats (fresh fleet each time)."""
    requests = generate_request_stream(
        N_REQUESTS, seed=SEED, vcpus_choices=(4, 8, 16)
    )
    best_rps = 0.0
    fleet = decisions = reference = None
    for _ in range(repeats):
        fleet = _fleet()
        policy = policy_factory()
        start = time.perf_counter()
        decisions = policy.decide_batch(requests, fleet)
        elapsed = time.perf_counter() - start
        best_rps = max(best_rps, N_REQUESTS / elapsed)
        if reference is None:
            reference = _fingerprints(decisions)
        else:
            assert _fingerprints(decisions) == reference, (
                "decisions diverged across timing repeats — the policy is "
                "not deterministic in (requests, fresh fleet)"
            )
    return fleet, decisions, best_rps


def _fingerprints(decisions):
    return [
        (
            d.request.request_id,
            d.host_id,
            None if d.placement is None else d.placement.nodes,
            d.reject_reason,
        )
        for d in decisions
    ]


def test_indexed_scan_equivalent_and_fast(report):
    lines = [
        f"heuristic policies, mixed AMD/Intel fleet ({N_HOSTS} hosts, "
        f"{N_REQUESTS} requests, seed {SEED}{', SMOKE' if SMOKE else ''}):",
        "",
        f"{'policy':>10} {'linear req/s':>13} {'indexed req/s':>14} "
        f"{'speedup':>8}",
    ]
    results = {}
    for name, factory, oracle in (
        ("first-fit", FirstFitFleetPolicy, LinearFirstFitPolicy),
        ("spread", SpreadFleetPolicy, LinearSpreadPolicy),
    ):
        fleet_linear, linear, linear_rps = _run(oracle)
        fleet_indexed, indexed, indexed_rps = _run(factory)

        # The hard gate: production and the linear oracle must be
        # decision-for-decision identical.
        assert _fingerprints(indexed) == _fingerprints(linear), (
            f"{name}: production diverged from the linear oracle"
        )
        # And the incrementally maintained index must agree with a
        # from-scratch recomputation after the whole stream.
        fleet_indexed.index.assert_consistent(fleet_indexed.hosts)

        speedup = indexed_rps / linear_rps
        results[name] = {
            "linear_rps": round(linear_rps, 1),
            "indexed_rps": round(indexed_rps, 1),
            "speedup": round(speedup, 2),
        }
        lines.append(
            f"{name:>10} {linear_rps:>13.1f} {indexed_rps:>14.1f} "
            f"{speedup:>7.1f}x"
        )

    lines += [
        "",
        "equivalence gate: production decisions identical to the "
        "linear oracle's on both policies (asserted), index counters match "
        "from-scratch recomputation (asserted)",
    ]
    report("fleet_index", "\n".join(lines))

    record_bench(
        "fleet_index",
        {
            "scenario": "heuristic policies, mixed AMD/Intel fleet, "
            f"seed {SEED}",
            "hosts": N_HOSTS,
            "requests": N_REQUESTS,
            "policies": results,
            "equivalent": True,
        },
    )
    if not SMOKE:
        for name, numbers in results.items():
            assert numbers["speedup"] > 1.0, (
                f"{name}: production must beat the linear oracle at "
                f"{N_HOSTS} hosts"
            )


def test_goal_aware_end_to_end_throughput(report):
    """The model-driven policy on the same mixed fleet: the end-to-end
    number the arena-fused prediction hot path moves.

    Decisions in 64-request batches (the scheduler's default), model
    fitting and arena compilation excluded from the timed region.  The
    per-batch cost is one fused forest call + the indexed host scan; the
    throughput lands in ``BENCH_fleet.json`` next to the heuristic
    policies so the prediction overhead stays visible across PRs.
    """
    registry = ModelRegistry(n_estimators=40, n_synthetic=32, seed=SEED)
    shapes = (amd_opteron_6272(), intel_xeon_e7_4830_v3())
    for machine in shapes:
        for vcpus in (4, 8, 16):
            # Prefit and warm each compiled arena outside the timed region.
            registry.model(machine, vcpus).predict_batch([1.0], [1.0])
    requests = generate_request_stream(
        N_REQUESTS, seed=SEED, vcpus_choices=(4, 8, 16)
    )
    # Warm the *fused* arena for this plan combination too (it is built
    # lazily on the first decide_batch and cached process-wide): one
    # decision round on a throwaway fleet, so the timed repeats measure
    # steady-state prediction, not one-time array concatenation.
    GoalAwareFleetPolicy(registry).decide_batch(requests[:4], _fleet())
    batches = [
        requests[begin : begin + 64] for begin in range(0, len(requests), 64)
    ]

    best_rps = 0.0
    reference = None
    for _ in range(3):
        fleet = _fleet()
        policy = GoalAwareFleetPolicy(registry)
        start = time.perf_counter()
        decisions = []
        for batch in batches:
            decisions.extend(policy.decide_batch(batch, fleet))
        elapsed = time.perf_counter() - start
        best_rps = max(best_rps, N_REQUESTS / elapsed)
        if reference is None:
            reference = _fingerprints(decisions)
        else:
            assert _fingerprints(decisions) == reference, (
                "goal-aware decisions diverged across timing repeats"
            )

    lines = [
        f"goal-aware ML policy, mixed AMD/Intel fleet ({N_HOSTS} hosts, "
        f"{N_REQUESTS} requests, batches of 64, seed {SEED}"
        f"{', SMOKE' if SMOKE else ''}):",
        "",
        f"  fused-arena prediction hot path: {best_rps:.1f} req/s "
        f"(best of 3)",
    ]
    report("fleet_index_ml", "\n".join(lines))

    record_bench(
        "fleet_index_ml",
        {
            "scenario": "goal-aware ML policy, mixed AMD/Intel fleet, "
            f"batches of 64, seed {SEED}",
            "hosts": N_HOSTS,
            "requests": N_REQUESTS,
            "ml_rps": round(best_rps, 1),
        },
    )
