"""Forest-inference benchmark: the compiled arena vs per-tree prediction.

The goal-aware scheduler consults its forest per fleet event on a handful
of rows, so what a prediction pays is the fixed dispatch cost of its numpy
passes.  A compiled arena (``repro.ml.arena``) answers from per-feature bit
tables when the forest fits them — every tree within 64 leaves, tables
within a byte budget — and by one lock-step descent over the stacked node
arrays otherwise; the per-tree path (a Python loop of one descent per tree)
is the oracle for both.  Two scenarios, one on each side of that rule:

* **fleet** — 40 trees x 5 outputs fitted on 50 rows, the size of the
  fleet scheduler's models, at 1 / 2 / 8 / 32 rows per call: bit tables
  vs the lock-step descent of the same trees (compiled under a byte
  budget of zero) vs per-tree.  The tables must clear **2x** over
  lock-step at <= 8 rows (asserted in full mode);
* **predict** — the paper's 100-tree ensemble fitted on 400 rows, whose
  trees outgrow one mask word, so the arena serves it by lock-step
  descent.  Small batches (1-32 rows) must clear **5x** over per-tree
  (full mode); the large batch, timed at the ``ARENA_MAX_ROWS`` cutover
  (the largest the arena still serves), must simply not lose.

A third scenario times the other end of a forest's life:

* **fit_fleet** — the 40-tree fits the preset fleets pay at cold start
  (every ``(machine preset, vCPU class)`` training set, 50 rows each):
  ``RandomForestRegressor.fit``, which grows all trees in one pass per
  distinct node size, vs the one-node-at-a-time recursion it replaced
  (``tests/ml/oracle_tree.py``).  The batched fit must clear **2.5x**
  (full mode).

A fourth pins what the fleet pays around its forest call:

* **probe_row** — ``ModelRegistry.probe_ipc_batch`` on a warm memo row
  held by the caller (what a policy lane does), 1 / 2 / 5 rows per
  call, in microseconds per row, split into the *seeded draw* — the
  generator ``np.random.default_rng(seed)`` builds per row (reported
  alone as well), its one normal draw and the ``exp``: the probe itself,
  timed as a bare loop over the same seeds — and *everything else*: memo
  and prefix lookups, the seed CRC, the multiply and two Python calls.
  Everything else must stay under **1.5 us per row** at 5 rows per call
  (full mode; at 1 row per call the two calls' own overhead is most of
  it and is only reported).

A fifth times the answer that needs neither probe nor forest:

* **reject_path** — a mixed 2-shape fleet driven to saturation through
  ``LifecycleScheduler.step``, microseconds per arrival by outcome:
  *placed*, *finally rejected* (``capacity``, read off the fleet index
  before anything is probed, then a rebalance plan that finds nothing)
  and *recovered* (rejected, rebalanced, decided once for real) — beside
  the same stream under ``tests/scheduler/oracle_policy.FullWalkPolicy``,
  which probes, predicts and walks every rank before it says
  ``capacity``.  A reject must cost less than **a third** of a placed
  arrival (full mode).

The equivalence gates run in *every* mode, smoke included: the
short-circuited policy must decide and migrate exactly as the full walk
does; the batched
probe must equal ``probe_ipc`` row by row; every compiled
form must equal the per-tree path bit for bit on every timed input, mean
and std, and every batched-built tree must equal the recursion's in every
flat array and importance, or the build fails.  Results go to
``BENCH_predict.json``.
"""

from __future__ import annotations

import time
import zlib
from unittest import mock

import numpy as np
from conftest import BENCH_PREDICT_JSON
from conftest import BENCH_SMOKE as SMOKE
from conftest import record_bench

from repro.ml import RandomForestRegressor
from repro.ml import arena as arena_module
from repro.ml.arena import ForestArena
from repro.perfsim.library import paper_workloads
from repro.scheduler import (
    EventKind,
    Fleet,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    events_from_requests,
    generate_churn_stream,
)
from repro.scheduler.registry import ModelRegistry
from repro.topology.presets import PRESETS
from tests.ml.oracle_tree import assert_same_forest, forest_problem, oracle_forest
from tests.scheduler.oracle_policy import FullWalkPolicy

SEED = 21
N_TREES = 100
N_OUTPUTS = 9  # a performance vector's width on the paper's AMD shape
TRAIN_ROWS = 120 if SMOKE else 400
SMALL_BATCHES = (1, 8, 32)
LARGE_BATCH = 1024 if SMOKE else 4096  # == ARENA_MAX_ROWS in full mode
#: Acceptance floor: arena speedup over per-tree in the small-batch regime.
SMALL_BATCH_FLOOR = 5.0

FLEET_TREES = 40  # ModelRegistry's default forest size
FLEET_OUTPUTS = 5
FLEET_TRAIN_ROWS = 50  # 18 paper workloads + 32 synthetic
FLEET_BATCHES = (1, 2, 8, 32)
#: Acceptance floor: bit tables over lock-step at <= 8 rows per call.
FLEET_FLOOR = 2.0

#: (machine preset, vCPU class) keys whose training sets fit_fleet fits.
FIT_KEYS = (
    [("amd", 8), ("intel", 8)]
    if SMOKE
    else [(name, vcpus) for name in ("amd", "intel") for vcpus in (8, 16, 32)]
)
FIT_REPEATS = 2 if SMOKE else 7
#: Acceptance floor: batched fit over the recursion, all keys together.
FIT_FLOOR = 2.5

PROBE_ROWS = (1, 2, 5)
PROBE_DURATION_S = 3.0  # GoalAwareFleetPolicy's probe length
PROBE_CALLS, PROBE_REPEATS = (200, 3) if SMOKE else (3000, 9)
#: Acceptance ceiling: microseconds per row a probe may spend outside its
#: seeded draw, at the largest rows-per-call timed.
PROBE_ASSEMBLY_CEILING_US = 1.5

REJECT_HOSTS_PER_SHAPE = 20
REJECT_ARRIVALS, REJECT_REPEATS = (400, 2) if SMOKE else (1600, 5)
#: Offered load: 20 arrivals/s living 8 s on 40 hosts keeps the fleet full.
REJECT_ARRIVAL_RATE, REJECT_MEAN_LIFETIME = 20.0, 8.0
#: A reject may cost at most this share of a placed arrival.
REJECT_CEILING = 1.0 / 3.0


def _fitted_forest(n_trees, n_outputs, train_rows):
    rng = np.random.default_rng(SEED)
    X = rng.uniform(-1.0, 1.0, size=(train_rows, 3))
    weights = rng.normal(size=(3, n_outputs))
    Y = np.tanh(X @ weights) + rng.normal(
        scale=0.05, size=(train_rows, n_outputs)
    )
    return RandomForestRegressor(
        n_estimators=n_trees, random_state=SEED
    ).fit(X, Y)


def _time_calls(fn, X, *, min_calls, min_seconds=0.15):
    """Calls/second, best-of-3 repeats of a calibrated timing loop."""
    best = 0.0
    for _ in range(3):
        calls = 0
        start = time.perf_counter()
        while True:
            fn(X)
            calls += 1
            elapsed = time.perf_counter() - start
            if calls >= min_calls and elapsed >= min_seconds:
                break
        best = max(best, calls / elapsed)
    return best


def _assert_equivalent(arena, forest, X, what):
    """The hard gate, every mode: identical bits, mean and std."""
    assert np.array_equal(arena.predict(X), forest.predict_per_tree(X)), (
        f"{what} diverged from the per-tree path at {len(X)} rows"
    )
    assert np.array_equal(
        arena.predict_std(X), forest.predict_std_per_tree(X)
    ), f"{what} predict_std diverged at {len(X)} rows"


def test_arena_inference_equivalent_and_fast(report):
    forest = _fitted_forest(N_TREES, N_OUTPUTS, TRAIN_ROWS)
    assert forest.arena().bit_tables is None, "the over-the-rule cell"
    rng = np.random.default_rng(SEED + 1)
    forest.predict_per_tree(rng.uniform(-1.0, 1.0, size=(4, 3)))  # warm

    lines = [
        f"forest inference, {N_TREES} trees x {N_OUTPUTS} outputs "
        f"(train rows {TRAIN_ROWS}, seed {SEED}{', SMOKE' if SMOKE else ''}), "
        "served by lock-step descent:",
        "",
        f"{'rows':>6} {'per-tree calls/s':>17} {'arena calls/s':>14} "
        f"{'speedup':>8}",
    ]
    results = {}
    small_speedups = []
    for rows in (*SMALL_BATCHES, LARGE_BATCH):
        X = rng.uniform(-1.5, 1.5, size=(rows, 3))
        _assert_equivalent(forest.arena(), forest, X, "arena")

        min_calls = 3 if rows == LARGE_BATCH else 20
        pertree_cps = _time_calls(
            forest.predict_per_tree, X, min_calls=min_calls
        )
        arena_cps = _time_calls(forest.predict, X, min_calls=min_calls)
        speedup = arena_cps / pertree_cps
        if rows <= 32:
            small_speedups.append(speedup)
        results[str(rows)] = {
            "pertree_calls_per_second": round(pertree_cps, 1),
            "arena_calls_per_second": round(arena_cps, 1),
            "speedup": round(speedup, 2),
        }
        lines.append(
            f"{rows:>6} {pertree_cps:>17.1f} {arena_cps:>14.1f} "
            f"{speedup:>7.1f}x"
        )

    lines += [
        "",
        "equivalence gate: arena == per-tree bit-for-bit on every timed "
        "input, predict and predict_std (asserted)",
        f"small-batch regime (<=32 rows): min speedup "
        f"{min(small_speedups):.1f}x (acceptance floor "
        f"{SMALL_BATCH_FLOOR:.0f}x, full mode)",
    ]
    report("predict_arena", "\n".join(lines))

    record_bench(
        "predict",
        {
            "scenario": f"{N_TREES}-tree x {N_OUTPUTS}-output forest, "
            f"seed {SEED}",
            "trees": N_TREES,
            "outputs": N_OUTPUTS,
            "kernel": "lock-step",
            "by_batch_rows": results,
            "small_batch_min_speedup": round(min(small_speedups), 2),
            "equivalent": True,
        },
        path=BENCH_PREDICT_JSON,
    )
    if not SMOKE:
        assert min(small_speedups) >= SMALL_BATCH_FLOOR, (
            f"arena must clear {SMALL_BATCH_FLOOR}x over per-tree in the "
            f"small-batch regime, got {min(small_speedups):.1f}x"
        )
        assert results[str(LARGE_BATCH)]["speedup"] >= 0.9, (
            "arena must not lose the large-batch regime"
        )


def test_fleet_forest_bit_tables_equivalent_and_fast(report):
    forest = _fitted_forest(FLEET_TREES, FLEET_OUTPUTS, FLEET_TRAIN_ROWS)
    bits = forest.arena()
    assert bits.bit_tables is not None, "the under-the-rule cell"
    with mock.patch.object(arena_module, "BIT_TABLE_MAX_BYTES", 0):
        lockstep = ForestArena(forest.trees_)
    assert lockstep.bit_tables is None
    table_kb = sum(table.nbytes for _, _, table in bits.bit_tables) / 1024
    rng = np.random.default_rng(SEED + 2)
    forest.predict_per_tree(rng.uniform(-1.0, 1.0, size=(4, 3)))  # warm

    lines = [
        f"fleet-shaped forest, {FLEET_TREES} trees x {FLEET_OUTPUTS} outputs "
        f"(train rows {FLEET_TRAIN_ROWS}, seed {SEED}, bit tables "
        f"{table_kb:.0f} KiB{', SMOKE' if SMOKE else ''}):",
        "",
        f"{'rows':>6} {'per-tree calls/s':>17} {'lock-step calls/s':>18} "
        f"{'bit-table calls/s':>18} {'vs lock-step':>13}",
    ]
    results = {}
    for rows in FLEET_BATCHES:
        X = rng.uniform(-1.5, 1.5, size=(rows, 3))
        _assert_equivalent(bits, forest, X, "bit tables")
        _assert_equivalent(lockstep, forest, X, "lock-step descent")

        pertree_cps = _time_calls(forest.predict_per_tree, X, min_calls=20)
        lockstep_cps = _time_calls(lockstep.predict, X, min_calls=20)
        bits_cps = _time_calls(bits.predict, X, min_calls=20)
        results[str(rows)] = {
            "pertree_calls_per_second": round(pertree_cps, 1),
            "lockstep_calls_per_second": round(lockstep_cps, 1),
            "bits_calls_per_second": round(bits_cps, 1),
            "speedup_over_lockstep": round(bits_cps / lockstep_cps, 2),
        }
        lines.append(
            f"{rows:>6} {pertree_cps:>17.1f} {lockstep_cps:>18.1f} "
            f"{bits_cps:>18.1f} {bits_cps / lockstep_cps:>12.1f}x"
        )

    floor_cells = [
        results[str(rows)]["speedup_over_lockstep"]
        for rows in FLEET_BATCHES
        if rows <= 8
    ]
    lines += [
        "",
        "equivalence gate: bit tables == lock-step == per-tree bit-for-bit "
        "on every timed input, predict and predict_std (asserted)",
        f"<= 8 rows per call: min speedup over lock-step "
        f"{min(floor_cells):.1f}x (acceptance floor {FLEET_FLOOR:.0f}x, "
        "full mode)",
    ]
    report("predict_fleet", "\n".join(lines))

    record_bench(
        "predict_fleet",
        {
            "scenario": f"{FLEET_TREES}-tree x {FLEET_OUTPUTS}-output forest "
            f"fitted on {FLEET_TRAIN_ROWS} rows, seed {SEED}",
            "trees": FLEET_TREES,
            "outputs": FLEET_OUTPUTS,
            "kernel": "bit-tables",
            "bit_table_kib": round(table_kb, 1),
            "by_batch_rows": results,
            "min_speedup_over_lockstep_le_8_rows": round(min(floor_cells), 2),
            "equivalent": True,
        },
        path=BENCH_PREDICT_JSON,
    )
    if not SMOKE:
        assert min(floor_cells) >= FLEET_FLOOR, (
            f"bit tables must clear {FLEET_FLOOR}x over the lock-step "
            f"descent at <= 8 rows, got {min(floor_cells):.1f}x"
        )


def _best_seconds(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fleet_fit_equals_the_recursion_and_is_fast(report):
    registry = ModelRegistry(seed=0)
    lines = [
        f"fleet forest fit, {FLEET_TREES} trees on each preset training set "
        f"(seed 0, best of {FIT_REPEATS}{', SMOKE' if SMOKE else ''}):",
        "",
        f"{'key':>10} {'rows x outputs':>15} {'nodes':>6} "
        f"{'recursion s':>12} {'batched s':>10} {'speedup':>8}",
    ]
    results = {}
    oracle_total = batched_total = 0.0
    for name, vcpus in FIT_KEYS:
        machine = PRESETS[name]()
        X, Y = forest_problem(
            registry.model(machine, vcpus), registry.training_set(machine, vcpus)
        )
        forest = RandomForestRegressor(n_estimators=FLEET_TREES, random_state=0)

        # The hard gate, every mode: identical trees, array by array.
        assert_same_forest(forest.fit(X, Y), oracle_forest(forest, X, Y))

        oracle_s = _best_seconds(lambda: oracle_forest(forest, X, Y), FIT_REPEATS)
        batched_s = _best_seconds(lambda: forest.fit(X, Y), FIT_REPEATS)
        oracle_total += oracle_s
        batched_total += batched_s
        nodes = sum(len(tree._flat[0]) for tree in forest.trees_)
        results[f"{name}-{vcpus}"] = {
            "rows": len(X),
            "outputs": Y.shape[1],
            "nodes": nodes,
            "recursion_fit_seconds": round(oracle_s, 4),
            "batched_fit_seconds": round(batched_s, 4),
            "speedup": round(oracle_s / batched_s, 2),
        }
        lines.append(
            f"{name + '-' + str(vcpus):>10} {f'{len(X)} x {Y.shape[1]}':>15} "
            f"{nodes:>6} {oracle_s:>12.4f} {batched_s:>10.4f} "
            f"{oracle_s / batched_s:>7.1f}x"
        )

    speedup = oracle_total / batched_total
    lines += [
        "",
        "equivalence gate: every flat array and importance of every tree "
        "equals the recursion's (asserted)",
        f"all keys: recursion {oracle_total:.3f} s, batched "
        f"{batched_total:.3f} s, {speedup:.1f}x (acceptance floor "
        f"{FIT_FLOOR}x, full mode)",
    ]
    report("predict_fit_fleet", "\n".join(lines))

    record_bench(
        "fit_fleet",
        {
            "scenario": f"{FLEET_TREES}-tree fit on each preset training "
            "set, registry seed 0",
            "trees": FLEET_TREES,
            "numpy": np.__version__,
            "by_key": results,
            "recursion_fit_seconds": round(oracle_total, 4),
            "batched_fit_seconds": round(batched_total, 4),
            "batched_fits_per_second": round(len(FIT_KEYS) / batched_total, 1),
            "speedup": round(speedup, 2),
            "equivalent": True,
        },
        path=BENCH_PREDICT_JSON,
    )
    if not SMOKE:
        assert speedup >= FIT_FLOOR, (
            f"the batched fit must clear {FIT_FLOOR}x over the recursion, "
            f"got {speedup:.1f}x"
        )


def _best_us_each(*fns, calls=PROBE_CALLS, repeats=PROBE_REPEATS):
    """Microseconds per call of each function: best of ``repeats`` loops
    of ``calls``, the functions taking turns so that a slow spell of the
    machine falls on all of them."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[k] = min(best[k], (time.perf_counter() - start) / calls)
    return [1e6 * seconds for seconds in best]


class _NullGenerator:
    """Stands in for a seeded generator: a draw that costs nothing."""

    @staticmethod
    def normal(loc, scale):
        return 0.0


def _null_rng(seed):
    return _NullGenerator


def test_probe_row_is_on_its_floor(report):
    machine = PRESETS["amd"]()
    registry = ModelRegistry(seed=0)
    placement = registry.placements(machine, 16)[0]
    held = registry.probe_row(machine, placement)
    library = paper_workloads()

    lines = [
        f"probe assembly, warm memo row held by the caller (amd, 16 vCPUs, "
        f"{PROBE_DURATION_S:g} s probes, best of {PROBE_REPEATS} x "
        f"{PROBE_CALLS} calls{', SMOKE' if SMOKE else ''}), us per row:",
        "",
        f"{'rows/call':>9} {'probe':>7} {'seeded draw':>12} "
        f"{'(generator)':>12} {'everything else':>16}",
    ]
    results = {}
    for rows in PROBE_ROWS:
        profiles = library[:rows]
        ids = list(range(1000, 1000 + rows))

        def probe():
            return registry.probe_ipc_batch(
                machine,
                profiles,
                placement,
                duration_s=PROBE_DURATION_S,
                repetitions=ids,
                row=held,
            )

        # The hard gate, every mode: the batch is probe_ipc row by row.
        assert probe() == [
            registry.probe_ipc(
                machine,
                profile,
                placement,
                duration_s=PROBE_DURATION_S,
                repetition=repetition,
            )
            for profile, repetition in zip(profiles, ids)
        ]

        seeds = [
            zlib.crc32(f"{i}|1000003".encode(), held.prefixes[p.name])
            for p, i in zip(profiles, ids)
        ]

        def generators():
            return [np.random.default_rng(seed) for seed in seeds]

        probe_us, generator_us = (
            us / rows for us in _best_us_each(probe, generators)
        )
        # The same call with the generator stubbed out: what is left is
        # everything a probe does besides its seeded draw — measured, not
        # the difference of two numbers ten times its size.
        with mock.patch.object(np.random, "default_rng", _null_rng):
            else_us = _best_us_each(probe)[0] / rows
        results[str(rows)] = {
            "probe_us_per_row": round(probe_us, 2),
            "seeded_draw_us_per_row": round(probe_us - else_us, 2),
            "generator_us_per_row": round(generator_us, 2),
            "everything_else_us_per_row": round(else_us, 2),
        }
        lines.append(
            f"{rows:>9} {probe_us:>7.2f} {probe_us - else_us:>12.2f} "
            f"{generator_us:>12.2f} {else_us:>16.2f}"
        )

    amortized = results[str(PROBE_ROWS[-1])]["everything_else_us_per_row"]
    lines += [
        "",
        "equivalence gate: probe_ipc_batch == probe_ipc row by row on every "
        "timed input (asserted)",
        f"everything else at {PROBE_ROWS[-1]} rows per call: {amortized:.2f} "
        f"us per row (acceptance ceiling {PROBE_ASSEMBLY_CEILING_US} us, "
        "full mode)",
    ]
    report("predict_probe_row", "\n".join(lines))

    record_bench(
        "probe_row",
        {
            "scenario": "ModelRegistry.probe_ipc_batch, warm row held by "
            f"the caller, amd x 16 vCPUs, {PROBE_DURATION_S:g} s probes, "
            "registry seed 0",
            "numpy": np.__version__,
            "by_rows_per_call": results,
            "everything_else_us_per_row_amortized": amortized,
            "equivalent": True,
        },
        path=BENCH_PREDICT_JSON,
    )
    if not SMOKE:
        assert amortized < PROBE_ASSEMBLY_CEILING_US, (
            f"a probe row may spend {PROBE_ASSEMBLY_CEILING_US} us outside "
            f"its seeded draw at {PROBE_ROWS[-1]} rows per call, spent "
            f"{amortized:.2f} us"
        )


def _saturated_replay(policy, requests):
    """Step the stream through a fresh saturated fleet, timing each
    arrival; returns ``(seconds by outcome, decision rows, migrations)``."""
    fleet = Fleet.mixed(
        [
            (PRESETS["amd"](), REJECT_HOSTS_PER_SHAPE),
            (PRESETS["intel"](), REJECT_HOSTS_PER_SHAPE),
        ]
    )
    engine = LifecycleScheduler(fleet, policy, registry=policy.registry)
    seconds = {"placed": [], "rejected": [], "recovered": []}
    rows = []
    for event in events_from_requests(requests).drain():
        if event.kind is not EventKind.ARRIVAL:
            engine.step(event)
            continue
        recovered = engine.stats.rebalance_recovered
        start = time.perf_counter()
        decision = engine.step(event).decision
        elapsed = time.perf_counter() - start
        if engine.stats.rebalance_recovered > recovered:
            outcome = "recovered"
        else:
            outcome = "placed" if decision.placed else "rejected"
        seconds[outcome].append(elapsed)
        rows.append(
            (
                decision.request.request_id,
                decision.host_id,
                decision.placement_id,
                decision.reject_reason,
            )
        )
    return seconds, rows, engine.stats.migrations


def test_reject_path_is_the_cheapest_answer(report):
    registry = ModelRegistry(seed=0)
    requests = generate_churn_stream(
        REJECT_ARRIVALS,
        seed=SEED,
        vcpus_choices=(8, 8, 16, 32),
        arrival_rate=REJECT_ARRIVAL_RATE,
        mean_lifetime=REJECT_MEAN_LIFETIME,
    )
    policies = {
        "index": GoalAwareFleetPolicy(registry),
        "full walk": FullWalkPolicy(registry),
    }
    # Median per outcome, best of the repeats; the two policies take
    # turns so a slow spell of the machine falls on both.
    best = {name: {} for name in policies}
    outcomes = {}
    for repeat in range(REJECT_REPEATS + 1):
        for name, policy in policies.items():
            seconds, rows, migrations = _saturated_replay(policy, requests)
            outcomes[name] = (rows, migrations)
            if repeat == 0:  # warms models, memos and tables; not timed
                continue
            for outcome, samples in seconds.items():
                median_us = 1e6 * float(np.median(samples))
                best[name][outcome] = min(
                    best[name].get(outcome, float("inf")), median_us
                )
    counts = {outcome: len(samples) for outcome, samples in seconds.items()}

    # The hard gate, every mode: reading capacity off the index changes
    # no decision and no migration.
    assert outcomes["index"] == outcomes["full walk"]
    assert counts["rejected"] >= 20 and counts["recovered"] >= 2, counts

    ratio = best["index"]["rejected"] / best["index"]["placed"]
    lines = [
        f"arrival cost by outcome on a saturated fleet ("
        f"{REJECT_HOSTS_PER_SHAPE} amd + {REJECT_HOSTS_PER_SHAPE} intel "
        f"hosts, {REJECT_ARRIVALS} arrivals, stream seed {SEED}, median per "
        f"outcome, best of {REJECT_REPEATS}{', SMOKE' if SMOKE else ''}), "
        "us per arrival:",
        "",
        f"{'outcome':>10} {'arrivals':>9} {'index':>9} {'full walk':>10}",
    ]
    for outcome in ("placed", "rejected", "recovered"):
        lines.append(
            f"{outcome:>10} {counts[outcome]:>9} "
            f"{best['index'][outcome]:>9.1f} "
            f"{best['full walk'][outcome]:>10.1f}"
        )
    lines += [
        "",
        "equivalence gate: decisions and migrations equal the full walk's "
        "(asserted)",
        f"a reject costs {ratio:.2f} of a placed arrival (acceptance "
        f"ceiling {REJECT_CEILING:.2f}, full mode)",
    ]
    report("predict_reject_path", "\n".join(lines))

    record_bench(
        "reject_path",
        {
            "scenario": f"LifecycleScheduler.step on {REJECT_HOSTS_PER_SHAPE} "
            f"amd + {REJECT_HOSTS_PER_SHAPE} intel hosts offered "
            f"{REJECT_ARRIVAL_RATE:g}/s x {REJECT_MEAN_LIFETIME:g} s, "
            f"{REJECT_ARRIVALS} arrivals, stream seed {SEED}, registry seed 0",
            "numpy": np.__version__,
            "arrivals_by_outcome": counts,
            "us_per_arrival": {
                name: {k: round(v, 1) for k, v in by_outcome.items()}
                for name, by_outcome in best.items()
            },
            "rejects_per_second": round(1e6 / best["index"]["rejected"]),
            "recovered_per_second": round(1e6 / best["index"]["recovered"]),
            "reject_share_of_placed": round(ratio, 3),
            "equivalent": True,
        },
        path=BENCH_PREDICT_JSON,
    )
    if not SMOKE:
        assert ratio < REJECT_CEILING, (
            f"a capacity reject must cost under {REJECT_CEILING:.2f} of a "
            f"placed arrival, cost {ratio:.2f}"
        )
