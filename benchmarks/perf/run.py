"""The placement service's benchmark: one command, four workloads.

Two ways to call it, one measuring function under both:

* ``run.py [--seed 17] [--workload NAME]... [--smoke] [--out FILE]`` runs
  every named workload (default: all four) six times untraced and six
  times traced, prints every metric by name with its unit, checks the
  outputs, and ends with one JSON object holding all of it (``--out`` also
  saves it, for ``compare.py``).
* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` is one driver
  run of one workload.  With ``--trace 0`` it makes six untraced repeats
  and its last line holds the median of each end-to-end metric; with
  ``--trace 1`` it makes three untraced and three traced repeats — so the
  tracing overhead and the equality of their decisions are measured too — and
  its last line holds the per-layer metrics.

Every repeat is a fresh ``worker.py`` process that measures for a sixth of
``--seconds``.  The load is a closed loop with one caller and no think time;
the seconds fix the number of measured arrivals (a frozen per-workload rate
times the seconds), so counts and decision digests repeat exactly.  Exit
status is non-zero when a correctness check fails, or when the program under
``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Untraced repeats behind every end-to-end value (see :func:`calm`).  Six,
#: because a tail arrival is a window of several milliseconds and must go
#: undisturbed in at least one repeat: beside two other processes that were
#: each busy half the time, ``arrival_p99_ms`` on ``serve-process`` spread
#: 19-24% between the quartiles of ten seeds with three repeats, 14% with
#: five and 9% with six (6-8% on a quiet machine with any of them).
REPEATS = 6
#: Untraced and traced repeats of a driver run with ``--trace 1``.
TRACE_RUN_REPEATS = 3
#: A worker gets this long; the driver allows a whole run 180 s.
WORKER_TIMEOUT_S = 28
MAX_TRACE_OVERHEAD_PCT = 15.0


def spawn_worker(workload: str, seed: int, requests: int, *, trace: int = 0) -> Dict:
    """One repeat in a fresh interpreter; returns the JSON it printed last."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--requests={requests}",
        f"--trace={trace}",
    ]
    # Its own session, so a worker that hangs or dies takes its shard
    # processes with it when the group is killed below.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        output, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with status {process.returncode}")
    return json.loads(output.strip().splitlines()[-1])


def calm(runs: List[Dict]) -> Tuple[List[float], List[float]]:
    """(every arrival's fastest time over the repeats, per repeat the share of
    its per-arrival time that no slow spell of the machine touched).

    This sandbox runs at half speed for seconds at a time, a whole repeat's
    length, which spread one repeat's wall time by a quarter between
    quartiles.  The repeats of a seed make the same decisions, so every
    arrival is timed once per repeat, and its fastest time is the one nothing
    disturbed.  The share is the sum of those fastest times over the sum of
    the repeat's own; wall and CPU time are scaled by it (the time between
    arrivals is taken to slow down as the arrivals do).  With one repeat the
    share is 1 and nothing changes.
    """
    fastest = [min(times) for times in zip(*(run["arrival_seconds"] for run in runs))]
    floor = sum(fastest)
    return fastest, [floor / sum(run["arrival_seconds"]) for run in runs]


def end_to_end(runs: List[Dict]) -> Dict[str, List[float]]:
    """The end-to-end metrics of one workload from its untraced repeats: one
    value per repeat (the reported value is their median), or a single value
    where the repeats are pooled — the latency percentiles are taken over
    every arrival's fastest time."""
    offered = runs[0]["counts"]["offered"]
    fastest, shares = calm(runs)
    percentiles = statistics.quantiles(fastest, n=100, method="inclusive")
    values = {
        "setup_s": [run["setup"]["setup_s"] for run in runs],
        "throughput_rps": [offered / (run["wall_s"] * share) for run, share in zip(runs, shares)],
        "cpu_ms_per_request": [
            1000.0 * run["cpu_s"] * share / offered for run, share in zip(runs, shares)
        ],
        "arrival_p50_ms": [1000.0 * percentiles[49]],
        "arrival_p99_ms": [1000.0 * percentiles[98]],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }
    for name in runs[0]["quality"]:
        values[name] = [run["quality"][name] for run in runs]
    return values


def calm_wall_s(runs: List[Dict]) -> float:
    return statistics.median(run["wall_s"] * share for run, share in zip(runs, calm(runs)[1]))


def measure(workload: str, seed: int, seconds: float, *, repeats: int, traced: int) -> Dict:
    """Run one workload: ``repeats`` untraced repeats and ``traced`` traced
    ones, each over ``seconds`` worth of arrivals; gate and aggregate."""
    requests = WORKLOADS[workload].requests(seconds)
    runs = [spawn_worker(workload, seed, requests) for _ in range(repeats)]
    traced_runs = [spawn_worker(workload, seed, requests, trace=1) for _ in range(traced)]
    every = runs + traced_runs

    failures = [failure for run in every for failure in run["failures"]]
    if len({run["digest"] for run in every}) != 1:
        failures.append("decisions differ between repeats of one seed (traced ones included)")
    if any(run["quality"] != every[0]["quality"] for run in every):
        failures.append("a seed-deterministic metric differs between repeats of one seed")

    per_layer = None
    if traced_runs:
        per_layer = {
            name: statistics.median(run["per_layer"][name] for run in traced_runs)
            for name in traced_runs[0]["per_layer"]
        }
        overhead = calm_wall_s(traced_runs) / calm_wall_s(runs) - 1.0
        per_layer["trace.overhead_pct"] = 100.0 * overhead
        if abs(per_layer["trace.self_sum_pct"] - 100.0) > 1.0:
            failures.append("self times do not sum to the measured wall time within 1%")
    counts = runs[0]["counts"]
    return {
        "workload": workload,
        "seed": seed,
        "requests": requests,
        "repeats": repeats,
        "numpy": runs[0]["numpy"],
        "digest": runs[0]["digest"],
        "counts": counts,
        "failed_operations": counts["missing"] + counts["duplicated"] + counts["unknown"],
        "raw_wall_s": [run["wall_s"] for run in runs],
        "end_to_end": {
            name: {
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "values": values,
            }
            for name, values in end_to_end(runs).items()
        },
        "per_layer": per_layer,
        "failures": failures,
    }


def print_result(result: Dict, spec: Dict) -> None:
    counts = result["counts"]
    print(
        f"== {result['workload']}: seed {result['seed']}, {result['requests']} arrivals, "
        f"{result['repeats']} repeat(s); placed {counts['placed']}, rejected "
        f"{counts['rejected']}, shed {counts['shed']}; digest {result['digest'][:16]}"
    )
    for metric in spec["end_to_end"]:
        cell = result["end_to_end"][metric["name"]]
        print(
            f"  {metric['name']:<38} {cell['median']:>14.4f} {metric['unit']:<6}"
            f" (min {cell['min']:.4f}, max {cell['max']:.4f}, n={len(cell['values'])})"
        )
    if result["per_layer"]:
        for metric in spec["per_layer"]:
            value = result["per_layer"][metric["name"]]
            print(f"  {metric['name']:<38} {value:>14.4f} {metric['unit']}")
        overhead = result["per_layer"]["trace.overhead_pct"]
        if overhead > MAX_TRACE_OVERHEAD_PCT:
            print(f"  warning: tracing cost {overhead:.1f}% (budget {MAX_TRACE_OVERHEAD_PCT}%)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def check_names(result: Dict, spec: Dict) -> None:
    """Every metric BENCHMARK.json names is emitted, and nothing else."""
    for group in ("end_to_end", "per_layer"):
        if result[group] is None:
            continue
        named = {metric["name"] for metric in spec[group]}
        if named != set(result[group]):
            odd = sorted(named ^ set(result[group]))
            result["failures"].append(f"{group} metrics differ from BENCHMARK.json: {odd}")


def provenance(seed: int, seconds: float, repeats: int) -> Dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
    }


def recorded_digest_changed(result: Dict) -> bool | None:
    """Whether decisions differ from the digest recorded for this workload,
    seed and size (None: nothing recorded for that combination)."""
    recorded = json.loads((HERE / "expected_digests.json").read_text())
    for entry in recorded.get(result["workload"], []):
        if (entry["seed"], entry["requests"]) == (result["seed"], result["requests"]):
            return entry["digest"] != result["digest"]
    return None


def driver_run(spec: Dict, workload: str, seed: int, seconds: float, trace: int) -> int:
    """One run as the driver calls it: the last line is the contract's JSON."""
    repeats = TRACE_RUN_REPEATS if trace else REPEATS
    traced = repeats if trace else 0
    result = measure(workload, seed, seconds / REPEATS, repeats=repeats, traced=traced)
    check_names(result, spec)
    print(f"provenance: {json.dumps(provenance(seed, seconds, repeats))}")
    print_result(result, spec)
    if trace:
        values = result["per_layer"]
    else:
        values = {name: cell["median"] for name, cell in result["end_to_end"].items()}
    print(
        json.dumps(
            {
                "correct": not result["failures"],
                "attempted": result["counts"]["offered"],
                "failed": result["failed_operations"],
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in spec["per_layer" if trace else "end_to_end"]
                },
            }
        )
    )
    return 1 if result["failures"] else 0


def full_run(spec: Dict, names: List[str], seed: int, seconds: float, smoke: bool, out) -> int:
    """Every named workload, untraced and traced repeats; one report."""
    repeats = 1 if smoke else REPEATS
    per_repeat = seconds / (20.0 if smoke else REPEATS)
    report: Dict = {
        "provenance": provenance(seed, seconds, repeats),
        "claim": None,
        "workloads": {},
    }
    failures: List[str] = []
    for name in names:
        result = measure(name, seed, per_repeat, repeats=repeats, traced=repeats)
        check_names(result, spec)
        result["decisions_changed"] = recorded_digest_changed(result)
        print_result(result, spec)
        if result["decisions_changed"]:
            print("  note: decisions differ from the digest in expected_digests.json")
        report["workloads"][name] = result
        failures += [f"{name}: {failure}" for failure in result["failures"]]
    done = report["workloads"]
    if {"serve-inline", "serve-process"} <= done.keys() and (
        done["serve-inline"]["digest"] != done["serve-process"]["digest"]
    ):
        failures.append("serve-inline and serve-process made different decisions")
        print(f"FAILED: {failures[-1]}")
    report["failures"] = failures
    if out:
        Path(out).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    return 1 if failures else 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one driver run (see above)")
    parser.add_argument("--smoke", action="store_true", help="1 repeat of 1/20 of the seconds")
    parser.add_argument("--out", help="also write the final JSON object to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("no program to measure: src/repro is missing", file=sys.stderr)
        return 2
    if args.trace is None:
        return full_run(spec, args.workload or names, args.seed, args.seconds, args.smoke, args.out)
    if not args.workload or len(args.workload) != 1:
        parser.error("a driver run (--trace) takes exactly one --workload")
    return driver_run(spec, args.workload[0], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
