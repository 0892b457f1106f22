"""Shared fixtures for the reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper: it
prints a side-by-side "paper vs model" report (bypassing pytest's capture,
so the report appears in the terminal and in ``bench_output.txt``) and also
saves it under ``benchmarks/results/``.  The ``benchmark`` fixture times a
representative kernel of the experiment.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import pytest

from repro.experiments import (
    fitted_model,
    standard_training_set,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: CI's benchmark smoke step (REPRO_BENCH_SMOKE=1): benchmarks shrink to
#: tiny sizes and skip wall-clock-ratio assertions, which shared runners
#: are too noisy for.  Parsed once here so the accepted values cannot
#: drift between benchmark modules.
BENCH_SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip().lower() in (
    "1",
    "true",
    "yes",
)

#: Machine-readable perf trajectory, committed at the repository root so
#: future PRs can diff their numbers against the recorded ones (and CI
#: uploads it as an artifact).  Smoke runs write tiny-size numbers under
#: separate ``*_smoke`` keys and never touch the full-size entries —
#: regression comparisons only compare like with like.
BENCH_JSON = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_fleet.json")
)

#: Online-learning benchmark trajectory (drift recovery numbers), kept in
#: its own committed file — the fleet file tracks throughput, this one
#: tracks model-quality dynamics.
BENCH_ONLINE_JSON = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_online.json")
)

#: Forest-inference trajectory (arena vs per-tree throughput), committed
#: and gated by CI like the fleet numbers.
BENCH_PREDICT_JSON = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "BENCH_predict.json")
)


def _current_commit() -> str:
    """The checked-out commit, with ``+src`` appended when the program under
    ``src/`` differs from it — numbers measured on a modified tree must
    not pass for the parent commit's."""

    def git(*arguments: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *arguments],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(BENCH_JSON),
            timeout=10,
        )

    try:
        commit = git("rev-parse", "--short", "HEAD").stdout.strip()
        modified = git("diff", "--quiet", "HEAD", "--", "src").returncode == 1
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if not commit:
        return "unknown"
    return f"{commit}+src" if modified else commit


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, where there is one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def record_bench(scenario: str, payload: dict, *, path: str | None = None) -> None:
    """Merge one scenario's numbers into a committed trajectory file
    (``BENCH_fleet.json`` by default; pass ``path`` for others).

    Read-merge-write so the fleet-scheduler, index, and churn benchmarks
    (and future ones) share the file without clobbering each other.
    Smoke runs record under a separate ``<scenario>_smoke`` key, so the
    committed full-size trajectory survives a developer (or CI) running
    the documented ``REPRO_BENCH_SMOKE=1`` command.  Every cell is stamped
    with what it was measured on: the commit, the cores this process may
    run on, and the interpreter.
    """
    if path is None:
        path = BENCH_JSON
    data: dict = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    commit = _current_commit()
    data["commit"] = commit
    scenarios = data.setdefault("scenarios", {})
    key = f"{scenario}_smoke" if BENCH_SMOKE else scenario
    scenarios[key] = {
        "commit": commit,
        "cpu_cores": usable_cores(),
        "python": platform.python_version(),
        "smoke": BENCH_SMOKE,
        **payload,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="session")
def report(request):
    """Writer that bypasses pytest capture and persists reports."""

    os.makedirs(RESULTS_DIR, exist_ok=True)
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def write(name: str, text: str) -> None:
        banner = f"\n===== {name} =====\n"
        if capmanager is not None:
            with capmanager.global_and_fixture_disabled():
                sys.stdout.write(banner + text + "\n")
                sys.stdout.flush()
        else:  # pragma: no cover - capture plugin always present
            sys.__stdout__.write(banner + text + "\n")
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")

    return write


@pytest.fixture(scope="session")
def amd_machine():
    return amd_opteron_6272()


@pytest.fixture(scope="session")
def intel_machine():
    return intel_xeon_e7_4830_v3()


@pytest.fixture(scope="session")
def amd_training_set(amd_machine):
    return standard_training_set(amd_machine)


@pytest.fixture(scope="session")
def intel_training_set(intel_machine):
    return standard_training_set(intel_machine)


@pytest.fixture(scope="session")
def amd_model(amd_machine, amd_training_set):
    model, _ = fitted_model(amd_machine, amd_training_set)
    return model


@pytest.fixture(scope="session")
def intel_model(intel_machine, intel_training_set):
    model, _ = fitted_model(intel_machine, intel_training_set)
    return model
