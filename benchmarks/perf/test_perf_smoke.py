"""Smoke tests of the benchmark itself: ``python -m pytest benchmarks/perf -q``.

Not part of tier-1 (``testpaths`` is ``tests/``): the smoke run starts eight
worker processes and takes about half a minute.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from procstat import cpu_seconds, peak_rss_mb, tree_pids
from worker import ServeDriver
from workloads import WORKLOADS, build_config, build_streams, decision_digest, measured_decisions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _burn_then_wait(ready, release) -> None:
    deadline = time.process_time() + 0.3
    while time.process_time() < deadline:
        pass
    ready.set()
    release.wait(30)


def test_procstat_agrees_with_rusage_children():
    context = multiprocessing.get_context("spawn")
    ready, release = context.Event(), context.Event()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    child = context.Process(target=_burn_then_wait, args=(ready, release))
    child.start()
    try:
        assert ready.wait(30)
        assert child.pid in tree_pids()
        while_alive = cpu_seconds([child.pid])
        assert peak_rss_mb([child.pid]) > 1.0
    finally:
        release.set()
        child.join(30)
    assert not child.is_alive()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    reaped = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    # /proc counts in 10 ms ticks and the child still has to exit after the read.
    assert while_alive >= 0.3
    assert abs(reaped - while_alive) < 0.15
    own_so_far = time.process_time()
    assert cpu_seconds(tree_pids()) >= own_so_far


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text())
    assert json.loads(done.stdout.strip().splitlines()[-1]) == report
    return report


def test_smoke_emits_every_workload_and_metric(smoke):
    assert smoke["failures"] == []
    assert smoke["claim"] is None
    assert smoke["provenance"].keys() >= {"commit", "cpus", "python", "seed", "repeats"}
    assert list(smoke["workloads"]) == [workload["name"] for workload in SPEC["workloads"]]
    for result in smoke["workloads"].values():
        assert set(result["end_to_end"]) == {metric["name"] for metric in SPEC["end_to_end"]}
        assert set(result["per_layer"]) == {metric["name"] for metric in SPEC["per_layer"]}
        for cell in result["end_to_end"].values():
            assert cell["median"] > 0
        assert result["counts"]["offered"] == result["requests"]
        assert result["failed_operations"] == 0


def test_smoke_decisions_and_time_budget(smoke):
    done = smoke["workloads"]
    assert done["serve-inline"]["digest"] == done["serve-process"]["digest"]
    for name, result in done.items():
        # run.py has already required the traced and untraced digests to be equal.
        assert result["decisions_changed"] is False, f"{name}: decisions moved"
        assert abs(result["per_layer"]["trace.self_sum_pct"] - 100.0) <= 1.0
    layers = done["serve-inline"]["per_layer"]
    assert layers["registry.fits"] == 6  # 2 shards x 3 vCPU classes, all in set-up
    assert layers["shard.recv_wait_s"] == 0
    assert done["serve-process"]["per_layer"]["shard.recv_wait_s"] > 0
    assert done["serve-overload"]["per_layer"]["admission.shed"] > 0
    assert done["monolith-events"]["per_layer"]["shard.messages"] == 0


def test_spans_nest(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    requests = WORKLOADS["serve-overload"].requests(0.25)
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload=serve-overload",
            "--seed=17",
            f"--requests={requests}",
            "--trace=1",
            f"--spans={spans_path}",
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert len({name for name, *_ in spans}) >= 10
    last_child_end = {}
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent >= 0:
            _, parent_start, parent_end, _ = spans[parent]
            assert parent_start <= start and end <= parent_end, name
        # Siblings come in start order and never overlap.
        assert start >= last_child_end.get(parent, 0.0), name
        last_child_end[parent] = end


def test_serve_is_recallable_after_the_warm_up_call():
    config = build_config(WORKLOADS["serve-inline"], 200)
    warm, measured = build_streams(config, 5)
    driver = ServeDriver(config, None)
    try:
        driver.run(warm)
        assert driver.drained_failures() == []
        report = driver.run(measured)
        decisions = measured_decisions(report.decisions)
        assert sorted(g.decision.request.request_id for g in decisions) == sorted(
            request.request_id for request in measured
        )
        assert len(report.decisions) == len(warm) + len(measured)
        assert driver.drained_failures() == []
    finally:
        driver.close()
    fresh = ServeDriver(config, None)
    try:
        alone = measured_decisions(fresh.run(measured).decisions)
    finally:
        fresh.close()
    assert decision_digest(alone) == decision_digest(decisions)
