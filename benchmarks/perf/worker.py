"""One repeat of one workload, in a fresh process: set-up, then the measured phase.

Block-score tables and compiled arenas are process-wide caches, so a repeat
that shared a process with an earlier one would find them built; ``run.py``
therefore starts this file once per repeat.  The last line of standard output
is one JSON object with everything the repeat measured; ``run.py`` turns the
repeats of a workload into its end-to-end metrics.

Set-up runs from entry of :func:`main` — before ``import repro`` — through
construction and a warm-up stream pushed through the same public entry point
as the measured stream, so every shard has trained every model, compiled its
arena and built its tables (generating the request streams, the benchmark's
own work, is kept off that clock).  The measured phase is a second call on
the same live service or engine.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import platform
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from procstat import cpu_seconds, peak_rss_mb, tree_pids
from tracer import (
    Tracer,
    end_setup_spans,
    instrument_engine,
    instrument_modules,
    instrument_service,
)
from workloads import WORKLOADS, build_config, build_streams, decision_digest, measured_decisions

SRC = Path(__file__).resolve().parents[2] / "src"


class ServeDriver:
    """Drives ``SchedulerService.serve``: one call per stream."""

    root_span = "service.serve"

    def __init__(self, config, tracer: Tracer | None) -> None:
        from repro.scheduler.service import SchedulerService

        self.config = config
        self.service = SchedulerService(config)
        #: The engines this process can reach: inline shards only.
        self.engines = [c.worker.engine for c in self.service.clients if hasattr(c, "worker")]
        self.traced_clients = instrument_service(tracer, self.service) if tracer else []

    def run(self, stream):
        return self.service.serve(stream)

    def latencies_s(self, decisions) -> List[float]:
        """The service's own per-arrival attribution (window round trip over
        window slice, plus retries), placed arrivals only: ``serve()`` has no
        per-request boundary a caller could time, and a front-end reject
        costs no round trip."""
        return [g.decision_seconds for g in decisions if g.decision.placed]

    def drained_failures(self) -> List[str]:
        failures = []
        for summary in self.service.summaries:
            if (
                summary.free_nodes_total != summary.total_nodes
                or summary.used_threads
                or summary.active_containers
            ):
                failures.append(f"shard {summary.shard_id} is not empty after the stream drained")
        for engine in self.engines:
            failures.extend(_index_failures(engine.fleet))
        return failures

    def close(self) -> None:
        self.service.close()


class MonolithDriver:
    """Drives ``LifecycleScheduler.step`` one event at a time, timing each
    arrival: the one workload where the benchmark is the per-request caller."""

    root_span = "driver.loop"

    def __init__(self, config, tracer: Tracer | None) -> None:
        from repro.scheduler.lifecycle import LifecycleScheduler, RebalanceConfig

        self.config = config
        self.fleet = config.build_fleet()
        registry = config.build_registry()
        self.engine = LifecycleScheduler(
            self.fleet,
            config.build_policy(registry),
            registry=registry,
            config=RebalanceConfig(
                enabled=config.rebalance_enabled,
                reject_penalty_seconds=config.penalty_seconds,
            ),
        )
        self.engines = [self.engine]
        self.traced_clients = []
        if tracer:
            instrument_engine(tracer, self.engine)
        self._step_seconds: List[float] = []

    def run(self, stream):
        from repro.scheduler.events import EventKind, events_from_requests

        engine = self.engine
        engine.begin()
        step_seconds = self._step_seconds = []
        start = perf_counter()
        for event in events_from_requests(stream).drain():
            if event.kind is EventKind.ARRIVAL:
                began = perf_counter()
                engine.step(event)
                step_seconds.append(perf_counter() - began)
            else:
                engine.step(event)
        return engine.collect_report(len(stream), perf_counter() - start)

    def latencies_s(self, decisions) -> List[float]:
        return self._step_seconds

    def drained_failures(self) -> List[str]:
        failures = _index_failures(self.fleet)
        if self.fleet.free_nodes_total != self.fleet.index.total_nodes or self.fleet.used_threads:
            failures.append("the fleet is not empty after the stream drained")
        return failures

    def close(self) -> None:
        pass


def _index_failures(fleet) -> List[str]:
    try:
        fleet.index.assert_consistent(fleet.hosts)
    except AssertionError as error:
        return [f"fleet index drifted from its hosts: {error}"]
    return []


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _outcomes(decisions, stream) -> Dict[str, int]:
    """Exactly-once and conservation counts over the measured arrivals."""
    seen = Counter(g.decision.request.request_id for g in decisions)
    offered = {request.request_id for request in stream}
    placed = sum(1 for g in decisions if g.decision.placed)
    shed = sum(
        1
        for g in decisions
        if not g.decision.placed and (g.decision.reject_reason or "").startswith("admission:")
    )
    return {
        "offered": len(stream),
        "placed": placed,
        "shed": shed,
        "rejected": len(decisions) - placed - shed,
        "missing": len(offered - seen.keys()),
        "duplicated": sum(1 for count in seen.values() if count > 1),
        "unknown": len(seen.keys() - offered),
    }


def _quality(decisions, counts) -> Dict[str, float]:
    """The end-to-end metrics that are functions of the seed alone."""
    strict = [g for g in decisions if g.decision.request.goal_fraction is not None]
    strict_placed = sum(1 for g in strict if g.decision.placed)
    violated = sum(1 for g in strict if g.violated)
    return {
        "placed_pct": 100.0 * counts["placed"] / counts["offered"],
        "goal_met_pct": 100.0 * (1.0 - violated / strict_placed) if strict_placed else 0.0,
        "strict_placed_pct": 100.0 * strict_placed / len(strict) if strict else 0.0,
    }


def _counters_so_far(tracer, driver) -> Dict:
    """Everything cumulative that ``_per_layer`` reports as a difference,
    read where the measured phase starts."""
    before = dict(tracer.counters)
    before["round_trips"] = [len(client.round_trips) for client in driver.traced_clients]
    service = getattr(driver, "service", None)
    if service:
        stats = service.stats
        before.update(
            rounds=stats.rounds,
            retries=stats.retries,
            exhausted=stats.exhausted,
            fanouts_skipped=stats.retries_short_circuited,
            shed=service.admission.stats.shed_total if service.admission else 0,
        )
    return before


def _per_layer(
    tracer, first, before, driver, report, counts, latencies_s, wall_s, end, setup
) -> Dict:
    """The traced repeat's per-layer numbers over the measured phase (spans
    from index ``first`` on; ``before`` holds the counters at its start)."""
    own = tracer.self_seconds(first)
    calls = Counter(tracer.names[first:])
    n = {key: value - before.get(key, 0) for key, value in tracer.counters.items()}

    def count(key: str) -> int:
        return n.get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    round_trips_ms = [
        1000.0 * seconds
        for client, skip in zip(driver.traced_clients, before["round_trips"])
        for seconds in client.round_trips[skip:]
    ]
    departs = tracer.durations("lifecycle.depart", first)
    memo = report.ipc_cache_info
    service = getattr(driver, "service", None)
    stats = service.stats if service else None
    admission = service.admission.stats if service and service.admission else None
    return {
        "policies.decide_self_s": own["policies.decide"],
        "policies.find_block_calls_per_placed": ratio(
            count("fleet.find_block_calls"), counts["placed"]
        ),
        "index.candidates_s": own["index.candidates"],
        "index.candidates_calls": calls["index.candidates"],
        "index.hosts_per_call": ratio(count("index.hosts"), calls["index.candidates"]),
        "fleet.find_block_calls": count("fleet.find_block_calls"),
        "fleet.allocate_calls": count("fleet.allocate_calls"),
        "fleet.release_calls": count("fleet.release_calls"),
        "registry.probe_s": own["registry.probe"],
        "registry.probe_rows": count("registry.probe_rows"),
        "registry.ipc_memo_hit_pct": 100.0 * ratio(memo.hits, memo.hits + memo.misses),
        "arena.predict_s": own["arena.predict"],
        "arena.calls": calls["arena.predict"],
        "arena.rows_per_call": ratio(count("arena.rows"), calls["arena.predict"]),
        "shard.wire_s": own["shard.wire"],
        "shard.wire_bytes_per_request": ratio(count("shard.wire_bytes"), counts["offered"]),
        "shard.handle_self_s": own["shard.handle"],
        "shard.messages": count("shard.messages"),
        "shard.arrivals_per_msg": ratio(count("shard.arrivals"), count("shard.arrive_messages")),
        "shard.recv_wait_s": own["shard.wait"],
        "shard.rtt_p50_ms": _percentile(round_trips_ms, 50),
        "shard.rtt_p99_ms": _percentile(round_trips_ms, 99),
        "shard.spawn_s": setup["construct_s"] if driver.config.workers == "process" else 0.0,
        "service.self_s": own["service.serve"],
        "service.report_s": end - tracer.marks["report"] if "report" in tracer.marks else 0.0,
        "service.rounds": stats.rounds - before["rounds"] if stats else 0,
        "service.retries": stats.retries - before["retries"] if stats else 0,
        "service.exhausted": stats.exhausted - before["exhausted"] if stats else 0,
        "admission.screen_s": own["admission.screen"],
        "admission.screen_calls": calls["admission.screen"],
        "admission.held_peak": admission.held_peak if admission else 0,
        "admission.shed": admission.shed_total - before["shed"] if admission else 0,
        "admission.fanouts_skipped": (
            stats.retries_short_circuited - before["fanouts_skipped"] if stats else 0
        ),
        "lifecycle.step_self_s": own["lifecycle.step"],
        "lifecycle.rebalance_attempts": report.churn.rebalance_attempts,
        "lifecycle.migrations": report.churn.n_migrations,
        "lifecycle.arrival_p999_ms": _percentile([1000.0 * s for s in latencies_s], 99.9),
        "lifecycle.depart_s": own["lifecycle.depart"],
        "lifecycle.depart_p50_us": 1e6 * _percentile(departs, 50),
        "scheduler.grade_s": own["scheduler.grade"],
        "scheduler.grade_calls": calls["scheduler.grade"],
        "registry.fit_s": sum(tracer.durations("registry.model", 0, first)),
        "registry.fits": before.get("registry.fits", 0),
        "registry.enumeration_runs": report.enumeration_runs,
        "core.enumeration_s": sum(tracer.durations("core.enumeration", 0, first)),
        "setup.import_s": setup["import_s"],
        "setup.construct_s": setup["construct_s"],
        "setup.warm_s": setup["warm_s"],
        "driver.loop_self_s": own["driver.loop"],
        "trace.accounting_s": own["trace.accounting"],
        "trace.self_sum_pct": 100.0 * sum(own.values()) / wall_s,
        "trace.spans": len(tracer.names) - first,
    }


def main(argv=None) -> int:
    entered = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced repeat's spans here, one JSON per line")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    for module in ("numpy", "repro.scheduler.service", "repro.scheduler.lifecycle"):
        importlib.import_module(module)  # the program, imported on the set-up clock
    imported = perf_counter()
    config = build_config(workload, args.requests)
    warm, measured = build_streams(config, args.seed)
    tracer = Tracer() if args.trace else None
    result: Dict = {
        "workload": workload.name,
        "seed": args.seed,
        "requests": args.requests,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    with contextlib.ExitStack() as stack:
        if tracer:
            stack.enter_context(instrument_modules(tracer))
        construct_start = perf_counter()
        driver = (ServeDriver if workload.kind == "serve" else MonolithDriver)(config, tracer)
        stack.callback(driver.close)
        constructed = perf_counter()
        warm_report = driver.run(warm)
        ready = perf_counter()
        setup = {
            "import_s": imported - entered,
            "construct_s": constructed - construct_start,
            "warm_s": ready - constructed,
        }
        result["setup"] = dict(setup, setup_s=sum(setup.values()))

        before: Dict = {}
        first = 0
        if tracer:
            before = _counters_so_far(tracer, driver)
            for engine in driver.engines:
                end_setup_spans(engine)
            tracer.marks.clear()
            first = len(tracer.names)
        pids = tree_pids()
        cpu_before = cpu_seconds(pids)
        root = tracer.begin(driver.root_span) if tracer else None
        start = perf_counter()
        report = driver.run(measured)
        end = perf_counter()
        if tracer:
            tracer.end(root)
        cpu_s = cpu_seconds(pids) - cpu_before
        rss_mb = peak_rss_mb(pids)

        decisions = measured_decisions(report.decisions)
        counts = _outcomes(decisions, measured)
        latencies_s = driver.latencies_s(decisions)
        failures = driver.drained_failures()
        if counts["missing"] or counts["duplicated"] or counts["unknown"]:
            failures.append(
                "arrivals not reported exactly once: "
                f"{counts['missing']} missing, {counts['duplicated']} duplicated, "
                f"{counts['unknown']} unknown"
            )
        if counts["placed"] + counts["rejected"] + counts["shed"] != counts["offered"]:
            failures.append("placed + rejected + shed != offered")
        if (warm_report.arena_forests, warm_report.enumeration_runs) != (
            report.arena_forests,
            report.enumeration_runs,
        ):
            failures.append("set-up was incomplete: a model was built during the measured phase")
        result.update(
            wall_s=end - start,
            cpu_s=cpu_s,
            peak_rss_mb=rss_mb,
            arrival_seconds=latencies_s,
            quality=_quality(decisions, counts),
            digest=decision_digest(decisions),
            counts=counts,
            failures=failures,
        )
        if tracer:
            result["per_layer"] = _per_layer(
                tracer, first, before, driver, report, counts, latencies_s, end - start, end, setup
            )
            if args.spans:
                tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
