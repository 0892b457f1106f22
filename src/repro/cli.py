"""Command-line interface: the paper's workflow without writing Python.

Subcommands mirror the paper's steps:

* ``machines`` — list the built-in machine models;
* ``concerns`` — show a machine's scheduling concerns (Table 1);
* ``enumerate`` — list the important placements for a container size;
* ``predict`` — train the canonical model and predict a workload's
  performance vector from two probe observations;
* ``policies`` — run the Figure-5 packing comparison for one workload;
* ``migrate-plan`` — price the migration of a workload and recommend a
  mechanism (Table 2 / Section 7);
* ``lint`` — run the invariant-aware static analysis suite
  (``repro.analysis``) over the tree: determinism and pipe-safety
  rules; exits non-zero on findings;
* ``schedule`` — place a stream of heterogeneous container requests across
  a simulated fleet and print the fleet report (the scheduler subsystem).
  With ``--churn``, requests also *depart*: the event-driven lifecycle
  engine replays timestamped arrivals and departures, tracks
  fragmentation, and (unless ``--no-rebalance``) recovers
  fragmentation rejects with cost-gated container migrations.
  With ``--online-learning`` (implies ``--churn``), the serving loop
  closes: graded placements feed a trace store, rolling-MAPE drift
  triggers warm-start retraining, and candidates shadow the incumbent
  until they clear the holdout gate and promote.  ``--phase-shift``
  applies the canonical mid-stream workload-mix shift that makes a
  frozen model drift.

Every subcommand accepts ``--seed``; it drives all randomness the command
uses (request streams, simulators, model fitting), so runs are
reproducible end to end from the command line.

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Sequence

from repro.core import (
    AggressivePolicy,
    ConservativePolicy,
    MlPolicy,
    SmartAggressivePolicy,
    concerns_for,
    enumerate_important_placements,
    evaluate_policy,
)
from repro.experiments import fitted_model, paper_vcpus
from repro.migration import MigrationPlanner
from repro.perfsim import (
    PerformanceSimulator,
    paper_workloads,
    workload_by_name,
)
from repro.topology import (
    amd_epyc_zen,
    amd_opteron_6272,
    intel_haswell_cod,
    intel_xeon_e7_4830_v3,
)

MACHINES: Dict[str, Callable] = {
    "amd": amd_opteron_6272,
    "intel": intel_xeon_e7_4830_v3,
    "zen": amd_epyc_zen,
    "cod": intel_haswell_cod,
}


def _machine(name: str):
    try:
        return MACHINES[name]()
    except KeyError:
        raise SystemExit(
            f"unknown machine {name!r}; choose from {', '.join(MACHINES)}"
        )


def cmd_machines(_args) -> int:
    for key, factory in MACHINES.items():
        machine = factory()
        print(f"[{key}]")
        print(machine.summary())
        print()
    return 0


def cmd_concerns(args) -> int:
    machine = _machine(args.machine)
    print(concerns_for(machine).table())
    return 0


def cmd_enumerate(args) -> int:
    machine = _machine(args.machine)
    vcpus = args.vcpus or paper_vcpus(machine)
    ips = enumerate_important_placements(machine, vcpus)
    print(ips.describe())
    return 0


def cmd_predict(args) -> int:
    machine = _machine(args.machine)
    workload = workload_by_name(args.workload)
    model, training_set = fitted_model(machine, random_state=args.seed)
    placements = training_set.placements
    i, j = model.input_pair
    simulator = PerformanceSimulator(machine, seed=args.seed)
    obs_i = simulator.measured_ipc(workload, placements[i], duration_s=3.0)
    obs_j = simulator.measured_ipc(workload, placements[j], duration_s=3.0)
    vector = model.predict(obs_i, obs_j)
    print(
        f"{workload.name}: probed #{i + 1} ({obs_i:.3f} IPC) and "
        f"#{j + 1} ({obs_j:.3f} IPC)"
    )
    for placement_id, (placement, value) in enumerate(
        zip(placements, vector), start=1
    ):
        marker = " <- best" if value == vector.max() else ""
        print(f"  #{placement_id:>2} {placement.describe():55s} {value:5.2f}{marker}")
    if args.goal is not None:
        meeting = [
            (p, v)
            for p, v in zip(placements, vector)
            if v >= args.goal
        ]
        if meeting:
            placement, value = min(meeting, key=lambda c: (c[0].n_nodes, -c[1]))
            print(
                f"\ncheapest placement meeting {args.goal:.0%} of baseline: "
                f"{placement.describe()} (predicted {value:.2f})"
            )
        else:
            print(f"\nno placement is predicted to meet {args.goal:.0%}")
    return 0


def cmd_policies(args) -> int:
    machine = _machine(args.machine)
    workload = workload_by_name(args.workload)
    simulator = PerformanceSimulator(machine, seed=args.seed)
    model, training_set = fitted_model(machine, random_state=args.seed)
    placements = training_set.placements
    baseline = placements[model.input_pair[0]]
    vcpus = paper_vcpus(machine)
    print(
        f"{workload.name} on {machine.name}, goal "
        f"{args.goal:.0%} of baseline placement:"
    )
    for policy in (
        MlPolicy(model, placements, simulator),
        ConservativePolicy(),
        AggressivePolicy(),
        SmartAggressivePolicy(),
    ):
        outcome = evaluate_policy(
            policy,
            machine,
            workload,
            vcpus,
            goal_fraction=args.goal,
            baseline_placement=baseline,
            simulator=simulator,
        )
        print(
            f"  {policy.name:20s} instances={outcome.instances} "
            f"worst-violation={outcome.violations_pct:.0f}%"
        )
    return 0


def _schedule_config(args):
    from repro.scheduler import ScheduleConfig

    try:
        return ScheduleConfig.from_args(args)
    except ValueError as error:
        raise SystemExit(str(error))


def cmd_schedule(args) -> int:
    from repro.scheduler import LifecycleScheduler, RebalanceConfig

    if args.trace < 0:
        raise SystemExit("--trace must be >= 0")
    config = _schedule_config(args)

    fleet = config.build_fleet()
    if config.online_learning:
        from repro.serving import (
            DriftConfig,
            ModelServer,
            OnlineLearner,
            OnlineLearningConfig,
        )

        registry = ModelServer(seed=config.seed)
        drift = (
            DriftConfig(threshold_pct=config.drift_threshold)
            if config.drift_threshold is not None
            else DriftConfig()
        )
        learner = OnlineLearner(registry, OnlineLearningConfig(drift=drift))
    else:
        registry = config.build_registry()
        learner = None
    policy = config.build_policy(registry)
    requests = config.build_stream()

    engine = LifecycleScheduler(
        fleet,
        policy,
        registry=registry,
        config=RebalanceConfig(
            enabled=config.churn and config.rebalance_enabled,
            reject_penalty_seconds=config.penalty_seconds,
        ),
        online=learner,
    )
    report = engine.run(
        requests,
        window=config.effective_batch_size if not config.churn else 1,
    )
    print(report.describe())
    if config.online_learning:
        print()
        print(registry.describe_chains())
    if args.trace:
        print()
        for graded in report.decisions[: args.trace]:
            print(f"  {graded.describe()}")
        if report.churn is not None and report.churn.migrations:
            print()
            for record in report.churn.migrations[: args.trace]:
                print(f"  {record.describe()}")
    return 0


def cmd_serve(args) -> int:
    import gc
    import json as json_module

    from repro.scheduler import FaultPlan, SchedulerService

    config = _schedule_config(args)
    faults = None
    if getattr(args, "chaos", False):
        faults = FaultPlan.kill_each_shard_once(
            config.shards, seed=config.seed
        )
    try:
        with SchedulerService(config, faults=faults) as service:
            # Constructed means warm: every model is trained and every
            # worker forked.  What the front end holds now lives as long
            # as the process, so take it out of the collector's sight —
            # otherwise a full collection walks it inside the serving
            # phase (measured: 2 % of `serve-process` throughput).  The
            # library leaves this to the application; this is it.
            gc.collect()
            gc.freeze()
            try:
                report = service.serve()
            finally:
                gc.unfreeze()  # callers of main() get their heap back
    except ValueError as error:
        raise SystemExit(str(error))
    if args.emit_json:
        print(
            json_module.dumps(
                report.to_dict(include_decisions=False), indent=2
            )
        )
    else:
        print(report.describe())
    return 0


def cmd_capacity(args) -> int:
    """What-if capacity queries over the fleet's free-node histograms."""
    from repro.scheduler import available, brute_force_capacity, needed_nodes

    if args.query is not None and args.query < 1:
        raise SystemExit("--query must be >= 1")
    if args.fill:
        args.requests = args.fill  # reuse the config's stream builder
    config = _schedule_config(args)
    fleet = config.build_fleet()
    if args.fill:
        policy = config.build_policy(config.build_registry())
        decisions = policy.decide_batch(config.build_stream(), fleet)
        placed = sum(1 for decision in decisions if decision.placed)
        print(
            f"filled: {placed}/{args.fill} request(s) placed "
            f"({config.policy} policy, seed {config.seed})"
        )
    index = fleet.index
    print(
        f"fleet: {len(fleet)} host(s) ({config.machine}), "
        f"{index.free_nodes_total}/{index.total_nodes} nodes free"
    )
    machines = {machine.name: machine for machine in index.shapes()}
    histograms = index.histograms()
    tracked = sorted(set(config.vcpus))
    classes = tracked
    if args.query is not None and args.query not in tracked:
        classes = [*tracked, args.query]
    counts = {
        vcpus: available(
            histograms, lambda name: needed_nodes(machines[name], vcpus)
        ).count
        for vcpus in classes
    }
    print("available space (additional containers that fit):")
    for vcpus in tracked:
        shapes = [
            f"{name}: {needed}-node blocks"
            for name, machine in machines.items()
            if (needed := needed_nodes(machine, vcpus)) is not None
        ]
        detail = "; ".join(shapes) if shapes else "infeasible on every shape"
        print(f"  vcpus {vcpus:>3}: {counts[vcpus]:>6}   ({detail})")
    expected = brute_force_capacity(fleet.hosts, classes)
    drift = [
        f"vcpus {vcpus}: histogram {counts[vcpus]} != actual {expected[vcpus]}"
        for vcpus in classes
        if counts[vcpus] != expected[vcpus]
    ]
    if drift:
        raise SystemExit(
            "free-node histograms drifted from brute force: "
            + "; ".join(drift)
        )
    print("free-node histograms match brute-force re-enumeration")
    if args.query is not None:
        print(
            f"what-if: {counts[args.query]} more {args.query}-vCPU "
            f"container(s) fit right now"
        )
    return 0


def cmd_lint(args) -> int:
    import json as json_module
    import time
    from pathlib import Path

    import repro
    from repro.analysis import (
        DEFAULT_CACHE_NAME,
        RULE_CLASSES,
        Analyzer,
        LintCache,
        rules_named,
    )

    if args.list_rules:
        for rule_id, rule_class in sorted(RULE_CLASSES.items()):
            doc = (rule_class.__doc__ or "").strip().splitlines()
            print(f"{rule_id:20s} {doc[0] if doc else ''}")
        return 0
    try:
        rules = (
            rules_named(token for token in args.rules.split(",") if token)
            if args.rules
            else None
        )
    except ValueError as error:
        raise SystemExit(str(error))
    cache = None
    if not args.no_cache:
        cache = LintCache(Path(args.cache_file or DEFAULT_CACHE_NAME))
    analyzer = Analyzer(rules, cache=cache)
    paths = [Path(p) for p in args.paths] or [Path(repro.__file__).parent]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise SystemExit(f"no such path: {', '.join(missing)}")
    start = time.perf_counter()
    findings, n_files = analyzer.analyze_paths(paths)
    elapsed = time.perf_counter() - start
    if cache is not None:
        cache.save()
    if args.format == "json":
        print(
            json_module.dumps(
                {
                    "rules": sorted(rule.id for rule in analyzer.rules),
                    "files": n_files,
                    "elapsed_seconds": round(elapsed, 3),
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.describe())
        noun = "finding" if len(findings) == 1 else "findings"
        print(
            f"checked {n_files} files in {elapsed:.2f}s: "
            f"{len(findings)} {noun}"
        )
    return 1 if findings else 0


def cmd_migrate_plan(args) -> int:
    planner = MigrationPlanner()
    workloads = (
        [workload_by_name(args.workload)]
        if args.workload
        else paper_workloads()
    )
    for workload in workloads:
        advice = planner.advise(workload)
        print(f"{workload.name:15s} -> {advice.recommended:9s} {advice.reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # One seed for every subcommand: any randomness a command uses
    # (streams, simulators, model fitting) derives from it, so a repeated
    # invocation with the same flags reproduces bit for bit.
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed",
        type=int,
        default=0,
        help="drives all randomness this command uses (default 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "machines", help="list machine models", parents=[seed_parent]
    ).set_defaults(func=cmd_machines)

    p = sub.add_parser(
        "concerns",
        help="show a machine's scheduling concerns",
        parents=[seed_parent],
    )
    p.add_argument("--machine", default="amd", choices=sorted(MACHINES))
    p.set_defaults(func=cmd_concerns)

    p = sub.add_parser(
        "enumerate", help="list important placements", parents=[seed_parent]
    )
    p.add_argument("--machine", default="amd", choices=sorted(MACHINES))
    p.add_argument("--vcpus", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "predict", help="predict a workload's vector", parents=[seed_parent]
    )
    p.add_argument("--machine", default="amd", choices=sorted(MACHINES))
    p.add_argument("--workload", default="WTbtree")
    p.add_argument("--goal", type=float, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "policies", help="compare packing policies", parents=[seed_parent]
    )
    p.add_argument("--machine", default="amd", choices=sorted(MACHINES))
    p.add_argument("--workload", default="WTbtree")
    p.add_argument("--goal", type=float, default=1.0)
    p.set_defaults(func=cmd_policies)

    p = sub.add_parser(
        "migrate-plan", help="price container migration", parents=[seed_parent]
    )
    p.add_argument("--workload", default=None)
    p.set_defaults(func=cmd_migrate_plan)

    p = sub.add_parser(
        "lint",
        help="run the invariant lints (repro.analysis) over the tree",
        parents=[seed_parent],
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories (default: the installed repro package)",
    )
    p.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default human)",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all; "
        "see --list-rules)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file result cache",
    )
    p.add_argument(
        "--cache-file",
        default=None,
        help="cache file path (default ./.repro-lint-cache.json)",
    )
    p.set_defaults(func=cmd_lint)

    from repro.scheduler.config import add_schedule_arguments

    p = sub.add_parser(
        "schedule",
        help="place a request stream across a simulated fleet",
        parents=[seed_parent],
    )
    add_schedule_arguments(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser(
        "serve",
        help="run the sharded scheduler service over a churn stream",
        parents=[seed_parent],
    )
    add_schedule_arguments(p, serve=True)
    p.set_defaults(func=cmd_serve)

    from repro.scheduler.policies import POLICIES
    from repro.topology import PRESETS

    p = sub.add_parser(
        "capacity",
        help="available space per vCPU class: what-if capacity queries",
        parents=[seed_parent],
    )
    p.add_argument(
        "--machine",
        default="amd",
        choices=sorted(PRESETS) + ["mixed"],
        help="host shape, or 'mixed' for a half-AMD/half-Intel fleet",
    )
    p.add_argument("--hosts", type=int, default=16)
    p.add_argument(
        "--vcpus",
        default="8,16,32",
        help="comma-separated container sizes to track (default 8,16,32)",
    )
    p.add_argument(
        "--policy",
        default="first-fit",
        choices=sorted(POLICIES),
        help="packing policy used by --fill (default first-fit)",
    )
    p.add_argument(
        "--fill",
        type=int,
        default=0,
        metavar="N",
        help="place N generated requests before reporting capacity",
    )
    p.add_argument(
        "--query",
        type=int,
        default=None,
        metavar="V",
        help="what-if: how many more V-vCPU containers fit "
        "(V need not be one of --vcpus)",
    )
    p.set_defaults(func=cmd_capacity)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
