"""One config object for every scheduling surface.

``repro schedule`` grew ~20 flags (machine, policy, churn shape, online
learning), and the sharded service adds more
(shards, window, worker transport).  :class:`ScheduleConfig` folds them
all into one dataclass shared by the CLI (``repro schedule`` *and*
``repro serve``), the benchmarks, and the examples: a new knob is added
here once, and ``from_args`` / ``add_schedule_arguments`` keep the
command-line surface in sync with it.

The config also owns the *builders*: fleet, registry, policy, and
request stream construction from the same fields, so two surfaces
configured equally are guaranteed to build bit-for-bit the same world
(same preset objects, same stream seeds, same policy knobs) — the
property the single-shard-equals-monolith tests lean on.
"""

from __future__ import annotations

import argparse
import itertools
from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

from repro.core.serialize import Record
from repro.scheduler.fleet import Fleet
from repro.scheduler.policies import POLICIES, FleetPolicy, make_policy
from repro.scheduler.registry import ModelRegistry
from repro.scheduler.requests import (
    PlacementRequest,
    drift_phase_schedule,
    generate_churn_stream,
    generate_request_stream,
)
from repro.scheduler.admission import SHED_POLICIES
from repro.topology import PRESETS
from repro.topology.machine import MachineTopology

#: Worker transports the sharded service supports.
WORKER_MODES = ("inline", "process")


@dataclass
class ScheduleConfig(Record):
    """Everything ``repro schedule`` / ``repro serve`` can be told.

    Field defaults are the CLI defaults; :meth:`validate` enforces the
    same constraints the CLI used to check inline (raising ``ValueError``
    — CLI entry points convert to ``SystemExit``).
    """

    # Fleet shape
    machine: str = "amd"
    hosts: int = 128
    # Stream
    requests: int = 500
    vcpus: Tuple[int, ...] = (8, 16)
    seed: int = 0
    # Policy
    policy: str = "ml"
    batch_size: int | None = None
    # Churn
    churn: bool = False
    arrival_rate: float = 1.0
    mean_lifetime: float = 60.0
    heavy_tail: bool = False
    no_rebalance: bool = False
    penalty_seconds: float = 120.0
    # Online learning
    online_learning: bool = False
    phase_shift: bool = False
    drift_threshold: float | None = None
    # Sharded service (repro serve)
    shards: int = 1
    window: int = 8
    workers: str = "inline"
    max_events: int | None = None
    # Fault tolerance (repro serve; also forced on by a FaultPlan)
    supervised: bool = False
    request_timeout_s: float | None = 30.0
    fault_retries: int = 2
    backoff_base_s: float = 0.05
    recovery_rounds: int = 0
    # Overload robustness (repro serve --admission)
    #: Screen arrivals through the front-end admission controller:
    #: feasibility/saturation gates and a bounded brown-out queue, both
    #: read off the free-node histograms every ShardSummary carries.
    admission: bool = False
    #: Bound on the brown-out held queue (None: unbounded).
    queue_limit: int | None = None
    #: How the held queue sheds on overflow (see SHED_POLICIES).
    shed_policy: str = "drop-newest"
    #: Deadline policy only: holds older than this are shed.
    deadline_budget_s: float = 30.0
    #: Enter brown-out when the fleet-wide capacity fraction drops
    #: below this (0 disables the capacity trigger; DOWN shards always
    #: trigger); exit at 1.5x the watermark (hysteresis).
    brownout_watermark: float = 0.0

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> "ScheduleConfig":
        """Check cross-field constraints; returns self for chaining."""
        if self.machine != "mixed" and self.machine not in PRESETS:
            raise ValueError(
                f"unknown machine {self.machine!r}; choose from "
                f"{', '.join(sorted(PRESETS))} or 'mixed'"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; registered: "
                f"{', '.join(sorted(POLICIES))}"
            )
        if not self.vcpus:
            raise ValueError("vcpus must name at least one container size")
        if any(v < 1 for v in self.vcpus):
            raise ValueError("vcpus sizes must be >= 1")
        if self.hosts < 1:
            raise ValueError("hosts must be >= 1")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.churn and self.batch_size is not None:
            raise ValueError(
                "batch_size applies to the one-shot scheduler; the "
                "lifecycle engine decides one event at a time"
            )
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.mean_lifetime <= 0:
            raise ValueError("mean_lifetime must be positive")
        if self.penalty_seconds <= 0:
            raise ValueError("penalty_seconds must be positive")
        if self.online_learning and self.policy != "ml":
            raise ValueError(
                "online learning needs policy 'ml' (heuristic policies "
                "make no predictions to retrain on)"
            )
        if self.phase_shift and not self.churn:
            raise ValueError(
                "phase_shift applies to churn streams; enable churn "
                "(or online_learning)"
            )
        if self.drift_threshold is not None and self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shards > self.hosts:
            raise ValueError(
                f"cannot split {self.hosts} host(s) into {self.shards} "
                f"shard(s): every shard needs at least one host"
            )
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.workers not in WORKER_MODES:
            raise ValueError(
                f"unknown worker mode {self.workers!r}; choose from "
                f"{', '.join(WORKER_MODES)}"
            )
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive (or None)")
        if self.fault_retries < 0:
            raise ValueError("fault_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.recovery_rounds < 0:
            raise ValueError("recovery_rounds must be >= 0")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; choose from "
                f"{', '.join(SHED_POLICIES)}"
            )
        if self.queue_limit is not None and self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None: unbounded)")
        if self.deadline_budget_s <= 0:
            raise ValueError("deadline_budget_s must be positive")
        if not 0.0 <= self.brownout_watermark <= 1.0:
            raise ValueError("brownout_watermark must be in [0, 1]")
        if not self.admission and (
            self.queue_limit is not None or self.brownout_watermark > 0.0
        ):
            raise ValueError(
                "queue_limit/brownout_watermark require --admission "
                "(without the controller they would silently do nothing)"
            )
        return self

    # ------------------------------------------------------------------
    # CLI binding
    # ------------------------------------------------------------------

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "ScheduleConfig":
        """Build (and validate) a config from parsed CLI arguments.

        Only attributes present on the namespace are read — the
        ``schedule`` and ``serve`` subcommands expose different subsets
        of the surface, and missing flags keep their field defaults.
        """
        values: Dict = {}
        for spec in fields(cls):
            if hasattr(args, spec.name):
                values[spec.name] = getattr(args, spec.name)
        if isinstance(values.get("vcpus"), str):
            values["vcpus"] = cls.parse_vcpus(values["vcpus"])
        config = cls(**values)
        if config.online_learning:
            # Online learning is a property of the event-driven engine:
            # the loop closes on *observed* placements over time.
            config.churn = True
        return config.validate()

    @staticmethod
    def parse_vcpus(text: str) -> Tuple[int, ...]:
        """Parse the CLI's comma-separated container-size list."""
        try:
            return tuple(int(v) for v in text.split(",") if v.strip())
        except ValueError:
            raise ValueError(
                f"vcpus must be a comma-separated int list, got {text!r}"
            )

    # ------------------------------------------------------------------
    # Derived values and builders
    # ------------------------------------------------------------------

    @property
    def effective_batch_size(self) -> int:
        """The one-shot scheduler's batch size (64 unless set)."""
        return 64 if self.batch_size is None else self.batch_size

    @property
    def rebalance_enabled(self) -> bool:
        return not self.no_rebalance

    def machine_list(self) -> List[MachineTopology]:
        """One topology per host, in host-id order.

        Built directly instead of via :meth:`build_fleet`: every
        process-transport worker calls this at startup to find its
        slice, and at 100k hosts materializing a full Fleet per worker
        would dominate spawn time.  The 'mixed' fleet interleaves half
        AMD / half Intel exactly like
        :meth:`~repro.scheduler.fleet.Fleet.mixed`, so a fleet built
        from this list equals the fleet :meth:`build_fleet` returns —
        the sharded service partitions this list across shards.
        """
        if self.machine == "mixed":
            half = self.hosts // 2
            rows = [
                row
                for row in (
                    [PRESETS["amd"]()] * (self.hosts - half),
                    [PRESETS["intel"]()] * half,
                )
                if row
            ]
            return [
                machine
                for batch in itertools.zip_longest(*rows)
                for machine in batch
                if machine is not None
            ]
        return [PRESETS[self.machine]()] * self.hosts

    def build_fleet(self) -> Fleet:
        if self.machine == "mixed":
            half = self.hosts // 2
            return Fleet.mixed(
                [
                    (PRESETS["amd"](), self.hosts - half),
                    (PRESETS["intel"](), half),
                ]
            )
        return Fleet.homogeneous(PRESETS[self.machine](), self.hosts)

    def build_registry(self) -> ModelRegistry:
        return ModelRegistry(seed=self.seed)

    def build_policy(
        self, registry: ModelRegistry | None = None
    ) -> FleetPolicy:
        return make_policy(
            self.policy,
            registry=registry if registry is not None else self.build_registry(),
        )

    def build_stream(self) -> List[PlacementRequest]:
        if self.churn:
            return generate_churn_stream(
                self.requests,
                seed=self.seed,
                vcpus_choices=self.vcpus,
                arrival_rate=self.arrival_rate,
                mean_lifetime=self.mean_lifetime,
                heavy_tail=self.heavy_tail,
                phases=drift_phase_schedule() if self.phase_shift else None,
            )
        return generate_request_stream(
            self.requests, seed=self.seed, vcpus_choices=self.vcpus
        )


def add_schedule_arguments(
    parser: argparse.ArgumentParser, *, serve: bool = False
) -> None:
    """Attach the shared scheduling flags to a subcommand parser.

    ``repro schedule`` and ``repro serve`` expose the same fleet, stream,
    policy, and churn knobs; ``serve=True`` adds the service group
    (shards, window, worker transport) and drops the flags that only
    make sense for the monolithic command (one-shot batching, online
    learning, decision tracing).
    """
    defaults = ScheduleConfig()
    parser.add_argument(
        "--machine",
        default=defaults.machine,
        choices=sorted(PRESETS) + ["mixed"],
        help="host shape, or 'mixed' for a half-AMD/half-Intel fleet",
    )
    parser.add_argument("--hosts", type=int, default=defaults.hosts)
    parser.add_argument("--requests", type=int, default=defaults.requests)
    parser.add_argument(
        "--policy", default=defaults.policy, choices=sorted(POLICIES)
    )
    parser.add_argument(
        "--vcpus",
        default=",".join(str(v) for v in defaults.vcpus),
        help="comma-separated container sizes to sample (default 8,16)",
    )
    if not serve:
        parser.add_argument(
            "--batch-size",
            type=int,
            default=None,
            help="requests decided per policy call (one-shot mode only; "
            "default 64)",
        )
    if not serve:
        parser.add_argument(
            "--trace",
            type=int,
            default=0,
            metavar="N",
            help="also print the first N per-request decision traces "
            "(and, with --churn, the first N migration traces)",
        )
    churn = parser.add_argument_group(
        "churn options",
        "dynamic lifecycle simulation"
        + (" (always on in serve mode)" if serve else " (--churn)"),
    )
    if not serve:
        churn.add_argument(
            "--churn",
            action="store_true",
            help="run the event-driven lifecycle engine: Poisson arrivals "
            "with lifetimes, departures, fragmentation tracking, and "
            "migration-driven rebalancing",
        )
    churn.add_argument(
        "--arrival-rate",
        type=float,
        default=defaults.arrival_rate,
        help="mean container arrivals per simulated second (default 1.0)",
    )
    churn.add_argument(
        "--mean-lifetime",
        type=float,
        default=defaults.mean_lifetime,
        help="mean container lifetime in simulated seconds (default 60)",
    )
    churn.add_argument(
        "--heavy-tail",
        action="store_true",
        help="draw lifetimes from a heavy-tailed Pareto instead of an "
        "exponential (same mean; a few containers pin nodes for ages)",
    )
    churn.add_argument(
        "--no-rebalance",
        action="store_true",
        help="disable the fragmentation-triggered migration rebalancer "
        "(the no-migration baseline)",
    )
    churn.add_argument(
        "--penalty-seconds",
        type=float,
        default=defaults.penalty_seconds,
        help="migration-time budget the rebalancer may spend to recover "
        "one rejected request (default 120)",
    )
    if serve:
        # The service ingests a lifecycle event stream: serve mode is
        # always churn mode (there is no one-shot serve).
        parser.set_defaults(churn=True)
        service = parser.add_argument_group(
            "service options", "sharded scheduler service"
        )
        service.add_argument(
            "--shards",
            type=int,
            default=defaults.shards,
            help="worker shards the fleet is partitioned into (default 1)",
        )
        service.add_argument(
            "--window",
            type=int,
            default=defaults.window,
            help="consecutive arrivals batched per routing round "
            "(default 8; 1 reproduces the monolithic engine's "
            "event-at-a-time decisions)",
        )
        service.add_argument(
            "--workers",
            default=defaults.workers,
            choices=sorted(WORKER_MODES),
            help="shard transport: 'inline' runs workers in-process, "
            "'process' forks one worker process per shard",
        )
        service.add_argument(
            "--max-events",
            type=int,
            default=None,
            metavar="N",
            help="stop after ingesting N lifecycle events (bounds smoke "
            "runs; default: drain the whole stream)",
        )
        service.add_argument(
            "--emit-json",
            action="store_true",
            help="print the report as machine-readable JSON (the wire "
            "to_dict() payload, without per-decision traces) instead "
            "of the human summary",
        )
        ft = parser.add_argument_group(
            "fault tolerance options",
            "shard supervision, journaling, and crash recovery",
        )
        ft.add_argument(
            "--supervised",
            action="store_true",
            help="journal every state-mutating shard message, track "
            "shard health (up/suspect/down/recovering), retry timeouts "
            "with seeded backoff, and recover crashed shards by respawn "
            "+ journal replay",
        )
        ft.add_argument(
            "--request-timeout",
            dest="request_timeout_s",
            type=float,
            default=defaults.request_timeout_s,
            metavar="S",
            help="per-request reply deadline in seconds on the process "
            "transport, stamped when the message is sent; a routing "
            "round runs every in-flight shard's deadline "
            "concurrently (default 30)",
        )
        ft.add_argument(
            "--fault-retries",
            type=int,
            default=defaults.fault_retries,
            help="timeout retries (same sequence number; the worker "
            "dedups) before a shard is marked down (default 2)",
        )
        ft.add_argument(
            "--backoff-base-s",
            dest="backoff_base_s",
            type=float,
            default=defaults.backoff_base_s,
            metavar="S",
            help="base of the seeded exponential retry backoff "
            "(default 0.05)",
        )
        ft.add_argument(
            "--recovery-rounds",
            type=int,
            default=defaults.recovery_rounds,
            metavar="K",
            help="0 recovers a dead shard immediately inside the failed "
            "send; K>0 leaves it down for K routing rounds, failing "
            "arrivals over to surviving shards (default 0)",
        )
        ft.add_argument(
            "--chaos",
            action="store_true",
            help="wrap every shard in a seeded fault plan that crashes "
            "it once (FaultPlan.kill_each_shard_once with the stream "
            "seed) — a self-test of the recovery path; implies "
            "supervision",
        )
        adm = parser.add_argument_group(
            "admission control options",
            "overload robustness: feasibility/saturation gates, bounded "
            "brown-out queue, read off the shards' free-node histograms",
        )
        adm.add_argument(
            "--admission",
            action="store_true",
            help="screen arrivals through the front-end admission "
            "controller: reject infeasible and provably-unplaceable "
            "requests before any shard round trip, and hold "
            "best-effort traffic in a bounded queue during brown-out",
        )
        adm.add_argument(
            "--queue-limit",
            dest="queue_limit",
            type=int,
            default=defaults.queue_limit,
            metavar="N",
            help="bound on the brown-out held queue (default: unbounded)",
        )
        adm.add_argument(
            "--shed-policy",
            dest="shed_policy",
            choices=SHED_POLICIES,
            default=defaults.shed_policy,
            help="how a full held queue sheds: drop-newest rejects the "
            "arrival, drop-oldest evicts the head, deadline sheds "
            "holds whose budget is spent first (default drop-newest)",
        )
        adm.add_argument(
            "--deadline-budget-s",
            dest="deadline_budget_s",
            type=float,
            default=defaults.deadline_budget_s,
            metavar="S",
            help="deadline policy only: event-time seconds a request may "
            "wait in the held queue before it is shed (default 30)",
        )
        adm.add_argument(
            "--brownout-watermark",
            dest="brownout_watermark",
            type=float,
            default=defaults.brownout_watermark,
            metavar="F",
            help="enter brown-out when the fleet-wide capacity fraction "
            "drops below F (exit at 1.5x F — hysteresis); 0 disables "
            "the capacity trigger, DOWN shards always trigger "
            "(default 0)",
        )
    else:
        online = parser.add_argument_group(
            "online learning options",
            "closed-loop model lifecycle (--online-learning, implies "
            "--churn)",
        )
        online.add_argument(
            "--online-learning",
            action="store_true",
            help="close the serving loop: trace every graded ML placement, "
            "retrain on rolling-MAPE drift, shadow candidates against the "
            "incumbent, and promote through the holdout gate",
        )
        online.add_argument(
            "--phase-shift",
            action="store_true",
            help="apply the canonical mid-stream workload-mix shift (the "
            "drift scenario a frozen model degrades on)",
        )
        online.add_argument(
            "--drift-threshold",
            type=float,
            default=None,
            metavar="PCT",
            help="rolling MAPE (percent) above which a partition counts "
            "as drifted (default 12)",
        )
