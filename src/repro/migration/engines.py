"""Migration engines and their cost models.

The constants in :class:`MigrationCostConstants` were calibrated against
Table 2 of the paper (see ``benchmarks/bench_table2_migration.py`` for the
side-by-side comparison).  The structural story they encode:

* **Default Linux** moves anonymous pages only, mostly single-threaded.
  Its base copy rate degrades with the container's task count (each task's
  cpuset must be updated and its pages unmapped/remapped), and every
  distinct process adds a fixed page-table-walk cost — which is why TPC-C
  (hundreds of server processes) takes 431 s where the same amount of
  memory in one address space would take tens of seconds.
* **Fast migration** (the paper's method) freezes the container, then
  copies with concurrent per-node worker threads — including the page
  cache, which can be most of the footprint (93% for BLAST).  Throughput
  only mildly degrades with process count (work distribution overhead).
* **Throttled migration** trades time for transparency: the container keeps
  running while a bandwidth-limited copier works in the background, costing
  roughly the bandwidth share it steals from the node's memory controller.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.migration.memory import ContainerMemory


@dataclass(frozen=True)
class MigrationCostConstants:
    """Calibrated constants of the three cost models (rates in GB/s,
    times in seconds)."""

    # Default Linux
    linux_base_rate_gbps: float = 0.40
    linux_task_slowdown: float = 1.0 / 150.0  # rate /= 1 + tasks * this
    # Every process's cpuset rebind rescans the container's mappings:
    # seconds += n_processes * anonymous_gb * this.
    linux_process_rescan_s_per_gb: float = 0.175
    linux_fixed_s: float = 0.15
    linux_freeze_base_s: float = 2.0  # "completely freezes the applications
    linux_freeze_fraction: float = 0.05  # for several seconds"
    linux_overhead_fraction: float = 0.20  # "a overhead of 20% at best"

    # Fast migration (the paper's method)
    fast_base_rate_gbps: float = 5.5
    fast_process_slowdown: float = 1.0 / 200.0
    fast_fixed_s: float = 0.08

    # Throttled migration
    throttle_default_mbps: float = 620.0

    def __post_init__(self) -> None:
        if self.linux_base_rate_gbps <= 0 or self.fast_base_rate_gbps <= 0:
            raise ValueError("copy rates must be positive")
        if self.throttle_default_mbps <= 0:
            raise ValueError("throttle bandwidth must be positive")


@dataclass(frozen=True)
class MigrationResult:
    """Outcome of one migration."""

    method: str
    seconds: float
    migrated_gb: float
    left_behind_gb: float  # page cache the method cannot move
    frozen_seconds: float  # how long the container was stopped
    overhead_fraction: float  # throughput loss while migrating (if running)


class MigrationEngine(abc.ABC):
    """Common interface of the three migration mechanisms."""

    #: Identifier used in results and reports.
    name: str

    def __init__(
        self, constants: MigrationCostConstants | None = None
    ) -> None:
        self.constants = constants or MigrationCostConstants()

    @abc.abstractmethod
    def migrate(self, memory: ContainerMemory) -> MigrationResult:
        """Migrate a container's memory to another node set."""

    @property
    @abc.abstractmethod
    def freezes_container(self) -> bool:
        """Whether the container is stopped during migration."""


class DefaultLinuxMigrator(MigrationEngine):
    """The stock kernel migration path (cpuset rebind + move_pages)."""

    name = "default-linux"

    @property
    def freezes_container(self) -> bool:
        return False  # but it stalls the application for seconds anyway

    def migrate(self, memory: ContainerMemory) -> MigrationResult:
        c = self.constants
        rate = c.linux_base_rate_gbps / (
            1.0 + memory.n_tasks * c.linux_task_slowdown
        )
        seconds = (
            c.linux_fixed_s
            + memory.anonymous_gb / rate
            + memory.n_processes
            * memory.anonymous_gb
            * c.linux_process_rescan_s_per_gb
        )
        frozen = min(
            seconds, c.linux_freeze_base_s + c.linux_freeze_fraction * seconds
        )
        return MigrationResult(
            method=self.name,
            seconds=seconds,
            migrated_gb=memory.anonymous_gb,
            left_behind_gb=memory.page_cache_gb,
            frozen_seconds=frozen,
            overhead_fraction=c.linux_overhead_fraction,
        )


class FastMigrator(MigrationEngine):
    """The paper's method: freeze, then copy everything with concurrent
    workers (including the page cache)."""

    name = "fast"

    @property
    def freezes_container(self) -> bool:
        return True

    def migrate(self, memory: ContainerMemory) -> MigrationResult:
        c = self.constants
        rate = c.fast_base_rate_gbps / (
            1.0 + memory.n_processes * c.fast_process_slowdown
        )
        seconds = c.fast_fixed_s + memory.total_gb / rate
        return MigrationResult(
            method=self.name,
            seconds=seconds,
            migrated_gb=memory.total_gb,
            left_behind_gb=0.0,
            frozen_seconds=seconds,  # frozen for the whole (short) copy
            overhead_fraction=1.0,  # while frozen, no progress at all
        )


class ThrottledMigrator(MigrationEngine):
    """The non-freezing variant for latency-sensitive containers.

    The copier is limited to ``bandwidth_mbps``; the running container loses
    roughly the DRAM bandwidth share the copier consumes.  Section 7: for
    WiredTiger the overhead stays between 3% and 6% while migration takes
    about a minute.
    """

    name = "throttled"

    def __init__(
        self,
        constants: MigrationCostConstants | None = None,
        *,
        bandwidth_mbps: float | None = None,
        node_dram_bandwidth_mbps: float = 12_000.0,
    ) -> None:
        super().__init__(constants)
        self.bandwidth_mbps = (
            bandwidth_mbps
            if bandwidth_mbps is not None
            else self.constants.throttle_default_mbps
        )
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        if node_dram_bandwidth_mbps <= 0:
            raise ValueError("node_dram_bandwidth_mbps must be positive")
        self.node_dram_bandwidth_mbps = node_dram_bandwidth_mbps

    @property
    def freezes_container(self) -> bool:
        return False

    def migrate(self, memory: ContainerMemory) -> MigrationResult:
        seconds = memory.total_gb * 1024.0 / self.bandwidth_mbps
        overhead = self.bandwidth_mbps / self.node_dram_bandwidth_mbps
        return MigrationResult(
            method=self.name,
            seconds=seconds,
            migrated_gb=memory.total_gb,
            left_behind_gb=0.0,
            frozen_seconds=0.0,
            overhead_fraction=min(0.5, overhead),
        )
