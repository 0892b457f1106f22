"""Container memory migration (Section 7, Table 2).

Changing a container's placement may move it to different NUMA nodes, which
requires migrating its memory.  The paper improves on Lepers et al.'s
freeze-and-copy approach by also migrating the page cache and reducing
locking overhead, and offers a throttled non-freezing mode for
latency-sensitive containers.  This subpackage models all three mechanisms
with cost models calibrated to Table 2:

* :class:`~repro.migration.engines.DefaultLinuxMigrator` — the stock kernel
  path: anonymous memory only (the page cache stays behind!),
  single-threaded, with per-task and per-process cpuset overhead that makes
  many-process containers (TPC-C) pathologically slow;
* :class:`~repro.migration.engines.FastMigrator` — the paper's method:
  parallel copy workers, page cache included, container frozen during the
  move (not suitable for latency-sensitive services);
* :class:`~repro.migration.engines.ThrottledMigrator` — the non-freezing
  variant: bandwidth-limited background copy whose throughput overhead is
  proportional to the bandwidth it steals.

:mod:`repro.migration.planner` turns the cost models into the decision
support Section 7 ends with: is online placement worth the migration cost
for this container, or should the placement be computed offline?
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "ContainerMemory": "repro.migration.memory",
    "MigrationEngine": "repro.migration.engines",
    "MigrationResult": "repro.migration.engines",
    "DefaultLinuxMigrator": "repro.migration.engines",
    "FastMigrator": "repro.migration.engines",
    "ThrottledMigrator": "repro.migration.engines",
    "MigrationCostConstants": "repro.migration.engines",
    "MigrationPlanner": "repro.migration.planner",
    "MigrationAdvice": "repro.migration.planner",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
