"""Workload characteristic profiles.

A profile is the simulator's stand-in for a real application binary: the
handful of latent characteristics that determine how the workload responds
to vCPU placement.  The first group drives the performance model; the second
group (memory footprint, page-cache share, task count) drives the memory-
migration cost model of Table 2.

Two characteristics are deliberately *invisible* to the synthetic hardware
performance events (:mod:`repro.perfsim.hpe`): ``comm_latency_sensitivity``
and ``shared_fraction``.  Section 6 of the paper argues that real PMU events
observed in a single placement cannot separate communication-latency
sensitivity from plain memory intensity, nor predict whether a working set
fits a different number of L3 caches — these hidden characteristics are our
model of that observation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Dict, Tuple


@dataclass(frozen=True)
class WorkloadProfile:
    """Characteristics of one containerized workload.

    Performance-model characteristics
    ---------------------------------
    ipc_base:
        Per-vCPU throughput (operations per second, arbitrary application
        units) in ideal conditions: private core, working set in cache.
    working_set_mb:
        Aggregate hot working set competing for L3 capacity.
    shared_fraction:
        Fraction of the working set shared by all threads.  Shared data is
        replicated in every L3 the workload spans, so a high value removes
        the capacity benefit of more caches and rewards consolidation
        (cooperative sharing, Section 1).
    cache_sensitivity:
        Throughput fraction lost when the working set entirely misses L3.
    membw_per_vcpu:
        DRAM bandwidth demand per vCPU (MB/s) when misses are at 100%.
    numa_locality:
        Fraction of DRAM traffic served by the local node (first-touch
        locality); the rest crosses the interconnect.
    comm_intensity:
        How much of the workload is inter-thread communication, in [0, 1].
    comm_latency_sensitivity:
        How strongly communication cost follows latency rather than
        bandwidth, in [0, 1].  *Hidden from HPEs.*
    comm_bytes_per_vcpu:
        Cross-thread traffic per vCPU (MB/s) at full speed.
    smt_affinity:
        Workload adjustment to the machine's baseline SMT efficiency in
        [-1, 1]: negative for workloads that fight over the shared pipeline
        (FP-heavy on CMT modules), positive for cooperative ones (the
        paper's kmeans was the only SMT-preferring benchmark).
    phase_noise:
        Relative run-to-run noise of measured throughput.

    Migration-model characteristics (Table 2)
    -----------------------------------------
    memory_gb:
        Total container memory including page cache.
    page_cache_fraction:
        Share of ``memory_gb`` that is page cache (93% for BLAST, 75% for
        TPC-C, 62% for TPC-H in the paper).
    n_tasks:
        Linux tasks (threads + processes) in the container; default Linux
        migration pays a per-task cpuset cost (ruinous for TPC-C).
    n_processes:
        Distinct processes (address spaces).  Each one costs default Linux a
        separate page-table walk and cpuset update during migration, and
        costs the fast migrator coordination overhead.
    metric_name:
        Human-readable unit of the reported metric.
    """

    name: str
    ipc_base: float = 1.0
    working_set_mb: float = 64.0
    shared_fraction: float = 0.3
    cache_sensitivity: float = 0.5
    membw_per_vcpu: float = 400.0
    numa_locality: float = 0.2
    comm_intensity: float = 0.2
    comm_latency_sensitivity: float = 0.3
    comm_bytes_per_vcpu: float = 80.0
    smt_affinity: float = 0.0
    phase_noise: float = 0.01
    memory_gb: float = 1.0
    page_cache_fraction: float = 0.1
    n_tasks: int = 16
    n_processes: int = 1
    metric_name: str = "ops/s"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload name must not be empty")
        if self.ipc_base <= 0:
            raise ValueError("ipc_base must be positive")
        if self.working_set_mb <= 0:
            raise ValueError("working_set_mb must be positive")
        for field_name in (
            "shared_fraction",
            "cache_sensitivity",
            "numa_locality",
            "comm_intensity",
            "comm_latency_sensitivity",
            "page_cache_fraction",
        ):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")
        if not -1.0 <= self.smt_affinity <= 1.0:
            raise ValueError(
                f"smt_affinity must be in [-1, 1], got {self.smt_affinity}"
            )
        if self.membw_per_vcpu < 0 or self.comm_bytes_per_vcpu < 0:
            raise ValueError("bandwidth demands must be non-negative")
        if self.phase_noise < 0:
            raise ValueError("phase_noise must be >= 0")
        if self.memory_gb <= 0:
            raise ValueError("memory_gb must be positive")
        if self.n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if not 1 <= self.n_processes <= self.n_tasks:
            raise ValueError(
                "n_processes must be in [1, n_tasks]: every process is a task"
            )

    def with_overrides(self, **overrides) -> "WorkloadProfile":
        """A copy with some characteristics replaced (used by the workload
        generator and by what-if examples)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Identity: computed once per object
    # ------------------------------------------------------------------

    def row(self) -> Tuple:
        """The declared fields in declaration order: the profile's wire
        row (``WorkloadProfile(*row)`` rebuilds an equal profile) and the
        tuple its hash is taken over.

        Built on first use and kept — every field is frozen.  The two
        caches live beside the fields in ``__dict__`` and are
        process-local: a copy made by ``replace`` or by pickling is
        rebuilt from the row alone and starts without them.
        """
        try:
            return self._row
        except AttributeError:
            # Frozen dataclasses still own a plain __dict__; writing to
            # it does not trip the freeze (as MachineTopology does).
            self.__dict__["_row"] = row = _declared_fields(self)
            return row

    def __hash__(self) -> int:
        # The hash the dataclass would generate, taken once: a profile is
        # the inner key of every noise-free IPC memo row, looked up
        # several times per arrival.
        try:
            return self._hash
        except AttributeError:
            self.__dict__["_hash"] = value = hash(self.row())
            return value

    def __reduce__(self):
        # String hashes are salted per process: the cached hash must
        # never cross one (and the cached row need not).
        return (WorkloadProfile, self.row())

    @property
    def anonymous_gb(self) -> float:
        """Process memory excluding the page cache."""
        return self.memory_gb * (1.0 - self.page_cache_fraction)

    @property
    def page_cache_gb(self) -> float:
        return self.memory_gb * self.page_cache_fraction

    def as_dict(self) -> Dict[str, float | int | str]:
        """Flat dictionary (tabular reports, and the wire format:
        ``WorkloadProfile(**d)`` / :meth:`from_dict` reconstructs an equal
        profile — every field is a JSON-safe scalar)."""
        return dict(zip(PROFILE_FIELDS, self.row()))

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkloadProfile":
        """Inverse of :meth:`as_dict` (validation re-runs in __init__)."""
        return cls(**data)


#: Declared field names, in row order.
PROFILE_FIELDS = tuple(f.name for f in fields(WorkloadProfile))
#: One C-level pass over the declared fields.
_declared_fields = attrgetter(*PROFILE_FIELDS)
