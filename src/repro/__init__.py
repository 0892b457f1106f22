"""repro — reproduction of Funston et al., "Placement of Virtual Containers
on NUMA systems: A Practical and Comprehensive Model" (USENIX ATC 2018).

The library is organized one subpackage per subsystem:

* :mod:`repro.topology` — NUMA machine models (nodes, cache groups,
  asymmetric interconnects), the two paper machines as calibrated presets,
  sysfs-style serialization, and the STREAM-like bandwidth probe.
* :mod:`repro.core` — the paper's contribution: scheduling concerns,
  important-placement enumeration (Algorithms 1-3), the two-observation
  performance model and its HPE baseline, behaviour clustering, the four
  packing policies, the interleaving extension, and the end-to-end
  scheduler.
* :mod:`repro.ml` — from-scratch ML substrate (multi-output random forest,
  k-means/silhouette, forward selection, successive halving, CV).
* :mod:`repro.perfsim` — the simulated testbed: workload profiles, the
  placement performance simulator, synthetic hardware performance events,
  the paper's 18 workloads, and the synthetic-corpus generator.
* :mod:`repro.migration` — container memory-migration engines and cost
  models (Table 2), plus the online-vs-offline planner.
* :mod:`repro.containers` — virtual containers and the simulated host.
* :mod:`repro.scheduler` — the fleet layer: request streams, simulated
  host fleets, pluggable placement policies (first-fit, spread, goal-aware
  ML), and the batched/memoized fleet scheduler.
* :mod:`repro.experiments` — the canonical trained configurations shared
  by benchmarks and examples.
* :mod:`repro.cli` — ``python -m repro`` command-line front-end.

Quickstart
----------
>>> from repro import amd_opteron_6272, important_placements
>>> machine = amd_opteron_6272()
>>> len(important_placements(machine, vcpus=16))
13
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Public name -> the subpackage that re-exports it (whose own table
#: names the defining module), imported on first read.
_EXPORTS = {
    **dict.fromkeys(
        (
            "MachineTopology",
            "TopologyBuilder",
            "Interconnect",
            "amd_opteron_6272",
            "intel_xeon_e7_4830_v3",
            "amd_epyc_zen",
            "intel_haswell_cod",
        ),
        "repro.topology",
    ),
    **dict.fromkeys(
        (
            "SchedulingConcern",
            "CountingConcern",
            "BandwidthConcern",
            "ConcernSet",
            "concerns_for",
            "Placement",
            "ScoreVector",
            "important_placements",
            "enumerate_important_placements",
            "cached_enumerate_important_placements",
            "EnumerationCache",
            "PlacementModel",
            "HpeModel",
            "PlacementScheduler",
        ),
        "repro.core",
    ),
    **dict.fromkeys(
        (
            "Fleet",
            "FirstFitFleetPolicy",
            "SpreadFleetPolicy",
            "GoalAwareFleetPolicy",
            "ModelRegistry",
            "PlacementRequest",
            "generate_request_stream",
        ),
        "repro.scheduler",
    ),
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
