"""Machine topology substrate.

This subpackage models the hardware that the paper's methodology consumes:
NUMA nodes, hardware threads, the cache-sharing hierarchy (L2 groups, L3
groups), and the cross-node interconnect with per-link bandwidths.

The paper ran on two physical machines (a quad AMD Opteron 6272 and a quad
Intel Xeon E7-4830 v3).  We do not have that hardware, so
:mod:`repro.topology.presets` ships faithful *models* of both machines,
calibrated so that every structural statement in Section 4 of the paper holds
(see ``DESIGN.md`` for the calibration targets).
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "Interconnect": "repro.topology.interconnect",
    "Link": "repro.topology.interconnect",
    "MachineTopology": "repro.topology.machine",
    "TopologyBuilder": "repro.topology.builder",
    "PRESETS": "repro.topology.presets",
    "amd_opteron_6272": "repro.topology.presets",
    "intel_xeon_e7_4830_v3": "repro.topology.presets",
    "amd_epyc_zen": "repro.topology.presets",
    "intel_haswell_cod": "repro.topology.presets",
    "StreamProbe": "repro.topology.stream",
    "build_bandwidth_table": "repro.topology.stream",
    "machine_to_sysfs": "repro.topology.sysfs",
    "machine_from_sysfs": "repro.topology.sysfs",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
