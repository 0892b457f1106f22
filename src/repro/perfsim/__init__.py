"""The simulated testbed.

Substitution note (DESIGN.md section 2): the paper measures real
applications (NAS, Parsec, Metis, BLAST, gcc, Spark, Postgres, WiredTiger)
in lxc containers on two physical machines.  This subpackage replaces that
testbed with an analytical performance simulator:

* a :class:`~repro.perfsim.workload.WorkloadProfile` captures the
  characteristics that drive placement sensitivity (working set, memory
  bandwidth demand, communication intensity and latency sensitivity, SMT
  affinity, cooperative sharing);
* :class:`~repro.perfsim.simulator.PerformanceSimulator` maps
  (profile, placement) to a throughput by composing the effect models in
  :mod:`repro.perfsim.effects` — SMT/module sharing, L3 capacity, DRAM
  bandwidth saturation, interconnect saturation, and communication latency —
  plus deterministic measurement noise;
* :mod:`repro.perfsim.hpe` synthesizes hardware performance events with the
  crucial property the paper observed on real PMUs: events measured in a
  single placement cannot identify latency sensitivity or cooperative
  sharing, which is why the HPE model underperforms;
* :mod:`repro.perfsim.library` ships calibrated profiles for the paper's 18
  workloads; :mod:`repro.perfsim.generator` samples random workloads around
  six behavioural archetypes for training corpora.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "WorkloadProfile": "repro.perfsim.workload",
    "MachineCalibration": "repro.perfsim.calibration",
    "calibration_for": "repro.perfsim.calibration",
    "PerformanceSimulator": "repro.perfsim.simulator",
    "ContainerRun": "repro.perfsim.simulator",
    "HpeDefinition": "repro.perfsim.hpe",
    "HpeMonitor": "repro.perfsim.hpe",
    "hpe_names_for": "repro.perfsim.hpe",
    "paper_workloads": "repro.perfsim.library",
    "workload_by_name": "repro.perfsim.library",
    "WorkloadGenerator": "repro.perfsim.generator",
    "ARCHETYPES": "repro.perfsim.generator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
