"""Training-set assembly and per-application cross-validation (Section 6).

A training set row is one workload "executed" in every important placement:
its measured IPC per placement, the derived relative performance vector, and
the HPE values observed in the evaluation baseline placement.  The paper's
evaluation is *per-application cross-validated*: predicting a workload must
not use any run of that workload — or of its siblings (neither spark-cc nor
spark-pr-lj may inform a Spark prediction) — during training.
:func:`workload_family` encodes that grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.enumeration import (
    ImportantPlacementSet,
    enumerate_important_placements,
)
from repro.perfsim.hpe import HpeMonitor
from repro.perfsim.simulator import PerformanceSimulator
from repro.perfsim.workload import WorkloadProfile
from repro.topology.machine import MachineTopology


def workload_family(name: str) -> str:
    """Cross-validation group of a workload.

    Workloads that share an application (the two Spark jobs, the two
    Postgres benchmarks) are one family; synthetic workloads group by their
    archetype so sibling samples cannot leak either.
    """
    if name.startswith("spark-"):
        return "spark"
    if name.startswith("postgres-"):
        return "postgres"
    if name.startswith("synthetic-"):
        # synthetic-<archetype>-0001 -> synthetic-<archetype>
        return name.rsplit("-", 1)[0]
    return name


@dataclass
class TrainingSet:
    """Measured executions of a workload corpus across important placements.

    Attributes
    ----------
    placements:
        The important placements (columns of all matrices).
    workloads:
        Profiles, one per row.
    ipc:
        Measured IPC per (workload, placement).
    vectors:
        Relative performance per (workload, placement), normalized to
        ``baseline_index`` (the model's target).
    hpe_features:
        HPE values measured in the baseline placement, aligned with
        ``hpe_names``.
    baseline_index:
        Column the vectors are normalized to.
    """

    machine: MachineTopology
    placements: ImportantPlacementSet
    workloads: List[WorkloadProfile]
    ipc: np.ndarray
    vectors: np.ndarray
    hpe_features: np.ndarray
    hpe_names: List[str]
    baseline_index: int

    def __post_init__(self) -> None:
        n, k = self.ipc.shape
        if len(self.workloads) != n:
            raise ValueError("workload count does not match matrix rows")
        if k != len(self.placements):
            raise ValueError("placement count does not match matrix columns")
        if self.vectors.shape != (n, k):
            raise ValueError("vectors shape mismatch")
        if self.hpe_features.shape[0] != n:
            raise ValueError("hpe_features row mismatch")
        if not 0 <= self.baseline_index < k:
            raise ValueError("baseline_index out of range")

    @property
    def names(self) -> List[str]:
        return [w.name for w in self.workloads]

    @property
    def families(self) -> List[str]:
        return [workload_family(w.name) for w in self.workloads]

    def __len__(self) -> int:
        return len(self.workloads)

    @property
    def n_placements(self) -> int:
        return len(self.placements)

    def subset(self, rows: Sequence[int]) -> "TrainingSet":
        """A new training set restricted to the given rows."""
        rows = list(rows)
        return TrainingSet(
            machine=self.machine,
            placements=self.placements,
            workloads=[self.workloads[i] for i in rows],
            ipc=self.ipc[rows],
            vectors=self.vectors[rows],
            hpe_features=self.hpe_features[rows],
            hpe_names=self.hpe_names,
            baseline_index=self.baseline_index,
        )


def build_training_set(
    machine: MachineTopology,
    vcpus: int,
    workloads: Sequence[WorkloadProfile],
    *,
    simulator: PerformanceSimulator | None = None,
    placements: ImportantPlacementSet | None = None,
    baseline_index: int = 0,
    noise: bool = True,
    repetition: int = 0,
) -> TrainingSet:
    """Run every workload in every important placement and collect the
    matrices the models train on.

    On real hardware this is the expensive step the paper's methodology
    minimizes (each row is one run per important placement — a couple dozen
    runs, not billions); on the simulator it is instant.
    """
    if not workloads:
        raise ValueError("workloads must not be empty")
    if simulator is None:
        simulator = PerformanceSimulator(machine)
    if placements is None:
        placements = enumerate_important_placements(machine, vcpus)
    monitor = HpeMonitor(simulator)

    # The whole (workload x placement) IPC matrix in one vectorized
    # simulator pass — bit-for-bit what the per-cell measured_ipc loop
    # produced, so models trained before and after the batched kernels
    # are identical.
    ipc = simulator.measured_ipc_batch(
        list(workloads), list(placements), noise=noise, repetition=repetition
    )
    vectors = ipc / ipc[:, baseline_index : baseline_index + 1]

    baseline_placement = placements[baseline_index]
    hpe_rows = []
    for profile in workloads:
        values = monitor.measure(
            profile, baseline_placement, repetition=repetition
        )
        hpe_rows.append([values[name] for name in monitor.event_names])

    return TrainingSet(
        machine=machine,
        placements=placements,
        workloads=list(workloads),
        ipc=ipc,
        vectors=vectors,
        hpe_features=np.asarray(hpe_rows),
        hpe_names=list(monitor.event_names),
        baseline_index=baseline_index,
    )


def extend_training_set(
    base: TrainingSet,
    new_workloads: Sequence[WorkloadProfile],
    *,
    simulator: PerformanceSimulator | None = None,
    noise: bool = True,
    repetition: int = 0,
) -> TrainingSet:
    """Warm-start corpus growth: simulate *only* the new rows and append.

    The online retraining loop (:mod:`repro.serving.retrain`) folds freshly
    observed workloads into an existing corpus.  Re-running
    :func:`build_training_set` on the union would re-simulate every old row
    per retrain; this appends new rows to the existing matrices instead, so
    a retrain costs ``len(new_workloads) x len(placements)`` simulator runs
    however large the accumulated corpus is.  Workloads whose *name* is
    already in the base set are skipped (an arrival stream repeats
    profiles; duplicated rows would just re-weight them).
    """
    existing = set(base.names)
    fresh = [w for w in new_workloads if w.name not in existing]
    if not fresh:
        return base
    if simulator is None:
        simulator = PerformanceSimulator(base.machine)
    placements = base.placements
    monitor = HpeMonitor(simulator)

    # Only the fresh rows are simulated, and all of them in one batched
    # kernel call — the per-retrain cost every serving-loop round pays.
    ipc_rows = simulator.measured_ipc_batch(
        fresh, list(placements), noise=noise, repetition=repetition
    )
    hpe_rows = []
    for profile in fresh:
        values = monitor.measure(
            profile, placements[base.baseline_index], repetition=repetition
        )
        hpe_rows.append([values[name] for name in base.hpe_names])

    ipc = np.vstack([base.ipc, ipc_rows])
    return TrainingSet(
        machine=base.machine,
        placements=placements,
        workloads=list(base.workloads) + fresh,
        ipc=ipc,
        vectors=ipc / ipc[:, base.baseline_index : base.baseline_index + 1],
        hpe_features=np.vstack([base.hpe_features, np.asarray(hpe_rows)]),
        hpe_names=list(base.hpe_names),
        baseline_index=base.baseline_index,
    )


@dataclass
class FoldResult:
    """Cross-validation result for one held-out workload."""

    name: str
    family: str
    actual: np.ndarray
    predicted: np.ndarray

    @property
    def mape(self) -> float:
        """Mean absolute relative error over placements, in percent."""
        return float(
            (np.abs(self.predicted - self.actual) / np.abs(self.actual)).mean()
            * 100.0
        )


def leave_one_workload_out(
    model_factory,
    training_set: TrainingSet,
    *,
    evaluate_names: Sequence[str] | None = None,
) -> List[FoldResult]:
    """Per-application cross-validation (Section 6).

    For each evaluated workload, a fresh model from ``model_factory`` is
    fitted on every row whose *family* differs, then asked to predict the
    held-out row.  ``evaluate_names`` restricts which workloads are scored
    (e.g. only the 18 paper workloads when the corpus also contains
    synthetic training rows).
    """
    families = np.asarray(training_set.families)
    names = training_set.names
    wanted = set(evaluate_names) if evaluate_names is not None else set(names)
    unknown = wanted - set(names)
    if unknown:
        raise ValueError(f"evaluate_names not in training set: {sorted(unknown)}")

    results: List[FoldResult] = []
    for row, name in enumerate(names):
        if name not in wanted:
            continue
        family = families[row]
        train_rows = [i for i in range(len(names)) if families[i] != family]
        if not train_rows:
            raise ValueError(
                f"workload {name} has no out-of-family training data"
            )
        model = model_factory()
        model.fit(training_set.subset(train_rows))
        predicted = model.predict_row(training_set, row)
        actual = model.actual_row(training_set, row)
        results.append(
            FoldResult(
                name=name, family=family, actual=actual, predicted=predicted
            )
        )
    return results
