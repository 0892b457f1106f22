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
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.enumeration import (
    ImportantPlacementSet,
    enumerate_important_placements,
)
from repro.core.placements import Placement
from repro.perfsim.simulator import PerformanceSimulator
from repro.perfsim.workload import WorkloadProfile
from repro.topology.machine import MachineTopology

#: HPE rows not yet measured: ``workloads`` run on ``simulator`` in
#: ``placement`` at ``repetition``.
HpeRun = Tuple[PerformanceSimulator, Placement, Sequence[WorkloadProfile], int]


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
        ``hpe_names``.  Only the HPE baseline reads them, so a set built
        by :func:`build_training_set`, or extended from an unread one by
        :func:`extend_training_set`, measures both the first time either
        is read; each row is seeded per (profile, placement, repetition),
        so the values do not depend on when that happens.
    baseline_index:
        Column the vectors are normalized to.

    Pass either ``hpe_features`` and ``hpe_names``, or ``hpe_runs``: the
    ``(simulator, placement, workloads, repetition)`` runs whose rows,
    stacked in order, are the set's HPE matrix, measured once, on first
    read.
    """

    def __init__(
        self,
        machine: MachineTopology,
        placements: ImportantPlacementSet,
        workloads: List[WorkloadProfile],
        ipc: np.ndarray,
        vectors: np.ndarray,
        *,
        baseline_index: int,
        hpe_features: np.ndarray | None = None,
        hpe_names: List[str] | None = None,
        hpe_runs: Tuple[HpeRun, ...] | None = None,
    ) -> None:
        self.machine = machine
        self.placements = placements
        self.workloads = workloads
        self.ipc = ipc
        self.vectors = vectors
        self.baseline_index = baseline_index
        n, k = ipc.shape
        if len(workloads) != n:
            raise ValueError("workload count does not match matrix rows")
        if k != len(placements):
            raise ValueError("placement count does not match matrix columns")
        if vectors.shape != (n, k):
            raise ValueError("vectors shape mismatch")
        if (hpe_runs is None) == (hpe_features is None or hpe_names is None):
            raise ValueError("pass hpe_features and hpe_names, or hpe_runs")
        if hpe_features is not None and hpe_features.shape[0] != n:
            raise ValueError("hpe_features row mismatch")
        if not 0 <= baseline_index < k:
            raise ValueError("baseline_index out of range")
        self._hpe_features = hpe_features
        self._hpe_names = hpe_names
        self._hpe_runs = hpe_runs
        self._sealed = False

    @property
    def hpe_features(self) -> np.ndarray:
        if self._hpe_runs is not None:
            self._measure()
        return self._hpe_features

    @property
    def hpe_names(self) -> List[str]:
        if self._hpe_runs is not None:
            self._measure()
        return self._hpe_names

    def _measure(self) -> None:
        blocks, names = [], None
        for simulator, placement, workloads, repetition in self._hpe_runs:
            rows, names = _measure_hpe(
                simulator, placement, workloads, repetition, names
            )
            blocks.append(rows)
        self._hpe_features, self._hpe_names = np.vstack(blocks), names
        self._hpe_runs = None
        if self._sealed:
            self._hpe_features.flags.writeable = False

    def seal(self) -> None:
        """Make the matrices read-only, the HPE matrix once it is measured."""
        self._sealed = True
        for array in (self.ipc, self.vectors, self._hpe_features):
            if array is not None:
                array.flags.writeable = False

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


def _measure_hpe(
    simulator: PerformanceSimulator,
    placement: Placement,
    workloads: Sequence[WorkloadProfile],
    repetition: int,
    names: Sequence[str] | None = None,
) -> Tuple[np.ndarray, List[str]]:
    """One HPE row per workload measured in ``placement``, its columns in
    ``names`` order (the machine's event catalog when None)."""
    from repro.perfsim.hpe import HpeMonitor  # only the HPE baseline reads it

    monitor = HpeMonitor(simulator)
    names = list(monitor.event_names if names is None else names)
    rows = []
    for profile in workloads:
        values = monitor.measure(profile, placement, repetition=repetition)
        rows.append([values[name] for name in names])
    return np.asarray(rows), names


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
    matrices the models train on (the HPE rows on first read).

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
    workloads = list(workloads)

    # The whole (workload x placement) IPC matrix in one vectorized
    # simulator pass — bit-for-bit what the per-cell measured_ipc loop
    # produced, so models trained before and after the batched kernels
    # are identical.
    ipc = simulator.measured_ipc_batch(
        workloads, list(placements), noise=noise, repetition=repetition
    )
    return TrainingSet(
        machine=machine,
        placements=placements,
        workloads=workloads,
        ipc=ipc,
        vectors=ipc / ipc[:, baseline_index : baseline_index + 1],
        baseline_index=baseline_index,
        hpe_runs=((simulator, placements[baseline_index], workloads, repetition),),
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
    profiles; duplicated rows would just re-weight them).  The HPE rows of
    the fresh workloads are measured now only if ``base`` has read its
    own; otherwise both wait for the extension's first read.
    """
    existing = set(base.names)
    fresh = [w for w in new_workloads if w.name not in existing]
    if not fresh:
        return base
    if simulator is None:
        simulator = PerformanceSimulator(base.machine)
    placements = base.placements

    # Only the fresh rows are simulated, and all of them in one batched
    # kernel call — the per-retrain cost every serving-loop round pays.
    ipc_rows = simulator.measured_ipc_batch(
        fresh, list(placements), noise=noise, repetition=repetition
    )
    run = (simulator, placements[base.baseline_index], fresh, repetition)
    if base._hpe_runs is not None:
        # Neither set has read its HPE rows: the extension measures the
        # base's runs and its own on first read (retraining never does).
        hpe = dict(hpe_runs=base._hpe_runs + (run,))
    else:
        hpe_rows, hpe_names = _measure_hpe(*run, base.hpe_names)
        hpe = dict(
            hpe_features=np.vstack([base.hpe_features, hpe_rows]),
            hpe_names=hpe_names,
        )

    ipc = np.vstack([base.ipc, ipc_rows])
    return TrainingSet(
        machine=base.machine,
        placements=placements,
        workloads=list(base.workloads) + fresh,
        ipc=ipc,
        vectors=ipc / ipc[:, base.baseline_index : base.baseline_index + 1],
        baseline_index=base.baseline_index,
        **hpe,
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
