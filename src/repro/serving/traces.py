"""Trace collection: what the fleet observes about its own predictions.

The paper's model needs exactly two probe measurements per container plus
the realized performance — and a running fleet produces all three for free
on every placement it makes.  A :class:`PlacementObservation` is one such
record: the request, the placement the policy chose, the probe IPCs the
prediction consumed, the prediction itself, and the post-placement measured
performance the grader observed.  The :class:`TraceStore` keeps a bounded
window of them, partitioned per machine shape (each shape has its own
model chain, so drift detection and retraining read per-shape windows).

Nothing here decides anything; the store is the data plane the drift
monitor (:mod:`repro.serving.drift`) and retrainer
(:mod:`repro.serving.retrain`) consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Tuple

from repro.perfsim.workload import WorkloadProfile


@dataclass(frozen=True)
class PlacementObservation:
    """One closed prediction loop: what was predicted, what happened.

    ``predicted_relative`` and ``achieved_relative`` are both relative to
    the model's baseline placement, so ``|pred - actual| / actual`` is the
    live counterpart of the paper's evaluation MAPE.
    """

    #: Simulated time of the placement (event time, not wall clock).
    time: float
    request_id: int
    #: Machine-shape fingerprint of the chosen host (the partition key).
    fingerprint: Tuple
    vcpus: int
    profile: WorkloadProfile
    #: 1-based important-placement id the policy chose.
    placement_id: int
    #: The two probe observations the prediction consumed.
    probe_i: float
    probe_j: float
    #: The live model's prediction for the chosen placement.
    predicted_relative: float
    #: Post-placement measured performance (the grader's number).
    achieved_relative: float
    #: Version id of the model that made the prediction.
    model_version: int
    #: Whether the realized block matched the chosen placement's score
    #: (a mismatched block makes some prediction error expected).
    block_exact: bool = True

    @property
    def workload_name(self) -> str:
        return self.profile.name

    @property
    def error_fraction(self) -> float:
        """Absolute relative prediction error of this observation."""
        return abs(self.predicted_relative - self.achieved_relative) / abs(
            self.achieved_relative
        )

    def describe(self) -> str:
        return (
            f"t={self.time:9.2f}s req#{self.request_id} "
            f"{self.workload_name} x{self.vcpus} -> placement "
            f"#{self.placement_id} predicted {self.predicted_relative:.3f} "
            f"achieved {self.achieved_relative:.3f} "
            f"(v{self.model_version}, err {self.error_fraction:.1%})"
        )


class TraceStore:
    """Bounded, shape-partitioned buffer of placement observations.

    Parameters
    ----------
    capacity_per_partition:
        Observations kept per ``(fingerprint, vcpus)`` partition; the
        oldest fall off (a drifted fleet must not retrain on pre-drift
        traces forever, and an unbounded store would grow with stream
        length).
    """

    def __init__(self, *, capacity_per_partition: int = 512) -> None:
        if capacity_per_partition < 1:
            raise ValueError("capacity_per_partition must be >= 1")
        self.capacity_per_partition = capacity_per_partition
        self._partitions: Dict[Tuple, Deque[PlacementObservation]] = {}
        self._recorded = 0
        self._evicted = 0

    @staticmethod
    def partition_key(observation: PlacementObservation) -> Tuple:
        return (observation.fingerprint, observation.vcpus)

    def record(self, observation: PlacementObservation) -> None:
        key = self.partition_key(observation)
        partition = self._partitions.get(key)
        if partition is None:
            partition = deque(maxlen=self.capacity_per_partition)
            self._partitions[key] = partition
        if len(partition) == self.capacity_per_partition:
            self._evicted += 1
        partition.append(observation)
        self._recorded += 1

    # ------------------------------------------------------------------

    def recent(
        self, fingerprint: Tuple, vcpus: int, n: int | None = None
    ) -> List[PlacementObservation]:
        """The newest ``n`` observations of one partition (all when
        ``n`` is None), oldest first."""
        partition = self._partitions.get((fingerprint, int(vcpus)))
        if partition is None:
            return []
        if n is None or n >= len(partition):
            return list(partition)
        return list(partition)[len(partition) - n :]

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions.values())

    def __iter__(self) -> Iterator[PlacementObservation]:
        for partition in self._partitions.values():
            yield from partition

    @property
    def recorded(self) -> int:
        """Total observations ever recorded (evictions included)."""
        return self._recorded

    def describe(self) -> str:
        parts = ", ".join(
            f"{key[1]}-vCPU x{len(partition)}"
            for key, partition in self._partitions.items()
        )
        return (
            f"trace store: {len(self)} observations in "
            f"{len(self._partitions)} partition(s) [{parts}] "
            f"({self._recorded} recorded, {self._evicted} evicted)"
        )
