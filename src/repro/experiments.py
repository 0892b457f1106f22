"""Canonical experiment configuration shared by benchmarks and examples.

The paper evaluates with 16-vCPU containers on the AMD machine and 24-vCPU
containers on the Intel machine.  This module pins down the corpus seeds,
the training corpus shape, and the input pairs the automatic search selects
under those seeds, so every benchmark and example reproduces the same
trained configuration without re-running the (minutes-long) pair search.

Pass ``select_pair=True`` to :func:`fitted_model` to re-run the automatic
search instead of using the cached result — the Figure-4 benchmark does
this once to demonstrate the full pipeline.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.core.model import PlacementModel
from repro.core.training import TrainingSet, build_training_set
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.library import paper_workloads
from repro.perfsim.simulator import PerformanceSimulator
from repro.perfsim.workload import WorkloadProfile
from repro.topology.machine import MachineTopology

#: Container sizes used in the paper's evaluation.
PAPER_VCPUS: Dict[str, int] = {
    "amd-opteron-6272": 16,
    "intel-xeon-e7-4830-v3": 24,
}

#: Input pairs selected by PlacementModel's automatic search on the
#: canonical training corpus (seed 42).  0-based placement indices; the
#: first element is the baseline the predicted vectors are relative to.
#: Note the Intel pair contains placement #2 (index 1) — the same baseline
#: the paper used for its Intel figures.
CANONICAL_PAIRS: Dict[str, Tuple[int, int]] = {
    "amd-opteron-6272": (6, 12),
    "intel-xeon-e7-4830-v3": (1, 6),
}

#: Corpus shape for model training (dense coverage of the archetypes).
TRAINING_CORPUS_SEED = 42
TRAINING_CORPUS_SIZE = 128
TRAINING_CORPUS_JITTER = 0.3

#: Corpus shape for the behaviour-category analysis (Figure 3): a
#: paper-sized population of distinct workloads.
CLUSTERING_CORPUS_SIZE = 30
CLUSTERING_CORPUS_JITTER = 0.12


def paper_vcpus(machine: MachineTopology) -> int:
    """The paper's container size for this machine (16 on AMD, 24 on
    Intel); machines outside the paper default to half the threads."""
    if machine.name in PAPER_VCPUS:
        return PAPER_VCPUS[machine.name]
    return max(1, machine.total_threads // 2)


def training_corpus(
    *,
    seed: int = TRAINING_CORPUS_SEED,
    n_synthetic: int = TRAINING_CORPUS_SIZE,
    jitter: float = TRAINING_CORPUS_JITTER,
) -> List[WorkloadProfile]:
    """The 18 paper workloads plus the synthetic training population.

    The corpus is a pure function of its arguments and is sampled once
    per process (every model key of a fleet trains on the same one); each
    caller gets its own list of the shared, immutable profiles.
    """
    return list(_sampled_corpus(seed, n_synthetic, jitter))


@lru_cache(maxsize=8)
def _sampled_corpus(
    seed: int, n_synthetic: int, jitter: float
) -> Tuple[WorkloadProfile, ...]:
    generator = WorkloadGenerator(seed=seed, jitter=jitter)
    return tuple(paper_workloads() + generator.sample(n_synthetic))


def clustering_corpus(
    *,
    seed: int = TRAINING_CORPUS_SEED,
    n_synthetic: int = CLUSTERING_CORPUS_SIZE,
    jitter: float = CLUSTERING_CORPUS_JITTER,
) -> List[WorkloadProfile]:
    """A paper-sized workload population for the Figure-3 analysis."""
    generator = WorkloadGenerator(seed=seed, jitter=jitter)
    return paper_workloads() + generator.sample(n_synthetic)


def standard_training_set(
    machine: MachineTopology,
    *,
    vcpus: int | None = None,
    simulator: PerformanceSimulator | None = None,
    workloads: List[WorkloadProfile] | None = None,
) -> TrainingSet:
    """The canonical training set for a machine (used everywhere)."""
    if vcpus is None:
        vcpus = paper_vcpus(machine)
    if workloads is None:
        workloads = training_corpus()
    baseline = CANONICAL_PAIRS.get(machine.name, (0, 1))[0]
    return build_training_set(
        machine,
        vcpus,
        workloads,
        simulator=simulator,
        baseline_index=baseline,
    )


def fitted_model(
    machine: MachineTopology,
    training_set: TrainingSet | None = None,
    *,
    select_pair: bool = False,
    random_state: int = 0,
) -> Tuple[PlacementModel, TrainingSet]:
    """A trained placement model for a machine.

    With ``select_pair=False`` (default) the cached canonical input pair is
    used, making training take about a second.  With ``select_pair=True``
    the automatic cross-validated pair search runs (roughly a minute on the
    AMD machine's 13 placements).
    """
    if training_set is None:
        training_set = standard_training_set(machine)
    pair = None if select_pair else CANONICAL_PAIRS.get(machine.name)
    model = PlacementModel(input_pair=pair, random_state=random_state)
    model.fit(training_set)
    return model, training_set
