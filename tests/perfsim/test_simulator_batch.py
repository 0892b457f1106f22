"""Batched simulator kernels vs the scalar loops: bit-for-bit equality.

The batched kernels are the training-data hot path (every corpus build,
every retrain; a memo miss is one scalar cell); the scalar methods stay the
reference semantics.  Everything here asserts exact equality — the batched path must
produce the same floats, or models trained before and after the rewrite
would silently diverge.  (The co-located path is the exception: it sums
its factors in another order, so it agrees with the solo path to rounding.)
"""

import numpy as np
import pytest

from repro.core.enumeration import enumerate_important_placements
from repro.core.placements import Placement
from repro.core.training import build_training_set, extend_training_set
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.library import paper_workloads, workload_by_name
from repro.perfsim.simulator import PerformanceSimulator
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from tests.perfsim.oracle_noise import noise_multiplier


@pytest.fixture(scope="module", params=["amd", "intel"])
def sim(request):
    machine = (
        amd_opteron_6272() if request.param == "amd"
        else intel_xeon_e7_4830_v3()
    )
    return PerformanceSimulator(machine, seed=7)


@pytest.fixture(scope="module")
def profiles(sim):
    generated = WorkloadGenerator(seed=5).sample(6)
    return paper_workloads()[:10] + generated


@pytest.fixture(scope="module")
def placements(sim):
    return list(enumerate_important_placements(sim.machine, 16))


def throughput_grid(sim, profiles, placements, *, noise, repetition):
    """``throughput`` of every (profile, placement) cell, built from one
    :meth:`breakdown_batch` grid: ``ipc_base * vcpus`` times each factor,
    in the scalar path's order, times the cell's noise draw."""
    grid = sim.breakdown_batch(profiles, placements)
    values = np.empty((len(profiles), len(placements)))
    for row, profile in enumerate(profiles):
        for col, placement in enumerate(placements):
            value = profile.ipc_base * placement.vcpus
            for factor in grid.values():
                value *= factor[row, col]
            if noise:
                value *= noise_multiplier(
                    sim, profile, placement, 10.0, repetition
                )
            values[row, col] = value
    return values


class TestGridKernels:
    def test_breakdown_batch_matches_scalar_cells(self, sim, profiles, placements):
        grid = sim.breakdown_batch(profiles, placements)
        for row, profile in enumerate(profiles):
            for col, placement in enumerate(placements):
                scalar = sim.breakdown(profile, placement)
                for name, value in scalar.items():
                    assert grid[name][row, col] == value, (
                        f"{name} diverged for ({profile.name}, {placement})"
                    )

    @pytest.mark.parametrize("noise", [False, True])
    def test_measured_ipc_batch(self, sim, profiles, placements, noise):
        grid = sim.measured_ipc_batch(
            profiles, placements, noise=noise, repetition=3
        )
        reference = np.array(
            [
                [
                    sim.measured_ipc(p, pl, noise=noise, repetition=3)
                    for pl in placements
                ]
                for p in profiles
            ]
        )
        assert np.array_equal(grid, reference)

    @pytest.mark.parametrize("noise", [False, True])
    def test_throughput_batch(self, sim, profiles, placements, noise):
        grid = throughput_grid(
            sim, profiles, placements, noise=noise, repetition=1
        )
        reference = np.array(
            [
                [
                    sim.throughput(p, pl, noise=noise, repetition=1)
                    for pl in placements
                ]
                for p in profiles
            ]
        )
        assert np.array_equal(grid, reference)

    def test_performance_vector_batch_rows(self, sim, profiles, placements):
        """Each row of the noise-free grid, over its baseline column, is
        that profile's relative performance vector (the model's target)."""
        grid = throughput_grid(
            sim, profiles, placements, noise=False, repetition=0
        )
        matrix = grid / grid[:, 1:2]
        for row, profile in enumerate(profiles):
            vector = np.array(
                [sim.throughput(profile, pl, noise=False) for pl in placements]
            )
            assert np.array_equal(matrix[row], vector / vector[1])

    def test_placement_arrays_cache_bounded(self, sim, placements):
        sim._placement_arrays_cache.clear()
        first = sim._placement_arrays(placements)
        assert sim._placement_arrays(placements) is first  # memoized
        machine = sim.machine
        for k in range(20):  # push past the bound
            sim._placement_arrays([Placement(machine, [k % machine.n_nodes], 1)])
        assert len(sim._placement_arrays_cache) <= 16

    def test_placement_arrays_cache_drops_only_the_least_recent(self, sim):
        cache = sim._placement_arrays_cache
        cache.clear()
        machine = sim.machine
        lists = [
            [Placement(machine, [node], 1)] * repeat
            for repeat in range(1, 6)
            for node in range(machine.n_nodes)
        ][:17]
        kept = [sim._placement_arrays(placements) for placements in lists[:16]]
        # Asked for again, the oldest list becomes the most recent, and
        # the second one the least recently used.
        assert sim._placement_arrays(lists[0]) is kept[0]
        sim._placement_arrays(lists[16])  # the 17th key
        assert len(cache) == 16
        assert tuple(lists[1]) not in cache
        for placements, arrays in zip(lists, kept):
            if placements is not lists[1]:
                assert cache[tuple(placements)] is arrays

    def test_validation(self, sim, profiles):
        with pytest.raises(ValueError):
            sim.breakdown_batch(profiles, [])
        with pytest.raises(ValueError):
            sim.breakdown_batch([], [Placement(sim.machine, [0], 4)])


class TestColocatedBatch:
    """``simulate_colocated`` takes a batch of (profile, placement)
    assignments; a batch of one is the solo scalar path."""

    def _scenarios(self, machine):
        w1 = workload_by_name("gcc")
        w2 = workload_by_name("WTbtree")
        w3 = workload_by_name("kmeans")
        a = Placement(machine, [0, 1], 8)
        b = Placement(machine, range(4), 8)
        c = Placement(machine, [0], 4)
        d = Placement.balanced(machine, [1], 8, use_smt=True)
        return [
            [(w1, a)],
            [(w1, a), (w2, b)],
            [(w1, a), (w2, b), (w3, c)],
            [(w1, c), (w2, c), (w3, d), (w1, d)],
            [(w2, b)] * 3,
        ]

    @pytest.mark.parametrize("noise", [False, True])
    def test_matches_scalar(self, sim, noise):
        for assignments in self._scenarios(sim.machine):
            for profile, placement in assignments:
                (alone,) = sim.simulate_colocated(
                    [(profile, placement)], noise=noise, repetition=2
                )
                reference = sim.throughput(
                    profile, placement, noise=noise, repetition=2
                )
                assert alone == pytest.approx(reference, rel=1e-12, abs=0)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            sim.simulate_colocated([])
        other = (
            intel_xeon_e7_4830_v3()
            if sim.machine.name == amd_opteron_6272().name
            else amd_opteron_6272()
        )
        foreign = Placement(other, [0], 4)
        with pytest.raises(ValueError, match="simulator models"):
            sim.simulate_colocated([(workload_by_name("gcc"), foreign)])


class TestTrainingSetOnBatchedKernels:
    """The corpus builders run on the batched kernels now; their output
    must be unchanged down to the last bit."""

    def test_build_training_set_matches_cellwise_simulation(self):
        machine = amd_opteron_6272()
        simulator = PerformanceSimulator(machine, seed=2)
        corpus = paper_workloads()[:6]
        ts = build_training_set(machine, 16, corpus, simulator=simulator)
        reference = np.array(
            [
                [
                    simulator.measured_ipc(p, pl, noise=True, repetition=0)
                    for pl in ts.placements
                ]
                for p in corpus
            ]
        )
        assert np.array_equal(ts.ipc, reference)

    def test_extend_training_set_matches_cellwise_simulation(self):
        machine = amd_opteron_6272()
        simulator = PerformanceSimulator(machine, seed=2)
        corpus = paper_workloads()
        ts = build_training_set(machine, 16, corpus[:5], simulator=simulator)
        extended = extend_training_set(
            ts, corpus[3:8], simulator=simulator
        )
        assert extended.names == [w.name for w in corpus[:8]]
        reference = np.array(
            [
                [
                    simulator.measured_ipc(p, pl, noise=True, repetition=0)
                    for pl in ts.placements
                ]
                for p in corpus[5:8]
            ]
        )
        assert np.array_equal(extended.ipc[5:], reference)
