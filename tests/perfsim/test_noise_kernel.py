"""The batched seed kernel is ``default_rng(seed).standard_normal()``, bit
for bit, and every noisy path of the simulator still draws exactly what
one generator per draw (``oracle_noise.py``) gives."""

from __future__ import annotations

import inspect
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import paper_vcpus
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.library import paper_workloads
from repro.perfsim.noise import seed_states, standard_normals
from repro.perfsim.simulator import (
    MEASURED_IPC_NOISE,
    NoiseBatch,
    PerformanceSimulator,
)
from repro.scheduler import Fleet, GoalAwareFleetPolicy, ModelRegistry
from repro.scheduler.requests import generate_request_stream
from repro.topology.presets import PRESETS
from tests.perfsim.oracle_noise import noise_multiplier, probe_multipliers

_SEEDS = st.integers(0, 2**32 - 1)


def _oracle(seeds):
    return [np.random.default_rng(seed).standard_normal() for seed in seeds]


class TestKernel:
    def test_a_hundred_thousand_random_seeds(self):
        rng = random.Random(29)
        seeds = [rng.randrange(2**32) for _ in range(100_000)]
        for start in range(0, len(seeds), 1000):
            chunk = seeds[start : start + 1000]
            assert standard_normals(chunk) == _oracle(chunk)

    def test_edge_seeds(self):
        seeds = [0, 1, 2**31, 2**32 - 1]
        assert standard_normals(seeds) == _oracle(seeds)
        states = seed_states(seeds)
        assert states.flags["C_CONTIGUOUS"] and states.dtype == np.uint64
        for seed, row in zip(seeds, states):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()

    @pytest.mark.parametrize("rows", range(1, 71))
    def test_every_batch_size_up_to_seventy(self, rows):
        rng = random.Random(rows)
        seeds = [rng.randrange(2**32) for _ in range(rows)]
        assert standard_normals(seeds) == _oracle(seeds)

    @settings(max_examples=200, deadline=None)
    @given(seeds=st.lists(_SEEDS, max_size=12))
    def test_any_seeds(self, seeds):
        normals = standard_normals(seeds)
        assert normals == _oracle(seeds)
        assert all(type(value) is float for value in normals)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=_SEEDS,
        before=st.lists(_SEEDS, max_size=9),
        after=st.lists(_SEEDS, max_size=9),
    )
    def test_a_seed_ignores_its_neighbours(self, seed, before, after):
        batch = standard_normals(before + [seed] + after)
        assert batch[len(before)] == standard_normals([seed])[0]

    def test_an_empty_batch(self):
        assert standard_normals([]) == []
        assert seed_states([]).shape == (0, 4)

    @pytest.mark.parametrize("bad", [-1, 2**32, 2**40])
    def test_seeds_outside_32_bits_raise(self, bad):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            standard_normals([7, bad])


# ----------------------------------------------------------------------
# Every noisy path against one generator per draw, on every preset
# ----------------------------------------------------------------------

_PROFILES = (
    list(paper_workloads())[:6]
    + WorkloadGenerator(seed=11, namespace="noise").sample(4)
    + [replace(paper_workloads()[0], phase_noise=0.0)]
)


@pytest.fixture(scope="module", params=sorted(PRESETS))
def preset(request):
    machine = PRESETS[request.param]()
    placements = list(ModelRegistry().placements(machine, paper_vcpus(machine)))
    return PerformanceSimulator(machine, seed=13), placements


#: Every production path that multiplies by measurement noise, and the
#: test of :class:`TestEveryNoisyPath` that checks it against the oracle.
NOISY_PATHS = {
    "measured_ipc": "test_measured_ipc_and_its_noise",
    "measured_ipc_batch": "test_grids",
    "throughput": "test_throughput_and_run",
    "run": "test_throughput_and_run",
    "simulate_colocated": "test_colocated",
    "NoiseBatch": "test_a_noise_batch_group",
}


class TestEveryNoisyPath:
    def test_the_list_of_noisy_paths_is_complete(self):
        """Every simulator method that takes ``noise=`` is listed, and
        each listed path is called by the test that covers it."""
        drawing = {
            name
            for name, member in vars(PerformanceSimulator).items()
            if inspect.isfunction(member)
            and "noise" in inspect.signature(member).parameters
        }
        assert drawing | {"NoiseBatch"} == set(NOISY_PATHS)
        for path, test in NOISY_PATHS.items():
            source = inspect.getsource(getattr(TestEveryNoisyPath, test))
            assert re.search(rf"\b{path}\(", source), (path, test)

    def test_measured_ipc_and_its_noise(self, preset):
        simulator, placements = preset
        for k, profile in enumerate(_PROFILES):
            for placement in placements:
                factor = noise_multiplier(
                    simulator, profile, placement, 3.0, k, MEASURED_IPC_NOISE
                )
                clean = simulator.measured_ipc(profile, placement, noise=False)
                noisy = simulator.measured_ipc(
                    profile, placement, duration_s=3.0, repetition=k
                )
                assert noisy == clean * factor

    def test_grids(self, preset):
        simulator, placements = preset
        clean = simulator.measured_ipc_batch(_PROFILES, placements, noise=False)
        noisy = simulator.measured_ipc_batch(
            _PROFILES, placements, duration_s=0.5, repetition=4
        )
        factors = np.array(
            [
                [
                    noise_multiplier(simulator, p, q, 0.5, 4, MEASURED_IPC_NOISE)
                    for q in placements
                ]
                for p in _PROFILES
            ]
        )
        assert (noisy == clean * factors).all()

    def test_throughput_and_run(self, preset):
        simulator, placements = preset
        for k, profile in enumerate(_PROFILES):
            placement = placements[k % len(placements)]
            factor = noise_multiplier(simulator, profile, placement, 10.0, k)
            clean = simulator.throughput(profile, placement, noise=False)
            assert simulator.throughput(profile, placement, repetition=k) == (
                clean * factor
            )
            run = simulator.run(profile, placement, repetition=k)
            assert run.throughput == clean * factor

    def test_colocated(self, preset):
        simulator, placements = preset
        assignments = [
            (profile, placements[k % len(placements)])
            for k, profile in enumerate(_PROFILES)
        ]
        factors = [
            noise_multiplier(simulator, profile, placement, 10.0, 2, index)
            for index, (profile, placement) in enumerate(assignments)
        ]
        clean = simulator.simulate_colocated(assignments, noise=False)
        noisy = simulator.simulate_colocated(assignments, repetition=2)
        assert noisy == [value * f for value, f in zip(clean, factors)]

    def test_a_noise_batch_group(self, preset):
        simulator, placements = preset
        for placement in placements:
            noise = NoiseBatch(3.0)
            noise.add(simulator, _PROFILES, placement, range(len(_PROFILES)))
            assert noise.multipliers() == [
                probe_multipliers(
                    simulator, _PROFILES, placement, 3.0, range(len(_PROFILES))
                )
            ]

    def test_probe_rows_of_a_decision_batch(self, preset, monkeypatch):
        """Every probe row a batch of goal-aware decisions multiplies by
        is the oracle's draw for its (profile, placement, request id)."""
        simulator, _ = preset
        machine = simulator.machine
        registry = ModelRegistry(n_estimators=4, n_synthetic=2, seed=0)
        policy = GoalAwareFleetPolicy(registry)
        fleet = Fleet.homogeneous(machine, 6)
        seen = []
        probe = registry.probe_ipc_batch

        def spied(machine, profiles, placement, *, multipliers, row=None):
            seen.append((profiles, placement, multipliers))
            return probe(machine, profiles, placement, multipliers=multipliers, row=row)

        monkeypatch.setattr(registry, "probe_ipc_batch", spied)
        requests = generate_request_stream(
            12, seed=5, vcpus_choices=(paper_vcpus(machine),), jitter=0.1
        )
        policy.decide_batch(requests, fleet)
        assert len(seen) == 2  # one group, probed in its two inputs
        for (profiles, placement, multipliers), shift in zip(seen, (0, 1)):
            ids = [r.request_id + shift for r in requests]
            assert multipliers == probe_multipliers(
                registry.simulator(machine),
                profiles,
                placement,
                policy.probe_duration_s,
                ids,
            )


class TestNoiseBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        groups=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, len(_PROFILES) - 1), st.integers(0, 2**40)
                ),
                max_size=6,
            ),
            max_size=5,
        ),
        duration_s=st.sampled_from([0.5, 3.0, 10.0]),
    )
    def test_groups_across_simulators(self, groups, duration_s):
        """Groups gathered from two simulators in one batch draw each
        row exactly as the oracle does."""
        simulators = [
            PerformanceSimulator(PRESETS[name](), seed=5) for name in ("amd", "intel")
        ]
        placements = [
            ModelRegistry().placements(s.machine, 16)[0] for s in simulators
        ]
        noise = NoiseBatch(duration_s)
        expected = []
        for turn, rows in enumerate(groups):
            simulator, placement = simulators[turn % 2], placements[turn % 2]
            profiles = [_PROFILES[k] for k, _ in rows]
            repetitions = [repetition for _, repetition in rows]
            noise.add(simulator, profiles, placement, repetitions)
            expected.append(
                probe_multipliers(
                    simulator, profiles, placement, duration_s, repetitions
                )
            )
        assert noise.multipliers() == expected
