"""A first encounter is simulated on the scalar path, bit for bit.

``ModelRegistry.probe_ipc_batch`` fills a row's never-seen profiles with
one scalar ``measured_ipc(noise=False)`` call each, through the row's
simulator.  The grid kernel ``measured_ipc_batch`` promises the same floats
cell by cell, so the probe a cold registry returns must equal both
kernels' noisy measurement exactly, and the row must hold both kernels'
noise-free value: on every preset, in every important placement, for
paper and synthetic profiles alike.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.core.memo import CacheInfo
from repro.experiments import paper_vcpus
from repro.perfsim.generator import WorkloadGenerator
from repro.perfsim.library import paper_workloads
from repro.scheduler.registry import ModelRegistry
from repro.topology.presets import PRESETS
from tests.perfsim.oracle_noise import probe_multipliers

_MACHINES = {name: PRESETS[name]() for name in sorted(PRESETS)}
#: (preset, placement): every important placement of every preset at the
#: paper's container size for it.
_PLACEMENTS = [
    (name, placement)
    for name, machine in _MACHINES.items()
    for placement in ModelRegistry().placements(machine, paper_vcpus(machine))
]
_PROFILES = (
    list(paper_workloads())
    + WorkloadGenerator(seed=3, namespace="cold").sample(12)
    + [replace(paper_workloads()[0], phase_noise=0.0)]
)


@settings(max_examples=200, deadline=None)
@given(
    placement_index=st.integers(0, len(_PLACEMENTS) - 1),
    profile_index=st.integers(0, len(_PROFILES) - 1),
    repetition=st.integers(0, 2**40),
    duration_s=st.sampled_from([0.5, 3.0, 10.0]),
)
def test_a_cold_probe_equals_both_kernels(
    placement_index, profile_index, repetition, duration_s
):
    name, placement = _PLACEMENTS[placement_index]
    machine = _MACHINES[name]
    profile = _PROFILES[profile_index]
    registry = ModelRegistry(seed=0)
    simulator = registry.simulator(machine)

    probe = registry.probe_ipc_batch(
        machine,
        [profile],
        placement,
        multipliers=probe_multipliers(
            simulator, [profile], placement, duration_s, [repetition]
        ),
    )
    assert registry.ipc_cache_info() == CacheInfo(0, 1, 1)
    assert type(probe[0]) is float

    scalar = simulator.measured_ipc(
        profile, placement, duration_s=duration_s, repetition=repetition
    )
    grid = simulator.measured_ipc_batch(
        [profile], [placement], duration_s=duration_s, repetition=repetition
    )
    assert probe == [scalar] == [grid[0, 0]]
    row = registry.probe_row(machine, placement).ipcs
    assert row[profile] == simulator.measured_ipc(
        profile, placement, noise=False
    )
    assert row[profile] == simulator.measured_ipc_batch(
        [profile], [placement], noise=False
    )[0, 0]


def test_every_cell_of_every_preset_grid_is_a_cold_row():
    """The exhaustive twin: each preset's important-placement grid over
    every profile, filled cold one probe row at a time, equals the grid
    kernel's."""
    for name, machine in _MACHINES.items():
        placements = [p for preset, p in _PLACEMENTS if preset == name]
        registry = ModelRegistry(seed=0)
        simulator = registry.simulator(machine)
        grid = simulator.measured_ipc_batch(_PROFILES, placements, noise=False)
        for column, placement in enumerate(placements):
            registry.probe_ipc_batch(
                machine,
                _PROFILES,
                placement,
                multipliers=[1.0] * len(_PROFILES),
            )
            row = registry.probe_row(machine, placement).ipcs
            assert [row[p] for p in _PROFILES] == grid[:, column].tolist()
