"""The simulator's measurement noise as it was defined: one generator per
draw.

Every noisy measurement multiplies its noise-free value by
``exp(N(0, sigma))``, where the normal comes from ``np.random.default_rng``
seeded with the CRC of ``(simulator seed, machine, profile, nodes, L2
share, repetition, extra)`` and ``sigma`` is the profile's phase noise
scaled to the probe length.  Production derives every generator of a
batch at once (``repro.perfsim.noise.standard_normals`` under
``repro.perfsim.simulator.NoiseBatch``); this module builds each one the
plain way and is what those must equal, bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.perfsim.simulator import MEASURED_IPC_NOISE, _stable_seed


def noise_multiplier(
    simulator, profile, placement, duration_s, repetition, extra=0
) -> float:
    """The noise factor of one draw; 1.0 for a noise-free profile."""
    if profile.phase_noise <= 0:
        return 1.0
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng(
        _stable_seed(
            simulator.seed,
            simulator.machine.name,
            profile.name,
            placement.nodes,
            placement.l2_share,
            repetition,
            extra,
        )
    )
    sigma = profile.phase_noise / np.sqrt(max(duration_s, 1e-9) / 10.0)
    return float(np.exp(rng.normal(0.0, sigma)))


def measured_ipc_noise(
    simulator, profile, placement, *, duration_s=10.0, repetition=0
) -> float:
    """The multiplicative noise term of ``measured_ipc`` alone:
    ``measured_ipc(noise=True)`` is ``measured_ipc(noise=False)`` times
    this, bit for bit, which is what lets the registry memoize the
    deterministic part and multiply in a fresh draw per probe."""
    return noise_multiplier(
        simulator, profile, placement, duration_s, repetition, MEASURED_IPC_NOISE
    )


def probe_multipliers(
    simulator,
    profiles: Sequence,
    placement,
    duration_s: float,
    repetitions: Sequence[int],
) -> List[float]:
    """The noise factors of one probe per profile in one placement — what
    ``ModelRegistry.probe_ipc_batch`` multiplies its memo row by."""
    return [
        measured_ipc_noise(
            simulator, profile, placement, duration_s=duration_s, repetition=repetition
        )
        for profile, repetition in zip(profiles, repetitions)
    ]
