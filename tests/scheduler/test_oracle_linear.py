"""Every fleet policy decides exactly like its linear-scan oracle.

The policies select hosts through the fleet index and search blocks
through the shared per-shape state memo; ``oracle_linear.py`` keeps the
scans those replace.  Hypothesis draws the fleet mix, the container
sizes, the stream seed and the batch size (a one-shot batch, or a
lifecycle window), and each of first-fit, spread and ml must produce,
against its oracle, the same decisions and final free masks, and on
churn streams the same migrations and fragmentation timeline.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scheduler import (
    Fleet,
    ModelRegistry,
    generate_churn_stream,
    generate_request_stream,
    make_policy,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from tests.scheduler.oracle_linear import (
    LinearFirstFitPolicy,
    LinearGoalAwarePolicy,
    LinearSpreadPolicy,
)
from tests.scheduler.oracle_one_shot import one_shot_engine
from tests.scheduler.replay import decision_rows, host_rows, replay

#: 10 vCPUs have no important placement on the AMD shape, 200 fit no
#: shape at all: both reject paths are drawn.
VCPUS = (8, 10, 16, 32, 200)
#: Policy name -> its linear-scan oracle, built from the registry.
ORACLES = {
    "first-fit": lambda registry: LinearFirstFitPolicy(),
    "spread": lambda registry: LinearSpreadPolicy(),
    "ml": LinearGoalAwarePolicy,
}

draws = dict(
    mix=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
    vcpus=st.lists(st.sampled_from(VCPUS), min_size=1, max_size=4),
    seed=st.integers(0, 10_000),
    batch=st.integers(1, 12),
)


@pytest.fixture(scope="module")
def registry():
    return ModelRegistry(n_estimators=6, n_synthetic=2, seed=0)


def _fleet(mix):
    amd, intel = mix
    return Fleet.mixed(
        [(amd_opteron_6272(), amd), (intel_xeon_e7_4830_v3(), intel)]
    )


def _pair(name, registry):
    return make_policy(name, registry=registry), ORACLES[name](registry)


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=10, deadline=None)
@given(**draws)
def test_one_shot_stream(registry, name, mix, vcpus, seed, batch):
    requests = generate_request_stream(24, seed=seed, vcpus_choices=tuple(vcpus))
    outcomes = []
    for policy in _pair(name, registry):
        fleet = _fleet(mix)
        report = one_shot_engine(fleet, policy, registry=registry).run(
            requests, window=batch
        )
        outcomes.append((decision_rows(report.decisions), host_rows(fleet)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(ORACLES))
@settings(max_examples=10, deadline=None)
@given(**draws)
def test_churn_stream(registry, name, mix, vcpus, seed, batch):
    requests = generate_churn_stream(
        40,
        seed=seed,
        vcpus_choices=tuple(vcpus),
        arrival_rate=2.0,
        mean_lifetime=20.0,
        heavy_tail=True,
    )
    production, oracle = (
        replay(policy, _fleet(mix), requests, window=batch, registry=registry)
        for policy in _pair(name, registry)
    )
    assert production == oracle
