"""Tests for the versioned model server: chains, gates, invalidation."""

import pytest

from repro.core.blockscores import DEFAULT_BLOCK_SCORE_CACHE
from repro.perfsim.library import paper_workloads
from repro.scheduler import ModelRegistry
from repro.serving import ModelServer, VersionStatus
from repro.topology import amd_opteron_6272


@pytest.fixture(scope="module")
def machine():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def server(machine):
    server = ModelServer(seed=0)
    server.model(machine, 8)  # build the v1 chain once for the module
    return server


def _candidate(server, machine, vcpus, *, time=1.0):
    incumbent = server.model(machine, vcpus)
    model = incumbent.warm_refit(
        server.training_set(machine, vcpus), n_grow=4
    )
    return server.add_candidate(
        machine,
        vcpus,
        model,
        time=time,
        n_training_rows=len(server.training_set(machine, vcpus)),
    )


class TestVersionChains:
    def test_initial_chain_is_single_active_v1(self, server, machine):
        versions = server._chain(machine, 8)
        assert [v.version for v in versions] == [1]
        assert versions[0].status is VersionStatus.ACTIVE
        assert server.active_version(machine, 8).version == 1
        assert server.shadow_candidate(machine, 8) is None
        assert server.model_version_token(machine, 8) == 1

    def test_token_stable_across_chain_creation(self, machine):
        fresh = ModelServer(seed=0)
        assert fresh.model_version_token(machine, 8) == 1

    def test_serves_what_plain_registry_serves(self, server, machine):
        registry = ModelRegistry(seed=0)
        mine = server.model(machine, 8)
        theirs = registry.model(machine, 8)
        assert mine.input_pair == theirs.input_pair
        assert list(mine.predict(0.8, 1.1)) == list(theirs.predict(0.8, 1.1))
        assert server.input_pair(machine, 8) == registry.input_pair(machine, 8)

    def test_single_shadow_slot(self, machine):
        server = ModelServer(seed=0)
        _candidate(server, machine, 8)
        with pytest.raises(ValueError, match="already in flight"):
            _candidate(server, machine, 8)

    def test_promote_without_candidate_rejected(self, machine):
        server = ModelServer(seed=0)
        server.model(machine, 8)
        with pytest.raises(ValueError, match="no shadow candidate"):
            server.promote(machine, 8, time=1.0)
        with pytest.raises(ValueError, match="no shadow candidate"):
            server.discard_candidate(machine, 8, time=1.0)


class TestPromotion:
    def test_promote_swaps_active_and_records(self, machine):
        server = ModelServer(seed=0)
        candidate = _candidate(server, machine, 8, time=5.0)
        candidate.shadow_errors.extend([0.01, 0.02])
        candidate.incumbent_errors.extend([0.10, 0.12])
        record = server.promote(machine, 8, time=9.0)

        assert server.active_version(machine, 8) is candidate
        assert candidate.status is VersionStatus.ACTIVE
        assert candidate.promoted_time == 9.0
        v1 = server._chain(machine, 8)[0]
        assert v1.status is VersionStatus.RETIRED
        assert v1.retired_time == 9.0
        assert server.model(machine, 8) is candidate.model
        assert server.model_version_token(machine, 8) == 2
        assert record.version == 2
        assert record.shadow_mape_pct == pytest.approx(1.5)
        assert "promote v2" in record.describe()
        # The base-class model store agrees with the chain.
        assert server._models[(machine.fingerprint(), 8)] is candidate.model

    def test_discard_keeps_incumbent(self, machine):
        server = ModelServer(seed=0)
        candidate = _candidate(server, machine, 8)
        discarded = server.discard_candidate(machine, 8, time=2.0)
        assert discarded is candidate
        assert candidate.status is VersionStatus.RETIRED
        assert server.active_version(machine, 8).version == 1
        assert server.discarded == 1
        # The slot is free again.
        _candidate(server, machine, 8)

    def test_promotion_invalidates_exactly_the_keys_memo(self, machine):
        server = ModelServer(seed=0)
        profile = paper_workloads()[0]
        # Populate baseline_ipc for both vcpus keys of the same shape.
        before_8 = server.baseline_ipc(machine, 8, profile)
        before_16 = server.baseline_ipc(machine, 16, profile)
        fingerprint = machine.fingerprint()
        assert sum(1 for k in server._baseline_ipc if k[1] == 8) == 1
        assert sum(1 for k in server._baseline_ipc if k[1] == 16) == 1
        table_version = DEFAULT_BLOCK_SCORE_CACHE.version(fingerprint)

        _candidate(server, machine, 8)
        server.promote(machine, 8, time=3.0)

        # The 8-vCPU entries (old token) are purged; 16-vCPU survive.
        assert sum(1 for k in server._baseline_ipc if k[1] == 8) == 0
        assert sum(1 for k in server._baseline_ipc if k[1] == 16) == 1
        # The shape's block-score tables were version-bumped.
        assert (
            DEFAULT_BLOCK_SCORE_CACHE.version(fingerprint)
            == table_version + 1
        )
        # Same input pair -> the recomputed denominators are the same
        # floats (the invalidation changes cache identity, not values).
        assert server.baseline_ipc(machine, 8, profile) == before_8
        assert server.baseline_ipc(machine, 16, profile) == before_16

    def test_version_consistency_hook(self, machine):
        server = ModelServer(seed=0)
        profile = paper_workloads()[0]
        server.baseline_ipc(machine, 8, profile)
        server.assert_version_consistency()  # fresh memo is consistent

        _candidate(server, machine, 8)
        server.promote(machine, 8, time=3.0)  # promote() runs the hook too
        server.assert_version_consistency()

        # Simulate a buggy promotion that skips the purge: re-insert an
        # entry keyed at the retired token.
        stale_key = (machine.fingerprint(), 8, 1)
        server._baseline_ipc[stale_key] = {profile: 1.0}
        with pytest.raises(AssertionError, match="skipped its cache purge"):
            server.assert_version_consistency()

    def test_describe_chains(self, machine):
        server = ModelServer(seed=0)
        assert "no version chains" in server.describe_chains()
        _candidate(server, machine, 8)
        text = server.describe_chains()
        assert "v1 [active]" in text
        assert "v2 [shadow]" in text
