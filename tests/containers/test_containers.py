"""Unit tests for virtual containers and the simulated host."""

import pytest

from repro.containers import SimulatedHost, VirtualContainer
from repro.core import Placement
from repro.perfsim import workload_by_name
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3


@pytest.fixture
def amd():
    return amd_opteron_6272()


@pytest.fixture
def host(amd):
    return SimulatedHost(amd, seed=1)


def container(name="gcc", vcpus=16):
    return VirtualContainer(workload_by_name(name), vcpus)


class TestVirtualContainer:
    def test_auto_name_includes_profile(self):
        c = container()
        assert c.name.startswith("gcc-")

    def test_ids_are_unique(self):
        a, b = container(), container()
        assert a.container_id != b.container_id

    def test_rejects_bad_vcpus(self):
        with pytest.raises(ValueError):
            VirtualContainer(workload_by_name("gcc"), 0)

    def test_metric_name_comes_from_profile(self):
        assert container("WTbtree").metric_name == "ops/s"


class TestDeployment:
    def test_pinned_deployment(self, host, amd):
        c = container()
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        d = host.deploy(c, p)
        assert d.pinned
        assert d.imbalance == 1.0
        assert host.deployments == [d]

    def test_unpinned_deployment_gets_spread_placement(self, host, amd):
        d = host.deploy(container())
        assert not d.pinned
        assert d.placement.n_nodes == amd.n_nodes
        assert d.imbalance < 1.0

    def test_double_deploy_rejected(self, host, amd):
        c = container()
        host.deploy(c)
        with pytest.raises(ValueError, match="already deployed"):
            host.deploy(c)

    def test_capacity_enforced(self, host):
        for _ in range(4):
            host.deploy(container())
        with pytest.raises(ValueError, match="free"):
            host.deploy(container())

    def test_placement_vcpu_mismatch_rejected(self, host, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        with pytest.raises(ValueError, match="vCPUs"):
            host.deploy(container(vcpus=8), p)

    def test_migrate_changes_placement(self, host, amd):
        c = container()
        host.deploy(c, Placement.balanced(amd, [0, 1], 16, use_smt=True))
        new = Placement.balanced(amd, [2, 3], 16, use_smt=True)
        d = host.migrate(c, new)
        assert d.placement == new
        with pytest.raises(KeyError):
            host.migrate(container(), new)


class TestMeasurement:
    def test_measure_solo_close_to_simulator(self, host, amd):
        c = container()
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        host.deploy(c, p)
        measured = host.measure(c, noise=False)
        expected = host.simulator.throughput(c.profile, p, noise=False)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_unpinned_measurement_pays_imbalance(self, amd):
        host = SimulatedHost(amd, seed=3)
        c = container("WTbtree")
        d = host.deploy(c)
        measured = host.measure(c, noise=False)
        unpenalized = host.simulator.throughput(
            c.profile, d.placement, noise=False
        )
        assert measured < unpenalized

    def test_colocation_reduces_throughput(self, amd):
        host = SimulatedHost(amd, seed=0)
        a = container("streamcluster")
        host.deploy(a)
        solo = host.measure(a, noise=False)
        host.deploy(container("streamcluster"))
        host.deploy(container("streamcluster"))
        shared = host.measure(a, noise=False)
        assert shared < solo

    def test_measure_unknown_container(self, host):
        with pytest.raises(KeyError):
            host.measure(container())

    def test_measure_ipc_scales_with_interference(self, amd):
        host = SimulatedHost(amd, seed=0)
        a = container("streamcluster")
        host.deploy(a)
        solo_ipc = host.measure_ipc(a, noise=False)
        host.deploy(container("streamcluster"))
        host.deploy(container("streamcluster"))
        shared_ipc = host.measure_ipc(a, noise=False)
        assert shared_ipc < solo_ipc

    def test_measure_all_empty_host(self, host):
        assert host.measure_all() == {}

    def test_intel_unpinned_shares_l2_when_needed(self):
        intel = intel_xeon_e7_4830_v3()
        host = SimulatedHost(intel)
        c = VirtualContainer(workload_by_name("gcc"), 96)
        d = host.deploy(c)
        # 96 vCPUs on 48 cores: SMT sharing is unavoidable.
        assert d.placement.l2_share == 2
