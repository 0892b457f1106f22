"""Cross-module integration and property tests.

These exercise the whole pipeline on machines *other* than the two paper
presets — the paper's portability claim (Section 8) — and check global
invariants that no single module owns.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import (
    Placement,
    PlacementModel,
    build_training_set,
    enumerate_important_placements,
)
from repro.perfsim import (
    PerformanceSimulator,
    WorkloadGenerator,
)
from repro.topology import TopologyBuilder
from repro.topology.sysfs import machine_from_sysfs, machine_to_sysfs


@st.composite
def random_machines(draw):
    """Small but varied machine shapes, symmetric or asymmetric."""
    n_nodes = draw(st.sampled_from([1, 2, 3, 4]))
    l2_groups = draw(st.sampled_from([2, 3, 4, 6]))
    threads_per_l2 = draw(st.sampled_from([1, 2]))
    builder = (
        TopologyBuilder("random")
        .nodes(n_nodes)
        .l2_groups_per_node(l2_groups, threads_per_l2=threads_per_l2)
        .dram_bandwidth(draw(st.sampled_from([8_000.0, 20_000.0])))
        .cache_sizes(l3_mb=draw(st.sampled_from([4.0, 16.0])), l2_kb=256.0)
    )
    if n_nodes > 1 and draw(st.booleans()):
        # Asymmetric chain + extras.
        links = {}
        for a in range(n_nodes - 1):
            links[(a, a + 1)] = float(draw(st.sampled_from([1000, 2000, 4000])))
        if n_nodes > 2 and draw(st.booleans()):
            links[(0, n_nodes - 1)] = float(
                draw(st.sampled_from([500, 1500, 3000]))
            )
        builder.asymmetric_interconnect(links)
    else:
        builder.symmetric_interconnect(bandwidth_mbps=5_000.0)
    return builder.build()


class TestEnumerationOnRandomMachines:
    @given(machine=random_machines(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_pipeline_invariants(self, machine, data):
        # A vCPU count that is balanced on at least one node count.
        candidates = [
            v
            for v in (2, 4, 6, 8, 12, 16, 24)
            if v <= machine.total_threads
            and any(
                v % n == 0 and v // n <= machine.threads_per_node
                for n in range(1, machine.n_nodes + 1)
            )
        ]
        if not candidates:
            return
        vcpus = data.draw(st.sampled_from(candidates))

        try:
            ips = enumerate_important_placements(machine, vcpus)
        except ValueError:
            # Legitimately unplaceable: node-balanced but no even L2 split
            # exists (e.g. 6 vCPUs on 2 nodes of 2x2 threads).
            return
        assert len(ips) >= 1
        # Invariant 1: score vectors are unique (dedup worked).
        assert len({ips.concerns.score_vector(p) for p in ips}) == len(ips)
        concerns = ips.concerns
        for placement in ips:
            # Invariant 2: balanced and feasible.
            assert vcpus % placement.n_nodes == 0
            assert len(set(placement.threads)) == vcpus
            # Invariant 3: scores agree with the concern definitions.
            vector = concerns.score_vector(placement)
            assert vector["l2"] == placement.l2_score
            assert vector["l3"] == placement.l3_score
        # Invariant 4: every surviving packing block is realizable as at
        # least one important placement (the packing logic the ML policy
        # relies on).
        scored = {
            (p.n_nodes, round(_block_score(concerns, p.nodes), 3))
            for p in ips
        }
        for packing in ips.surviving_packings:
            for block in packing.blocks:
                key = (len(block), round(_block_score(concerns, block), 3))
                assert key in scored

    @given(machine=random_machines())
    @settings(max_examples=25, deadline=None)
    def test_sysfs_round_trip_on_random_machines(self, machine):
        rebuilt = machine_from_sysfs(machine_to_sysfs(machine))
        assert rebuilt.n_nodes == machine.n_nodes
        assert rebuilt.l2_count == machine.l2_count
        assert rebuilt.threads_per_l2 == machine.threads_per_l2
        assert rebuilt.interconnect.links == machine.interconnect.links


def _block_score(concerns, nodes):
    bandwidth = concerns.bandwidth_concern
    return bandwidth.score_nodes(nodes) if bandwidth is not None else 0.0


class TestSimulatorProperties:
    @given(
        membw=st.floats(min_value=100, max_value=3000),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_pure_bandwidth_workloads_never_prefer_fewer_nodes(
        self, membw, seed
    ):
        """A workload with no communication and private data can only gain
        from more memory controllers."""
        machine = (
            TopologyBuilder("bw")
            .nodes(4)
            .l2_groups_per_node(4, threads_per_l2=2)
            .dram_bandwidth(10_000)
            .cache_sizes(l3_mb=8, l2_kb=512)
            .symmetric_interconnect(bandwidth_mbps=50_000)
            .build()
        )
        sim = PerformanceSimulator(machine)
        profile = replace(
            WorkloadGenerator(seed=seed).sample_one("bandwidth-bound"),
            membw_per_vcpu=membw,
            comm_intensity=0.0,
            comm_bytes_per_vcpu=0.0,
            shared_fraction=0.0,
            numa_locality=1.0,
        )
        values = [
            sim.throughput(
                profile,
                Placement.balanced(machine, range(n), 4, use_smt=False),
                noise=False,
            )
            for n in (1, 2, 4)
        ]
        assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=20, deadline=None)
    def test_noise_free_simulation_is_deterministic(self, seed):
        machine = (
            TopologyBuilder("det")
            .nodes(2)
            .l2_groups_per_node(4, threads_per_l2=2)
            .dram_bandwidth(10_000)
            .cache_sizes(l3_mb=8, l2_kb=512)
            .symmetric_interconnect(bandwidth_mbps=5_000)
            .build()
        )
        sim = PerformanceSimulator(machine)
        profile = WorkloadGenerator(seed=seed).sample_one()
        p = Placement.balanced(machine, [0, 1], 8, use_smt=True)
        assert sim.throughput(profile, p, noise=False) == sim.throughput(
            profile, p, noise=False
        )


class TestEndToEndOnNonPaperMachine:
    def test_model_trains_and_predicts_on_custom_machine(self):
        """The Section-8 portability claim, end to end: a machine the paper
        never saw gets a working model with no code changes."""
        machine = (
            TopologyBuilder("custom-8x4")
            .nodes(4)
            .l2_groups_per_node(4, threads_per_l2=2)
            .dram_bandwidth(15_000)
            .cache_sizes(l3_mb=12, l2_kb=512)
            .asymmetric_interconnect(
                {
                    (0, 1): 8_000.0,
                    (2, 3): 8_000.0,
                    (0, 2): 3_000.0,
                    (1, 3): 3_000.0,
                }
            )
            .build()
        )
        vcpus = 8
        ips = enumerate_important_placements(machine, vcpus)
        assert len(ips) >= 3

        corpus = WorkloadGenerator(seed=11, jitter=0.25).sample(40)
        ts = build_training_set(machine, vcpus, corpus)
        model = PlacementModel(
            candidate_pairs=[(0, len(ips) - 1), (1, len(ips) - 1)],
            n_estimators=30,
            selection_estimators=6,
            random_state=0,
        ).fit(ts)

        # Predictions for an unseen workload are in the right ballpark.
        sim = PerformanceSimulator(machine)
        unseen = WorkloadGenerator(seed=99, jitter=0.25).sample_one("analytics")
        i, j = model.input_pair
        predicted = model.predict(
            sim.measured_ipc(unseen, ips[i], noise=False),
            sim.measured_ipc(unseen, ips[j], noise=False),
        )
        actual = np.array(
            [
                sim.measured_ipc(unseen, p, noise=False)
                for p in ips
            ]
        )
        actual /= actual[i]
        error = np.abs(predicted - actual) / actual
        assert error.mean() < 0.25
