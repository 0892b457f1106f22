"""Unit tests for the machine model."""

import pytest

from repro.topology import Interconnect, MachineTopology


def toy_machine(n_nodes=2, l2_groups=4, threads_per_l2=2, l3_groups=1):
    if n_nodes == 1:
        ic = Interconnect(1, {})
    else:
        ic = Interconnect.full_mesh(n_nodes, 5000.0)
    return MachineTopology(
        name="toy",
        n_nodes=n_nodes,
        l2_groups_per_node=l2_groups,
        threads_per_l2=threads_per_l2,
        interconnect=ic,
        dram_bandwidth_mbps=10_000.0,
        l3_size_mb=8.0,
        l2_size_kb=512.0,
        l3_groups_per_node=l3_groups,
    )


class TestValidation:
    def test_rejects_interconnect_node_mismatch(self):
        with pytest.raises(ValueError, match="interconnect"):
            MachineTopology(
                name="bad",
                n_nodes=4,
                l2_groups_per_node=2,
                threads_per_l2=2,
                interconnect=Interconnect.full_mesh(2, 1000.0),
                dram_bandwidth_mbps=1000.0,
                l3_size_mb=8.0,
                l2_size_kb=512.0,
            )

    def test_rejects_l3_groups_not_dividing_l2_groups(self):
        with pytest.raises(ValueError, match="divide evenly"):
            toy_machine(l2_groups=3, l3_groups=2)

    def test_rejects_non_positive_shape(self):
        with pytest.raises(ValueError):
            toy_machine(l2_groups=0)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError, match="dram"):
            MachineTopology(
                name="bad",
                n_nodes=1,
                l2_groups_per_node=2,
                threads_per_l2=2,
                interconnect=Interconnect(1, {}),
                dram_bandwidth_mbps=0.0,
                l3_size_mb=8.0,
                l2_size_kb=512.0,
            )


class TestShape:
    def test_thread_counts(self):
        m = toy_machine(n_nodes=2, l2_groups=4, threads_per_l2=2)
        assert m.threads_per_node == 8
        assert m.total_threads == 16
        assert m.l2_count == 8
        assert m.l2_capacity == 2
        assert m.l3_count == 2
        assert m.l3_capacity == 8

    def test_split_l3_counts(self):
        m = toy_machine(n_nodes=2, l2_groups=4, threads_per_l2=2, l3_groups=2)
        assert m.l3_count == 4
        assert m.l3_capacity == 4


class TestThreadArithmetic:
    def test_node_of_thread_is_node_major(self):
        m = toy_machine(n_nodes=2, l2_groups=4, threads_per_l2=2)
        assert m.node_of_thread(0) == 0
        assert m.node_of_thread(7) == 0
        assert m.node_of_thread(8) == 1
        assert m.node_of_thread(15) == 1

    def test_l2_group_of_thread(self):
        m = toy_machine()
        assert m.l2_group_of_thread(0) == 0
        assert m.l2_group_of_thread(1) == 0
        assert m.l2_group_of_thread(2) == 1

    def test_threads_of_node_round_trip(self):
        m = toy_machine(n_nodes=3, l2_groups=2, threads_per_l2=2)
        for node in m.nodes:
            for thread in m.threads_of_node(node):
                assert m.node_of_thread(thread) == node

    def test_threads_of_l2_group_round_trip(self):
        m = toy_machine()
        for group in range(m.l2_count):
            for thread in m.threads_of_l2_group(group):
                assert m.l2_group_of_thread(thread) == group

    def test_l3_group_of_thread_with_split_l3(self):
        m = toy_machine(n_nodes=2, l2_groups=4, threads_per_l2=2, l3_groups=2)
        # 4 threads per L3 group, 8 per node.
        assert m.l3_group_of_thread(0) == 0
        assert m.l3_group_of_thread(3) == 0
        assert m.l3_group_of_thread(4) == 1
        assert m.l3_group_of_thread(8) == 2

    def test_out_of_range_rejected(self):
        m = toy_machine()
        with pytest.raises(ValueError):
            m.node_of_thread(m.total_threads)
        with pytest.raises(ValueError):
            m.threads_of_node(m.n_nodes)
        with pytest.raises(ValueError):
            m.threads_of_l2_group(m.l2_count)

    def test_every_thread_belongs_to_exactly_one_l2_group(self):
        m = toy_machine(n_nodes=2, l2_groups=4, threads_per_l2=2)
        seen = []
        for group in range(m.l2_count):
            seen.extend(m.threads_of_l2_group(group))
        assert sorted(seen) == list(range(m.total_threads))


class TestConvenience:
    def test_total_dram_bandwidth(self):
        m = toy_machine(n_nodes=2)
        assert m.total_dram_bandwidth() == 20_000.0
        assert m.total_dram_bandwidth([0]) == 10_000.0

    def test_summary_mentions_name_and_shape(self):
        text = toy_machine().summary()
        assert "toy" in text
        assert "NUMA nodes" in text


class TestFingerprint:
    def test_equals_and_hashes_like_the_plain_tuple(self):
        machine = toy_machine()
        fingerprint = machine.fingerprint()
        plain = tuple(fingerprint)
        assert type(plain) is tuple and plain[0] == "toy"
        assert fingerprint == plain and plain == fingerprint
        assert hash(fingerprint) == hash(plain)
        # Either finds the other in a dict: keys re-tupled off the wire
        # meet keys taken from a machine.
        assert {fingerprint: "a"}[plain] == "a"
        assert {plain: "b"}[fingerprint] == "b"
        assert machine.fingerprint() is fingerprint
        assert toy_machine().fingerprint() == fingerprint
        assert toy_machine(n_nodes=4).fingerprint() != fingerprint

    def test_pickle_round_trip_drops_the_cached_hash(self):
        """String hashes are salted per process, so the hash a key
        cached in this process must not travel with it."""
        import copy
        import pickle

        machine = toy_machine()
        fingerprint = machine.fingerprint()
        hash(fingerprint)
        assert "_hash" in vars(fingerprint)
        for clone in (
            pickle.loads(pickle.dumps(fingerprint)),
            copy.deepcopy(fingerprint),
            # The machine carries its memoized fingerprint along.
            pickle.loads(pickle.dumps(machine)).fingerprint(),
        ):
            assert type(clone) is type(fingerprint)
            assert vars(clone) == {}
            assert clone == fingerprint and hash(clone) == hash(fingerprint)
