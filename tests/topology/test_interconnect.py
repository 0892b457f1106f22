"""Unit tests for the interconnect link-graph model."""

import itertools

import pytest

from repro.topology import Interconnect


def ring(n, bandwidth=1000.0):
    links = {(i, (i + 1) % n): bandwidth for i in range(n)}
    return Interconnect(n, links)


class TestConstruction:
    def test_rejects_self_link(self):
        with pytest.raises(ValueError, match="distinct nodes"):
            Interconnect(2, {(0, 0): 100.0})

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            Interconnect(2, {(0, 5): 100.0})

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError, match="non-positive"):
            Interconnect(2, {(0, 1): 0.0})

    def test_rejects_disconnected_graph(self):
        with pytest.raises(ValueError, match="connected"):
            Interconnect(4, {(0, 1): 100.0, (2, 3): 100.0})

    def test_rejects_duplicate_link(self):
        with pytest.raises(ValueError, match="duplicate"):
            Interconnect(2, {(0, 1): 100.0, (1, 0): 200.0})

    def test_single_node_machine_has_no_links(self):
        ic = Interconnect(1, {})
        assert ic.n_nodes == 1
        assert ic.diameter == 0
        assert ic.is_symmetric

    def test_rejects_bad_latencies(self):
        with pytest.raises(ValueError, match="latencies"):
            Interconnect(2, {(0, 1): 100.0}, local_latency_ns=0.0)


class TestFullMesh:
    def test_all_pairs_adjacent(self):
        ic = Interconnect.full_mesh(4, 5000.0)
        for a, b in itertools.combinations(range(4), 2):
            assert ic.bandwidth(a, b) == 5000.0
            assert ic.hop_distance(a, b) == 1

    def test_is_symmetric(self):
        assert Interconnect.full_mesh(4, 5000.0).is_symmetric

    def test_aggregate_scales_with_pair_count(self):
        ic = Interconnect.full_mesh(4, 1000.0)
        assert ic.aggregate_bandwidth([0, 1]) == 1000.0
        assert ic.aggregate_bandwidth([0, 1, 2]) == 3000.0
        assert ic.aggregate_bandwidth([0, 1, 2, 3]) == 6000.0


class TestDistancesAndBandwidth:
    def test_hop_distance_zero_to_self(self):
        assert ring(4).hop_distance(2, 2) == 0

    def test_ring_distances(self):
        ic = ring(6)
        assert ic.hop_distance(0, 1) == 1
        assert ic.hop_distance(0, 2) == 2
        assert ic.hop_distance(0, 3) == 3
        assert ic.diameter == 3

    def test_direct_effective_bandwidth_is_link_bandwidth(self):
        ic = ring(4, bandwidth=2000.0)
        assert ic.aggregate_bandwidth({0, 1}) == 2000.0

    def test_two_hop_effective_bandwidth_halves_bottleneck(self):
        ic = ring(4, bandwidth=2000.0)
        assert ic.aggregate_bandwidth({0, 2}) == pytest.approx(1000.0)

    def test_effective_bandwidth_picks_widest_shortest_path(self):
        # 0-1-3 bottleneck 500; 0-2-3 bottleneck 2000; both are 2 hops.
        links = {(0, 1): 500.0, (1, 3): 3000.0, (0, 2): 2000.0, (2, 3): 2000.0}
        ic = Interconnect(4, links)
        assert ic.aggregate_bandwidth({0, 3}) == pytest.approx(1000.0)

    def test_asymmetric_detection(self):
        links = {(0, 1): 1000.0, (1, 2): 2000.0, (0, 2): 1000.0}
        assert not Interconnect(3, links).is_symmetric

    def test_aggregate_bandwidth_of_single_node_is_zero(self):
        assert ring(4).aggregate_bandwidth([2]) == 0.0

    def test_aggregate_bandwidth_rejects_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            ring(4).aggregate_bandwidth([0, 9])

    def test_aggregate_ignores_duplicate_nodes(self):
        ic = ring(4)
        assert ic.aggregate_bandwidth([0, 1, 1]) == ic.aggregate_bandwidth([0, 1])


class TestLatency:
    def test_local_latency(self):
        ic = Interconnect(2, {(0, 1): 100.0}, local_latency_ns=90.0, hop_latency_ns=110.0)
        assert ic.latency_ns(0, 0) == 90.0

    def test_remote_latency_grows_with_hops(self):
        ic = ring(6)
        assert ic.latency_ns(0, 1) < ic.latency_ns(0, 2) < ic.latency_ns(0, 3)

    def test_mean_pairwise_latency_single_node(self):
        ic = ring(4)
        assert ic.mean_pairwise_latency_ns([1]) == ic.local_latency_ns

    def test_mean_pairwise_latency_mixes_local_and_remote(self):
        ic = Interconnect(2, {(0, 1): 100.0}, local_latency_ns=100.0, hop_latency_ns=100.0)
        # pairs: (0,0)=100, (0,1)=200, (1,0)=200, (1,1)=100 -> mean 150
        assert ic.mean_pairwise_latency_ns([0, 1]) == pytest.approx(150.0)

    def test_mean_pairwise_latency_empty_rejected(self):
        with pytest.raises(ValueError):
            ring(4).mean_pairwise_latency_ns([])


class TestShortestPathsAgainstNetworkx:
    """The hand-rolled BFS against networkx (a dev dependency only)."""

    @staticmethod
    def _graphs():
        from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3

        yield amd_opteron_6272().interconnect
        yield intel_xeon_e7_4830_v3().interconnect
        yield ring(7)
        # A path with a chord and a pendant node: unequal route counts.
        yield Interconnect(
            6,
            {(0, 1): 5.0, (1, 2): 7.0, (2, 3): 3.0, (0, 4): 2.0, (4, 2): 9.0, (3, 5): 1.0},
        )

    def test_hops_and_paths_match(self):
        nx = pytest.importorskip("networkx")
        for ic in self._graphs():
            graph = nx.Graph()
            graph.add_nodes_from(ic.nodes)
            graph.add_edges_from(tuple(link) for link in ic.links)
            for a, b in itertools.permutations(ic.nodes, 2):
                assert ic.hop_distance(a, b) == nx.shortest_path_length(graph, a, b)
                ours = sorted(ic.shortest_paths(a, b))
                assert ours == sorted(nx.all_shortest_paths(graph, a, b))

    def test_path_to_self(self):
        assert ring(4).shortest_paths(2, 2) == [[2]]
