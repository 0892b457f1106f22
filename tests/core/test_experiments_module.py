"""Unit tests for the canonical experiment configuration module."""


from repro.core.enumeration import enumerate_important_placements
from repro.experiments import (
    CANONICAL_PAIRS,
    clustering_corpus,
    paper_vcpus,
    training_corpus,
)
from repro.topology import TopologyBuilder, amd_opteron_6272, intel_xeon_e7_4830_v3


class TestCorpora:
    def test_training_corpus_is_deterministic(self):
        a = training_corpus()
        b = training_corpus()
        assert [w.name for w in a] == [w.name for w in b]
        assert [w.to_dict() for w in a] == [w.to_dict() for w in b]

    def test_training_corpus_contains_paper_workloads(self):
        names = {w.name for w in training_corpus()}
        assert {"WTbtree", "gcc", "postgres-tpcc"} <= names
        assert len(names) == 18 + 128

    def test_clustering_corpus_is_paper_sized(self):
        assert len(clustering_corpus()) == 18 + 30

    def test_training_corpus_is_sampled_once_into_fresh_lists(self):
        a = training_corpus(seed=5, n_synthetic=4)
        a.pop()
        b = training_corpus(seed=5, n_synthetic=4)
        assert len(b) == 18 + 4 and b is not a
        assert all(x is y for x, y in zip(a, b))  # the same immutable profiles
        assert training_corpus(seed=5, n_synthetic=4, jitter=0.1)[-1] is not b[-1]

    def test_seeds_change_the_corpus(self):
        a = training_corpus(seed=1, n_synthetic=4)
        b = training_corpus(seed=2, n_synthetic=4)
        assert [w.to_dict() for w in a[18:]] != [w.to_dict() for w in b[18:]]


class TestPaperVcpus:
    def test_paper_machines(self):
        assert paper_vcpus(amd_opteron_6272()) == 16
        assert paper_vcpus(intel_xeon_e7_4830_v3()) == 24

    def test_unknown_machine_defaults_to_half_the_threads(self):
        machine = (
            TopologyBuilder("other")
            .nodes(2)
            .l2_groups_per_node(4, threads_per_l2=2)
            .dram_bandwidth(10_000)
            .cache_sizes(l3_mb=8, l2_kb=512)
            .symmetric_interconnect(bandwidth_mbps=5_000)
            .build()
        )
        assert paper_vcpus(machine) == 8


class TestCanonicalConfiguration:
    def test_canonical_pairs_reference_valid_placements(self):
        for machine in (amd_opteron_6272(), intel_xeon_e7_4830_v3()):
            ips = enumerate_important_placements(machine, paper_vcpus(machine))
            i, j = CANONICAL_PAIRS[machine.name]
            assert 0 <= i < len(ips)
            assert 0 <= j < len(ips)
            assert i != j

    def test_intel_pair_contains_paper_baseline(self):
        # The paper used placement #2 as the Intel baseline; the canonical
        # pair's first element is exactly that placement (0-based index 1).
        assert CANONICAL_PAIRS["intel-xeon-e7-4830-v3"][0] == 1
