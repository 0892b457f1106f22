"""Unit tests for the behaviour-category clustering (Figure 3)."""

import numpy as np
import pytest

from repro.core import cluster_behaviours, cluster_training_set
from repro.core.training import build_training_set
from repro.perfsim import WorkloadGenerator, paper_workloads
from repro.topology import amd_opteron_6272


def synthetic_vectors():
    """Three obvious shape categories."""
    rng = np.random.default_rng(0)
    flat = 1.0 + rng.normal(scale=0.01, size=(10, 5))
    rising = np.linspace(1.0, 2.0, 5) + rng.normal(scale=0.01, size=(10, 5))
    falling = np.linspace(1.0, 0.5, 5) + rng.normal(scale=0.01, size=(10, 5))
    vectors = np.vstack([flat, rising, falling])
    names = [f"w{i}" for i in range(30)]
    return vectors, names


class TestClusterBehaviours:
    def test_recovers_shape_categories(self):
        vectors, names = synthetic_vectors()
        clusters = cluster_behaviours(vectors, names, random_state=0)
        assert clusters.k == 3
        # Each true category lands in one cluster.
        for start in (0, 10, 20):
            block = clusters.labels[start : start + 10]
            assert len(np.unique(block)) == 1

    def test_fixed_k(self):
        vectors, names = synthetic_vectors()
        clusters = cluster_behaviours(vectors, names, k=2, random_state=0)
        assert clusters.k == 2
        assert clusters.silhouette_by_k == {}

    def test_members_and_label_of(self):
        vectors, names = synthetic_vectors()
        clusters = cluster_behaviours(vectors, names, random_state=0)
        assert "w0" in clusters.members(int(clusters.labels[0]))
        with pytest.raises(ValueError):
            clusters.members(99)

    def test_example_clusters_are_largest(self):
        vectors, names = synthetic_vectors()
        clusters = cluster_behaviours(vectors, names, k=3, random_state=0)
        sizes = clusters.cluster_sizes()
        examples = clusters.example_clusters(2)
        assert sizes[examples[0]] >= sizes[examples[1]]

    def test_describe_output(self):
        vectors, names = synthetic_vectors()
        text = cluster_behaviours(vectors, names, random_state=0).describe()
        assert "behaviour categories" in text
        assert "centroid" in text

    def test_invalid_inputs(self):
        vectors, names = synthetic_vectors()
        with pytest.raises(ValueError, match="normalize"):
            cluster_behaviours(vectors, names, normalize="bogus")
        with pytest.raises(ValueError, match="disagree"):
            cluster_behaviours(vectors, names[:-1])
        with pytest.raises(ValueError, match="2-dimensional"):
            cluster_behaviours(vectors[0], ["x"])

    def test_shape_normalization_ignores_magnitude(self):
        # Two groups identical in shape, wildly different in magnitude,
        # plus one group with a different shape: shape clustering must
        # merge the first two.
        rng = np.random.default_rng(1)
        shape_a = np.linspace(1.0, 2.0, 5)
        group1 = shape_a + rng.normal(scale=0.005, size=(8, 5))
        group2 = 10 * (shape_a + rng.normal(scale=0.005, size=(8, 5)))
        group3 = np.linspace(2.0, 1.0, 5) + rng.normal(scale=0.005, size=(8, 5))
        vectors = np.vstack([group1, group2, group3])
        names = [f"w{i}" for i in range(24)]
        clusters = cluster_behaviours(vectors, names, k=2, random_state=0)
        assert clusters.labels[0] == clusters.labels[8]
        assert clusters.labels[0] != clusters.labels[16]


class TestClusterTrainingSet:
    def test_on_real_corpus(self):
        amd = amd_opteron_6272()
        corpus = paper_workloads() + WorkloadGenerator(
            seed=42, jitter=0.12
        ).sample(30)
        ts = build_training_set(amd, 16, corpus)
        clusters = cluster_training_set(ts, random_state=0)
        # The paper found six categories; the reproduction's corpus gives a
        # similar granularity.
        assert 4 <= clusters.k <= 8
        assert clusters.silhouette > 0.3
        assert len(clusters.names) == len(ts)
