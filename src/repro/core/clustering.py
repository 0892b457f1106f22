"""Behaviour categories (Section 5, Figure 3).

Workloads "naturally fall into several categories, according to the shapes
of their performance vectors".  This module clusters performance vectors
with k-means, chooses k by the average silhouette coefficient (the paper's
rule; six categories emerged on their systems), and exposes the per-cluster
membership and centroid shapes that Figure 3 plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.training import TrainingSet
from repro.ml.kmeans import KMeans, choose_k_by_silhouette, silhouette_score


@dataclass
class BehaviourClusters:
    """Result of clustering performance vectors."""

    names: List[str]
    vectors: np.ndarray
    labels: np.ndarray
    centroids: np.ndarray
    k: int
    silhouette: float
    silhouette_by_k: Dict[int, float]

    def members(self, label: int) -> List[str]:
        """Workload names in one cluster."""
        if not 0 <= label < self.k:
            raise ValueError(f"label {label} out of range [0, {self.k})")
        return [
            name
            for name, assigned in zip(self.names, self.labels)
            if assigned == label
        ]

    def cluster_sizes(self) -> Dict[int, int]:
        return {
            label: int((self.labels == label).sum()) for label in range(self.k)
        }

    def example_clusters(self, n: int = 2) -> List[int]:
        """The ``n`` most populated clusters — what Figure 3 shows two of."""
        sizes = self.cluster_sizes()
        return sorted(sizes, key=lambda label: -sizes[label])[:n]

    def describe(self) -> str:
        lines = [
            f"{self.k} behaviour categories "
            f"(mean silhouette {self.silhouette:.3f})"
        ]
        for label in range(self.k):
            members = self.members(label)
            shape = ", ".join(f"{v:.2f}" for v in self.centroids[label])
            lines.append(
                f"  category {label}: {len(members)} workloads "
                f"(e.g. {', '.join(members[:4])})"
            )
            lines.append(f"    centroid: [{shape}]")
        return "\n".join(lines)


def cluster_behaviours(
    vectors: np.ndarray,
    names: Sequence[str],
    *,
    k: int | None = None,
    k_min: int = 2,
    k_max: int = 10,
    normalize: str = "shape",
    random_state: int = 0,
) -> BehaviourClusters:
    """Cluster performance vectors into behaviour categories.

    Parameters
    ----------
    vectors:
        (n_workloads, n_placements) relative-performance matrix.
    names:
        Workload names aligned with the rows.
    k:
        Fixed cluster count; chosen by maximum silhouette when None.
    normalize:
        ``"shape"`` (default) divides each vector by its mean so clustering
        groups by the *shape* of the response — what Figure 3 depicts —
        rather than by overall magnitude, which would otherwise dominate
        the distances for strongly placement-sensitive workloads.
        ``"none"`` clusters the raw vectors.
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError("vectors must be 2-dimensional")
    if len(names) != len(vectors):
        raise ValueError("names and vectors disagree on workload count")
    if normalize not in ("shape", "none"):
        raise ValueError(f"unknown normalize mode {normalize!r}")
    features = (
        vectors / vectors.mean(axis=1, keepdims=True)
        if normalize == "shape"
        else vectors
    )

    silhouette_by_k: Dict[int, float] = {}
    if k is None:
        k, silhouette_by_k = choose_k_by_silhouette(
            features, k_min=k_min, k_max=k_max, random_state=random_state
        )
    model = KMeans(k, random_state=random_state)
    labels = model.fit_predict(features)
    score = (
        silhouette_score(features, labels)
        if len(np.unique(labels)) > 1
        else 0.0
    )
    assert model.cluster_centers_ is not None
    return BehaviourClusters(
        names=list(names),
        vectors=vectors,
        labels=labels,
        centroids=model.cluster_centers_,
        k=k,
        silhouette=score,
        silhouette_by_k=silhouette_by_k,
    )


def cluster_training_set(
    training_set: TrainingSet,
    *,
    k: int | None = None,
    normalize: str = "shape",
    random_state: int = 0,
) -> BehaviourClusters:
    """Cluster a training set's performance vectors (Figure 3's input)."""
    return cluster_behaviours(
        training_set.vectors,
        training_set.names,
        k=k,
        normalize=normalize,
        random_state=random_state,
    )
