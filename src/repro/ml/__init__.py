"""From-scratch machine-learning substrate.

The paper uses a multi-output Random Forest regressor (Section 5), k-means
clustering with silhouette-based model selection (Figure 3), and Sequential
Forward Selection for the HPE baseline's features.  scikit-learn is not
available in this environment, so this subpackage implements the needed
algorithms on plain numpy:

* :mod:`repro.ml.tree` — multi-output CART regression trees, grown for
  a whole forest at once (one batched pass per distinct node size) and
  born as flat node arrays;
* :mod:`repro.ml.forest` — bagged random forests over those trees;
* :mod:`repro.ml.arena` — arena-compiled forest inference: whole-forest
  prediction from per-feature bit tables (QuickScorer), with a lock-step
  numpy descent for forests the tables do not fit;
* :mod:`repro.ml.kmeans` — k-means++ with Lloyd iterations and the
  silhouette coefficient;
* :mod:`repro.ml.selection` — sequential forward feature selection;
* :mod:`repro.ml.validation` — k-fold and leave-one-group-out splitters;
* :mod:`repro.ml.metrics` — regression error metrics.

Everything is deterministic given a ``random_state``.
"""

from repro._lazy import lazy_exports

#: Public name -> the module that defines it, imported on first read.
_EXPORTS = {
    "ARENA_STATS": "repro.ml.arena",
    "ForestArena": "repro.ml.arena",
    "predict_fused": "repro.ml.arena",
    "DecisionTreeRegressor": "repro.ml.tree",
    "RandomForestRegressor": "repro.ml.forest",
    "KMeans": "repro.ml.kmeans",
    "silhouette_score": "repro.ml.kmeans",
    "choose_k_by_silhouette": "repro.ml.kmeans",
    "sequential_forward_selection": "repro.ml.selection",
    "KFold": "repro.ml.validation",
    "LeaveOneGroupOut": "repro.ml.validation",
    "cross_val_score": "repro.ml.validation",
    "mean_absolute_error": "repro.ml.metrics",
    "mean_absolute_percentage_error": "repro.ml.metrics",
    "mean_squared_error": "repro.ml.metrics",
    "root_mean_squared_error": "repro.ml.metrics",
    "r2_score": "repro.ml.metrics",
    "max_error": "repro.ml.metrics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
