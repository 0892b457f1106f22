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

from repro.ml.arena import ARENA_STATS, ForestArena, predict_fused
from repro.ml.tree import DecisionTreeRegressor
from repro.ml.forest import RandomForestRegressor
from repro.ml.kmeans import KMeans, silhouette_score, choose_k_by_silhouette
from repro.ml.selection import sequential_forward_selection
from repro.ml.validation import KFold, LeaveOneGroupOut, cross_val_score
from repro.ml.metrics import (
    mean_absolute_error,
    mean_absolute_percentage_error,
    mean_squared_error,
    root_mean_squared_error,
    r2_score,
    max_error,
)

__all__ = [
    "ARENA_STATS",
    "ForestArena",
    "predict_fused",
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "KMeans",
    "silhouette_score",
    "choose_k_by_silhouette",
    "sequential_forward_selection",
    "KFold",
    "LeaveOneGroupOut",
    "cross_val_score",
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "mean_squared_error",
    "root_mean_squared_error",
    "r2_score",
    "max_error",
]
