"""Performance-prediction models (Section 5).

Two model variants, matching the paper's comparison:

* :class:`PlacementModel` — the paper's contribution.  Inputs are the
  measured performance (IPC) of the container in **two** important
  placements; output is the predicted relative-performance vector over all
  important placements.  The input pair is selected automatically during
  training by cross-validated search, and the first element of the chosen
  pair becomes the baseline every vector is normalized to ("the baseline
  placement can be any of the two placements whose performance is required
  as the input").

* :class:`HpeModel` — the conventional baseline.  Inputs are hardware
  performance events measured in a **single** placement, with the most
  predictive events chosen by Sequential Forward Selection.  Section 6 shows
  (and this reproduction confirms) that it is markedly less reliable: the
  characteristics that shape performance vectors most — communication
  latency sensitivity, whether the working set will fit a different cache
  count — are simply not visible in single-placement counters.

Both models are thin wrappers around the multi-output random forest in
:mod:`repro.ml.forest` and share the evaluation interface used by
:func:`repro.core.training.leave_one_workload_out`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.training import TrainingSet
from repro.ml.forest import RandomForestRegressor
from repro.ml.selection import sequential_forward_selection
from repro.ml.validation import KFold


@dataclass
class ModelEvaluation:
    """Summary of a model's cross-validated accuracy (used by benchmarks)."""

    model_name: str
    per_workload_mape: dict
    mean_mape: float
    worst_workload: str
    fit_seconds: float = 0.0


def _pair_features(ipc_i: np.ndarray, ipc_j: np.ndarray) -> np.ndarray:
    """Feature matrix from two performance observations.

    Raw IPCs are comparable across workloads (memory-bound applications run
    at low IPC everywhere), and their ratio isolates the placement response;
    the forest gets both views.  Takes arrays: callers convert.
    """
    if (ipc_i <= 0).any():
        raise ValueError("performance observations must be positive")
    features = np.empty((len(ipc_i), 3))
    features[:, 0] = ipc_i
    features[:, 1] = ipc_j
    np.divide(ipc_j, ipc_i, out=features[:, 2])
    return features


class PlacementModel:
    """The two-observation multi-output random forest (Section 5).

    Parameters
    ----------
    input_pair:
        Force a specific (i, j) placement-index pair instead of searching.
    n_estimators:
        Forest size of the final model.
    selection_estimators, selection_folds:
        Cheaper forest/CV used during the pair search (the search fits a
        model per candidate pair per fold; the paper reports training takes
        seconds, so the search must stay light).
    candidate_pairs:
        Restrict the search space (all index pairs by default).
    random_state:
        Seed for all forests.
    """

    def __init__(
        self,
        *,
        input_pair: Tuple[int, int] | None = None,
        n_estimators: int = 100,
        selection_estimators: int = 12,
        selection_folds: int = 3,
        candidate_pairs: Sequence[Tuple[int, int]] | None = None,
        pair_search: str = "exhaustive",
        random_state: int = 0,
    ) -> None:
        if pair_search not in ("exhaustive", "halving"):
            raise ValueError(
                f"pair_search must be 'exhaustive' or 'halving', "
                f"got {pair_search!r}"
            )
        self.input_pair = input_pair
        self.n_estimators = n_estimators
        self.selection_estimators = selection_estimators
        self.selection_folds = selection_folds
        self.candidate_pairs = (
            [tuple(p) for p in candidate_pairs] if candidate_pairs else None
        )
        self.pair_search = pair_search
        self.random_state = random_state
        self._forest: RandomForestRegressor | None = None
        self._n_placements: int | None = None
        self.selection_errors_: dict | None = None
        self.search_evaluations_: int = 0
        self.fit_seconds_: float = 0.0

    # ------------------------------------------------------------------

    def _pair_cv_error(
        self,
        ipc: np.ndarray,
        pair: Tuple[int, int],
        *,
        n_repeats: int = 2,
        n_estimators: int | None = None,
    ) -> float:
        """Mean relative CV error of a light forest using this input pair.

        Repeated k-fold (two shuffles by default) keeps the pair ranking
        stable against fold-assignment luck; a noisy criterion here would
        make the selected pair — and hence the whole trained model —
        irreproducible.
        """
        i, j = pair
        X = _pair_features(ipc[:, i], ipc[:, j])
        # Targets: the whole vector normalized to placement i.
        Y = ipc / ipc[:, i : i + 1]
        n = len(X)
        folds = min(self.selection_folds, n)
        if folds < 2:
            raise ValueError("need at least 2 samples to select a pair")
        if n_estimators is None:
            n_estimators = self.selection_estimators
        errors: List[float] = []
        for repeat in range(n_repeats):
            splitter = KFold(
                folds, shuffle=True, random_state=self.random_state + repeat
            )
            for train, test in splitter.split(n):
                forest = RandomForestRegressor(
                    n_estimators=n_estimators,
                    random_state=self.random_state,
                )
                forest.fit(X[train], Y[train])
                predicted = forest.predict(X[test])
                errors.append(
                    float(
                        np.mean(np.abs(predicted - Y[test]) / np.abs(Y[test]))
                    )
                )
        return float(np.mean(errors))

    def _search_pair_halving(
        self, ipc: np.ndarray, pairs: List[Tuple[int, int]]
    ) -> Tuple[int, int]:
        """Budgeted pair search via successive halving (see
        :mod:`repro.ml.search`): cheap single-repeat screening of every
        pair, then progressively better estimates for the survivors."""
        from repro.ml.search import successive_halving

        budgets = [(4, 1), (8, 1), (self.selection_estimators, 2)]
        result = successive_halving(
            pairs,
            lambda pair, budget: self._pair_cv_error(
                ipc, pair, n_estimators=budget[0], n_repeats=budget[1]
            ),
            budgets,
        )
        self.selection_errors_ = dict(result.losses)
        self.search_evaluations_ = result.evaluations
        return result.best

    def fit(self, training_set: TrainingSet) -> "PlacementModel":
        start = time.perf_counter()
        ipc = training_set.ipc
        n_placements = training_set.n_placements

        if self.input_pair is None:
            # Ordered pairs: (i, j) normalizes to i, (j, i) to j.
            pairs = self.candidate_pairs or list(
                itertools.permutations(range(n_placements), 2)
            )
            if self.pair_search == "halving":
                self.input_pair = self._search_pair_halving(ipc, pairs)
            else:
                errors = {}
                for pair in pairs:
                    errors[pair] = self._pair_cv_error(ipc, pair)
                self.selection_errors_ = errors
                self.search_evaluations_ = 2 * len(pairs)
                self.input_pair = min(errors, key=errors.get)

        i, j = self.input_pair
        if not (0 <= i < n_placements and 0 <= j < n_placements and i != j):
            raise ValueError(f"invalid input pair {self.input_pair}")
        X = _pair_features(ipc[:, i], ipc[:, j])
        Y = ipc / ipc[:, i : i + 1]
        self._forest = RandomForestRegressor(
            n_estimators=self.n_estimators, random_state=self.random_state
        )
        self._forest.fit(X, Y)
        self._n_placements = n_placements
        self.fit_seconds_ = time.perf_counter() - start
        return self

    def warm_refit(
        self,
        training_set: TrainingSet,
        *,
        n_grow: int = 16,
        tree_budget: int | None = None,
    ) -> "PlacementModel":
        """A new model continuing this one's forest on an extended corpus.

        The grow-and-prune budget discipline of online retraining: the
        candidate starts from the incumbent's trees (they are read-only
        once fitted, so sharing them is safe), grows ``n_grow`` fresh trees
        on the extended training set, then prunes the *oldest* trees back
        to ``tree_budget`` (default: the incumbent's size, so serving cost
        stays flat across retrains).  The input pair is inherited — the
        predicted vectors of incumbent and candidate stay normalized to the
        same baseline placement, which is what makes their shadow-mode
        errors directly comparable.

        Returns a fresh :class:`PlacementModel`; the incumbent is not
        modified and keeps serving until the candidate is promoted.
        """
        if self._forest is None or self.input_pair is None:
            raise RuntimeError("warm_refit() called before fit()")
        if training_set.n_placements != self._n_placements:
            raise ValueError(
                f"training set has {training_set.n_placements} placements, "
                f"model was fitted for {self._n_placements}"
            )
        if tree_budget is None:
            tree_budget = len(self._forest.trees_)
        start = time.perf_counter()
        i, j = self.input_pair
        ipc = training_set.ipc
        X = _pair_features(ipc[:, i], ipc[:, j])
        Y = ipc / ipc[:, i : i + 1]

        forest = RandomForestRegressor(
            n_estimators=len(self._forest.trees_),
            random_state=self.random_state,
        )
        forest.trees_ = list(self._forest.trees_)
        forest.grow(X, Y, n_grow)
        forest.prune(tree_budget)

        candidate = PlacementModel(
            input_pair=self.input_pair,
            n_estimators=len(forest.trees_),
            random_state=self.random_state,
        )
        candidate._forest = forest
        candidate._n_placements = self._n_placements
        candidate.fit_seconds_ = time.perf_counter() - start
        return candidate

    # ------------------------------------------------------------------

    @property
    def baseline_index(self) -> int:
        """The placement the predicted vectors are normalized to."""
        if self.input_pair is None:
            raise RuntimeError("model is not fitted")
        return self.input_pair[0]

    @property
    def forest(self) -> RandomForestRegressor:
        """The fitted forest — :func:`repro.ml.arena.predict_fused`
        evaluates many models' forests in one call and needs direct
        access."""
        if self._forest is None:
            raise RuntimeError("model is not fitted")
        return self._forest

    def batch_features(
        self, perf_i: Sequence[float], perf_j: Sequence[float]
    ) -> np.ndarray:
        """The forest's feature matrix for aligned observations — exactly
        what :meth:`predict_batch` feeds its forest, exposed so a fused
        multi-model call can assemble per-group features first.

        The fleet's groups are a handful of Python floats, so the rows
        are built in Python and converted once: ``b / a`` is the IEEE
        divide ``np.divide`` performs, so a row equals
        :func:`_pair_features`'s bit for bit.
        """
        try:
            aligned = len(perf_i) == len(perf_j)
        except TypeError:  # a lone observation is a batch of one
            return self.batch_features(
                np.atleast_1d(perf_i), np.atleast_1d(perf_j)
            )
        if not aligned:
            raise ValueError(
                f"perf_i and perf_j must be equal-length sequences, got "
                f"lengths {len(perf_i)} and {len(perf_j)}"
            )
        rows = []
        for a, b in zip(perf_i, perf_j):
            if a <= 0:
                raise ValueError("performance observations must be positive")
            rows.append((a, b, b / a))
        if not rows:
            return np.empty((0, 3))
        return np.array(rows, dtype=float)

    def predict(self, perf_i: float, perf_j: float) -> np.ndarray:
        """Predicted relative-performance vector from two observations.

        ``perf_i``/``perf_j`` are the measured metric in the input pair's
        placements; the result is relative to the first of the two.
        """
        if self._forest is None:
            raise RuntimeError("predict() called before fit()")
        X = _pair_features(np.array([perf_i]), np.array([perf_j]))
        return self._forest.predict(X)[0]

    def predict_batch(
        self, perf_i: np.ndarray, perf_j: np.ndarray
    ) -> np.ndarray:
        """Predicted vectors for many containers in one vectorized call.

        ``perf_i``/``perf_j`` are aligned arrays of the measured metric in
        the input pair's placements, one entry per container; the result has
        one row per container and is bit-for-bit identical to stacking the
        corresponding single :meth:`predict` calls — the whole batch goes
        through the forest as one matrix (the fleet scheduler's hot path).
        """
        if self._forest is None:
            raise RuntimeError("predict_batch() called before fit()")
        return self._forest.predict(self.batch_features(perf_i, perf_j))

    def predict_many(
        self, perf_i: np.ndarray, perf_j: np.ndarray
    ) -> np.ndarray:
        """Backwards-compatible alias of :meth:`predict_batch`."""
        return self.predict_batch(perf_i, perf_j)

    # Evaluation interface (leave_one_workload_out) ---------------------

    def predict_row(self, training_set: TrainingSet, row: int) -> np.ndarray:
        i, j = self.input_pair
        return self.predict(
            float(training_set.ipc[row, i]), float(training_set.ipc[row, j])
        )

    def actual_row(self, training_set: TrainingSet, row: int) -> np.ndarray:
        i, _ = self.input_pair
        return training_set.ipc[row] / training_set.ipc[row, i]


class HpeModel:
    """The single-placement HPE baseline (Sections 5-6).

    Features are z-scored hardware events measured in the training set's
    baseline placement; the most predictive subset is chosen by Sequential
    Forward Selection.  Output vectors are normalized to that same baseline
    placement.
    """

    def __init__(
        self,
        *,
        features: Sequence[str] | None = None,
        max_features: int = 8,
        n_estimators: int = 100,
        selection_estimators: int = 10,
        selection_folds: int = 3,
        random_state: int = 0,
    ) -> None:
        if max_features < 1:
            raise ValueError("max_features must be >= 1")
        self.features = list(features) if features else None
        self.max_features = max_features
        self.n_estimators = n_estimators
        self.selection_estimators = selection_estimators
        self.selection_folds = selection_folds
        self.random_state = random_state
        self._forest: RandomForestRegressor | None = None
        self._feature_indices: List[int] | None = None
        self._means: np.ndarray | None = None
        self._stds: np.ndarray | None = None
        self._hpe_names: List[str] | None = None
        self.selection_history_: List[float] | None = None
        self.fit_seconds_: float = 0.0

    # ------------------------------------------------------------------

    def _subset_cv_error(
        self, X: np.ndarray, Y: np.ndarray, feature_indices: Sequence[int]
    ) -> float:
        n = len(X)
        folds = min(self.selection_folds, n)
        if folds < 2:
            raise ValueError("need at least 2 samples to select features")
        errors: List[float] = []
        splitter = KFold(folds, shuffle=True, random_state=self.random_state)
        X_sub = X[:, list(feature_indices)]
        for train, test in splitter.split(n):
            forest = RandomForestRegressor(
                n_estimators=self.selection_estimators,
                random_state=self.random_state,
            )
            forest.fit(X_sub[train], Y[train])
            predicted = forest.predict(X_sub[test])
            errors.append(
                float(np.mean(np.abs(predicted - Y[test]) / np.abs(Y[test])))
            )
        return float(np.mean(errors))

    def fit(self, training_set: TrainingSet) -> "HpeModel":
        start = time.perf_counter()
        raw = training_set.hpe_features
        self._hpe_names = list(training_set.hpe_names)
        self._means = raw.mean(axis=0)
        self._stds = raw.std(axis=0)
        self._stds[self._stds == 0] = 1.0
        X = (raw - self._means) / self._stds
        Y = training_set.vectors

        if self.features is not None:
            name_to_index = {n: i for i, n in enumerate(self._hpe_names)}
            unknown = [f for f in self.features if f not in name_to_index]
            if unknown:
                raise ValueError(f"unknown HPE features: {unknown}")
            self._feature_indices = [name_to_index[f] for f in self.features]
        else:
            selected, history = sequential_forward_selection(
                X.shape[1],
                lambda indices: -self._subset_cv_error(X, Y, indices),
                max_features=self.max_features,
            )
            self._feature_indices = selected
            self.selection_history_ = history

        self._forest = RandomForestRegressor(
            n_estimators=self.n_estimators, random_state=self.random_state
        )
        self._forest.fit(X[:, self._feature_indices], Y)
        self.fit_seconds_ = time.perf_counter() - start
        return self

    # ------------------------------------------------------------------

    @property
    def selected_features(self) -> List[str]:
        if self._feature_indices is None or self._hpe_names is None:
            raise RuntimeError("model is not fitted")
        return [self._hpe_names[i] for i in self._feature_indices]

    def predict(self, hpe_values: Sequence[float]) -> np.ndarray:
        """Predict from a full HPE vector (aligned with the training set's
        ``hpe_names``) measured in the baseline placement."""
        if self._forest is None:
            raise RuntimeError("predict() called before fit()")
        values = np.asarray(hpe_values, dtype=float)
        if values.shape != self._means.shape:
            raise ValueError(
                f"expected {self._means.shape[0]} HPE values, got {values.shape}"
            )
        X = ((values - self._means) / self._stds)[self._feature_indices]
        return self._forest.predict(X[None, :])[0]

    # Evaluation interface ----------------------------------------------

    def predict_row(self, training_set: TrainingSet, row: int) -> np.ndarray:
        return self.predict(training_set.hpe_features[row])

    def actual_row(self, training_set: TrainingSet, row: int) -> np.ndarray:
        return training_set.vectors[row]
