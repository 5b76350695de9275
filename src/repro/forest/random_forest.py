"""Random forests (bagged deep trees), the paper's "future work" forest type.

The paper trains GBDTs but explicitly notes that GEF makes no assumption on
the forest beyond binary ``x <= v`` tests, and names random forests as the
natural next target.  We therefore provide RF training too, built on the
same histogram grower.

To keep every downstream consumer (GEF, TreeSHAP) working on a single forest
protocol — ``prediction = init_score_ + sum of trees`` — each tree's leaf
values are divided by the number of trees at fit time, so that the sum of
the stored trees *is* the bagged average, and prediction is the
:class:`~repro.forest.engines.FittedForest` path the GBDTs use too.
"""

from __future__ import annotations

import numpy as np

from .binning import BinMapper
from .grower import TreeGrowerParams, grow_tree
from .engines import FittedForest
from .tree import Tree
from .._rng import as_generator

__all__ = ["RandomForestRegressor", "RandomForestClassifier"]


class _BaseRandomForest(FittedForest):
    """Shared bagging machinery for the RF regressor and classifier."""

    def __init__(
        self,
        n_estimators: int = 100,
        num_leaves: int = 255,
        max_depth: int = -1,
        min_samples_leaf: int = 5,
        max_features: float | str = "sqrt",
        bootstrap: bool = True,
        max_bins: int = 255,
        random_state: int | np.random.Generator | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.num_leaves = num_leaves
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_bins = max_bins
        self.random_state = random_state

        self.trees_: list[Tree] = []
        self.init_score_: float = 0.0
        self.n_features_: int | None = None
        #: Per-tree bootstrap row sets, kept for out-of-bag scoring.
        self._bootstrap_rows: list[np.ndarray] = []

    def _n_subset_features(self, n_features: int) -> int:
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "all":
            return n_features
        if isinstance(self.max_features, float):
            if not 0.0 < self.max_features <= 1.0:
                raise ValueError("max_features fraction must be in (0, 1]")
            return max(1, int(round(self.max_features * n_features)))
        raise ValueError(f"unsupported max_features: {self.max_features!r}")

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseRandomForest":
        """Fit ``n_estimators`` bagged trees on (X, y)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D and aligned with y")

        rng = as_generator(self.random_state)
        mapper = BinMapper(self.max_bins)
        binned = mapper.fit_transform(X)
        self.n_features_ = X.shape[1]
        n = len(y)
        k = self._n_subset_features(self.n_features_)

        # With grad = -y, hess = 1 and no regularization, the Newton leaf
        # value -G/H is exactly the in-leaf target mean, and split gain is
        # (a constant times) the variance reduction: CART regression trees.
        grad = -y
        hess = np.ones(n)
        params = TreeGrowerParams(
            num_leaves=self.num_leaves,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=0.0,
            reg_lambda=0.0,
            min_split_gain=0.0,
        )

        self.trees_ = []
        self.init_score_ = 0.0
        self._bootstrap_rows = []
        for _ in range(self.n_estimators):
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            subset = rng.choice(self.n_features_, size=k, replace=False)
            tree = grow_tree(
                binned, grad, hess, mapper, params, rows=rows, feature_subset=subset
            )
            tree.value /= self.n_estimators  # sum of trees == bagged average
            self.trees_.append(tree)
            self._bootstrap_rows.append(np.unique(rows))
        return self

    def oob_prediction(self, X: np.ndarray) -> np.ndarray:
        """Out-of-bag prediction for the *training* matrix ``X``.

        Each row is predicted only by the trees whose bootstrap sample did
        not contain it — an honest generalization estimate without a
        held-out split.  Rows that every tree saw get NaN.  Requires
        ``bootstrap=True`` and the same ``X`` that was passed to ``fit``.
        """
        self._check_fitted()
        if not self.bootstrap:
            raise ValueError("OOB predictions require bootstrap=True")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        totals = np.zeros(X.shape[0])
        counts = np.zeros(X.shape[0])
        for tree, in_bag in zip(self.trees_, self._bootstrap_rows):
            mask = np.ones(X.shape[0], dtype=bool)
            valid = in_bag[in_bag < X.shape[0]]
            mask[valid] = False
            if mask.any():
                # Undo the 1/n_estimators scaling to recover tree outputs.
                totals[mask] += tree.predict(X[mask]) * self.n_estimators
                counts[mask] += 1
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, totals / np.maximum(counts, 1), np.nan)


class RandomForestRegressor(_BaseRandomForest):
    """Bagged regression trees; prediction is the per-tree mean."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted regression target (bagged mean)."""
        return self.predict_raw(X)


class RandomForestClassifier(_BaseRandomForest):
    """Bagged classification trees voting with in-leaf class fractions."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        y = np.asarray(y, dtype=np.float64).ravel()
        self._check_binary_targets(y)
        return super().fit(X, y)

    def predict_proba(self, X: np.ndarray, coding=None) -> np.ndarray:
        """Positive-class probability: the bagged mean of leaf fractions
        (``coding`` as in ``predict_raw``)."""
        return np.clip(self.predict_raw(X, coding), 0.0, 1.0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard 0/1 class label at the 0.5 threshold."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)
