"""Gradient-boosted decision trees (the LightGBM stand-in).

A minimal but faithful reproduction of the training loop the paper relies
on: second-order gradient boosting with leaf-wise histogram trees, shrinkage,
optional row subsampling, and early stopping on a validation set.  The
trained model exposes its full structure (``trees_``), which is the only
thing GEF consumes.

The additive model is ``raw(x) = init_score_ + sum_t tree_t(x)``, with the
learning rate already folded into each tree's leaf values.
"""

from __future__ import annotations

import numpy as np

from .binning import BinMapper
from .grower import TreeGrowerParams, grow_tree
from .losses import get_loss
from .engines import (
    dispatch_predict_raw,
    dispatch_staged_predict_raw,
    invalidate_model_caches,
)
from .tree import Tree, accumulate_importance
from .._rng import as_generator

__all__ = ["GradientBoostingRegressor", "GradientBoostingClassifier"]


class _BaseGradientBoosting:
    """Shared fitting machinery for the regressor and the classifier."""

    _objective: str  # set by subclasses

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        num_leaves: int = 31,
        max_depth: int = -1,
        min_samples_leaf: int = 20,
        reg_lambda: float = 1.0,
        min_split_gain: float = 0.0,
        subsample: float = 1.0,
        max_bins: int = 255,
        early_stopping_rounds: int | None = None,
        random_state: int | np.random.Generator | None = None,
    ):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.num_leaves = num_leaves
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.min_split_gain = min_split_gain
        self.subsample = subsample
        self.max_bins = max_bins
        self.early_stopping_rounds = early_stopping_rounds
        self.random_state = random_state

        self.trees_: list[Tree] = []
        self.init_score_: float = 0.0
        self.n_features_: int | None = None
        self.best_iteration_: int | None = None
        self.train_losses_: list[float] = []
        self.valid_losses_: list[float] = []

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "_BaseGradientBoosting":
        """Fit the boosted ensemble; optionally early-stop on ``eval_set``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y):
            raise ValueError("X and y have inconsistent lengths")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("X and y must be finite (no NaN/inf)")
        if self.early_stopping_rounds is not None and eval_set is None:
            raise ValueError("early stopping requires an eval_set")

        rng = as_generator(self.random_state)
        loss = get_loss(self._objective)
        if loss.is_classification:
            self._check_binary_targets(y)

        mapper = BinMapper(self.max_bins)
        binned = mapper.fit_transform(X)
        params = TreeGrowerParams(
            num_leaves=self.num_leaves,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_child_weight=1e-3,
            reg_lambda=self.reg_lambda,
            min_split_gain=self.min_split_gain,
        )

        self.n_features_ = X.shape[1]
        self.init_score_ = loss.init_score(y)
        self.trees_ = []
        self.train_losses_ = []
        self.valid_losses_ = []
        raw = np.full(len(y), self.init_score_)

        if eval_set is not None:
            X_val = np.asarray(eval_set[0], dtype=np.float64)
            y_val = np.asarray(eval_set[1], dtype=np.float64).ravel()
            raw_val = np.full(len(y_val), self.init_score_)
        best_val = np.inf
        rounds_since_best = 0
        self.best_iteration_ = None

        n = len(y)
        for _ in range(self.n_estimators):
            grad, hess = loss.gradient_hessian(y, raw)
            rows = None
            if self.subsample < 1.0:
                m = max(1, int(round(self.subsample * n)))
                rows = rng.choice(n, size=m, replace=False)
            tree = grow_tree(binned, grad, hess, mapper, params, rows=rows)
            # Fold shrinkage into the stored leaf values so that the model is
            # exactly `init + sum(trees)` for any downstream consumer.
            tree.value *= self.learning_rate
            self.trees_.append(tree)

            raw += tree.predict(X)
            self.train_losses_.append(loss.loss(y, raw))

            if eval_set is not None:
                raw_val += tree.predict(X_val)
                val_loss = loss.loss(y_val, raw_val)
                self.valid_losses_.append(val_loss)
                if val_loss < best_val - 1e-12:
                    best_val = val_loss
                    self.best_iteration_ = len(self.trees_)
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if (
                        self.early_stopping_rounds is not None
                        and rounds_since_best >= self.early_stopping_rounds
                    ):
                        break

        if self.early_stopping_rounds is not None and self.best_iteration_:
            del self.trees_[self.best_iteration_ :]
        invalidate_model_caches(self)
        return self

    @staticmethod
    def _check_binary_targets(y: np.ndarray) -> None:
        labels = np.unique(y)
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError(f"binary targets must be 0/1, got labels {labels}")

    # ------------------------------------------------------------------
    # prediction and structure access
    # ------------------------------------------------------------------
    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        """Raw additive score ``init + sum_t tree_t(x)``.

        Evaluated by the traversal-free bitvector engine unless the loop
        is selected or the forest cannot be encoded; the per-tree loop
        below is the bitwise-identical reference.
        """
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        engine_out = dispatch_predict_raw(self, X)
        if engine_out is not None:
            return engine_out
        raw = np.full(X.shape[0], self.init_score_)
        for tree in self.trees_:
            raw += tree.predict(X)
        return raw

    @property
    def n_trees_(self) -> int:
        """Number of trees in the fitted ensemble."""
        return len(self.trees_)

    def staged_predict_raw(self, X: np.ndarray):
        """Yield the raw score after each boosting stage (learning curve)."""
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        stages = dispatch_staged_predict_raw(self, X)
        if stages is not None:
            yield from stages
            return
        raw = np.full(X.shape[0], self.init_score_)
        for tree in self.trees_:
            raw = raw + tree.predict(X)
            yield raw.copy()

    def feature_importance(self, importance_type: str = "gain") -> np.ndarray:
        """Accumulated split gain (or split count) per feature.

        This is the statistic GEF's univariate feature selection sorts by.
        """
        self._check_fitted()
        return accumulate_importance(self.trees_, self.n_features_, importance_type)

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("model is not fitted")


class GradientBoostingRegressor(_BaseGradientBoosting):
    """GBDT regressor with L2 loss (LightGBM's ``regression`` objective)."""

    _objective = "l2"

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted regression target."""
        return self.predict_raw(X)


class GradientBoostingClassifier(_BaseGradientBoosting):
    """Binary GBDT classifier with logistic loss (``binary`` objective)."""

    _objective = "binary"

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class."""
        from .losses import sigmoid

        return sigmoid(self.predict_raw(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Hard 0/1 class label at the 0.5 probability threshold."""
        return (self.predict_proba(X) >= 0.5).astype(np.int64)
