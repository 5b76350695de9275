"""One-vs-rest multiclass gradient boosting.

The paper evaluates binary classification and regression; multiclass
forests are the natural next target ("no strict assumption is made on the
forest in input").  This model trains one binary GBDT per class on
one-vs-rest labels and normalizes the per-class probabilities.  Each
per-class forest individually satisfies the forest protocol, so GEF can
explain *per-class score surfaces* out of the box:

    explanation_k = GEF(...).explain(model.forest_for_class(k))
"""

from __future__ import annotations

import numpy as np

from .boosting import GradientBoostingClassifier

__all__ = ["OneVsRestGBDTClassifier"]


class OneVsRestGBDTClassifier:
    """Multiclass GBDT via one binary (logistic) forest per class.

    Parameters mirror :class:`GradientBoostingClassifier` and are shared
    by every per-class forest.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        num_leaves: int = 31,
        max_depth: int = -1,
        min_samples_leaf: int = 20,
        reg_lambda: float = 1.0,
        subsample: float = 1.0,
        random_state: int | None = None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.num_leaves = num_leaves
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.reg_lambda = reg_lambda
        self.subsample = subsample
        self.random_state = random_state

        self.classes_: np.ndarray | None = None
        self.forests_: list[GradientBoostingClassifier] = []
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "OneVsRestGBDTClassifier":
        """Fit one binary forest per distinct label in ``y``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D and aligned with y")
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least two classes")
        if len(self.classes_) == 2:
            raise ValueError(
                "binary problems should use GradientBoostingClassifier directly"
            )
        self.n_features_ = X.shape[1]
        self.forests_ = []
        for index, label in enumerate(self.classes_):
            forest = GradientBoostingClassifier(
                n_estimators=self.n_estimators,
                learning_rate=self.learning_rate,
                num_leaves=self.num_leaves,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
                subsample=self.subsample,
                random_state=(
                    None if self.random_state is None else self.random_state + index
                ),
            )
            forest.fit(X, (y == label).astype(np.float64))
            self.forests_.append(forest)
        return self

    def _check_fitted(self) -> None:
        if not self.forests_:
            raise RuntimeError("model is not fitted")

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        """Per-class raw (log-odds) scores, shape ``(n, n_classes)``.

        Each column is one binary forest's ``predict_raw``, so the
        multiclass score matrix is a per-class reshape of engine passes.
        """
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.column_stack([f.predict_raw(X) for f in self.forests_])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, shape ``(n, n_classes)``.

        Per-class one-vs-rest probabilities renormalized to sum to one
        (the standard OvR calibration).
        """
        from .losses import sigmoid

        proba = sigmoid(self.predict_raw(X))
        totals = proba.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        return proba / totals

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class label per row."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    def forest_for_class(self, label) -> GradientBoostingClassifier:
        """The binary forest scoring ``label`` vs. the rest.

        This is the handle GEF consumes to explain one class's score.
        """
        self._check_fitted()
        matches = np.nonzero(self.classes_ == label)[0]
        if matches.size == 0:
            raise KeyError(f"unknown class label {label!r}")
        return self.forests_[int(matches[0])]

    @property
    def n_classes_(self) -> int:
        """Number of classes seen at fit time."""
        self._check_fitted()
        return len(self.classes_)
