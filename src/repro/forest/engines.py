"""The fitted-forest base every model shares, and the reference loop.

To GEF a GBDT and a random forest are one kind of object: binary
``x <= v`` trees whose sum plus ``init_score_`` is the raw score.
:class:`FittedForest` holds what both model families need once fitted —
``_check_fitted``, ``n_trees_``, ``feature_importance``, the 0/1 target
check and ``predict_raw``.

``predict_raw`` evaluates the traversal-free bitvector encoding
(:mod:`repro.forest.bitvector`) and runs :func:`loop_predict_raw` for a
forest the encoding declines (non-finite thresholds, trees wider than
``64 * MAX_LEAF_WORDS`` leaves, prefix tables over ``MAX_TABLE_BYTES``).
:func:`loop_predict_raw` and :func:`loop_staged_predict_raw` are the
per-tree loop, the equivalence reference: every engine must match them
bitwise.  A forest freezes on its first predict, fingerprint or node
table (:func:`repro.forest.tree.frozen_state`); a pickle or copy leaves
that state behind, and :func:`invalidate_model_caches` (re-exported)
drops it.
"""

from __future__ import annotations

import numpy as np

from ..core.node_table import NodeTable, accumulate_importance, node_table
from .bitvector import bitvector_for, invalidate_model_caches
from .tree import STATE_KEY, frozen_state

__all__ = [
    "FittedForest",
    "invalidate_model_caches",
    "loop_predict_raw",
    "loop_staged_predict_raw",
]


def loop_predict_raw(model, X) -> np.ndarray:
    """``init_score_ + sum_t tree_t(x)``, one tree at a time, in tree order."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    raw = np.full(X.shape[0], model.init_score_)
    for tree in model.trees_:
        raw += tree.predict(X)
    return raw


def loop_staged_predict_raw(model, X):
    """Yield the loop's running raw score after each tree."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    raw = np.full(X.shape[0], model.init_score_)
    for tree in model.trees_:
        raw = raw + tree.predict(X)  # a new array per stage: callers may keep it
        yield raw


class FittedForest:
    """Structure access and prediction shared by every forest model.

    Subclasses set ``trees_``, ``init_score_`` and ``n_features_`` in ``fit``.
    """

    trees_: list
    init_score_: float
    n_features_: int | None

    def __getstate__(self) -> dict:
        """The model's attributes without its frozen state (pickle, copy)."""
        return {k: v for k, v in self.__dict__.items() if k != STATE_KEY}

    @property
    def n_trees_(self) -> int:
        """Number of trees in the fitted ensemble."""
        return len(self.trees_)

    def predict_raw(self, X: np.ndarray, coding=None) -> np.ndarray:
        """Raw additive score ``init_score_ + sum_t tree_t(x)``.

        Evaluated from the bitvector encoding, or by
        :func:`loop_predict_raw` when the encoding declines the forest;
        the two are bitwise identical.  ``coding`` optionally codes ``X``
        by sampling-domain value (D*, see
        :meth:`~repro.forest.bitvector.BitvectorForest.digitize`); it
        saves work and never changes a bit.
        """
        self._check_fitted()
        encoded = bitvector_for(self)
        if encoded is None:
            return loop_predict_raw(self, X)
        return encoded.predict_raw(X, coding=coding)

    def feature_importance(self, importance_type: str = "gain") -> np.ndarray:
        """Accumulated split gain (or split count) per feature.

        The gain sums are, bit for bit, the ones GEF's univariate feature
        selection (``forest_feature_gains``) ranks F' by.
        """
        self._check_fitted()
        table = self.node_table()
        return accumulate_importance(table, self.n_features_, importance_type)

    def node_table(self) -> NodeTable:
        """This forest's node table, built once per frozen state."""
        return frozen_state(self, "table", lambda _, n, *trees: node_table(trees, n))

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("model is not fitted")  # repro: allow(raise-outside-taxonomy) estimator misuse, not a pipeline failure

    @staticmethod
    def _check_binary_targets(y: np.ndarray) -> None:
        labels = np.unique(y)
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise ValueError(  # repro: allow(raise-outside-taxonomy) estimator misuse, not a pipeline failure
                f"binary targets must be 0/1, got labels {labels}"
            )
