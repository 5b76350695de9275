"""Univariate component selection (paper section 3.2).

The most important features are found by accumulating, per feature, the
loss reduction recorded at every forest node where the feature is tested —
the statistic "most forest training libraries store".  F' is the top of
that ranking, its size chosen by the analyst.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ForestValidationError, SelectionError
from .node_table import accumulate_importance, forest_table

__all__ = [
    "forest_feature_gains",
    "forest_split_counts",
    "select_univariate",
    "feature_thresholds",
]


def _forest_table(forest):
    """The node table of a forest that reports trees and ``n_features_``."""
    if not getattr(forest, "trees_", None):
        raise ForestValidationError("forest is not fitted (empty trees_)")
    if getattr(forest, "n_features_", None) is None:
        raise ForestValidationError("forest does not report n_features_")
    return forest_table(forest)


def forest_feature_gains(forest) -> np.ndarray:
    """Accumulated split gain per feature across the whole forest.

    The same sums, bit for bit, as ``forest.feature_importance("gain")``:
    both are :func:`~repro.core.node_table.accumulate_importance`.
    """
    table = _forest_table(forest)
    return accumulate_importance(table, int(forest.n_features_), "gain")


def forest_split_counts(forest) -> np.ndarray:
    """Number of splits per feature across the whole forest.

    The fallback importance for forests whose serialization stripped the
    per-node gains: split frequency still ranks the load-bearing features.
    """
    table = _forest_table(forest)
    return accumulate_importance(table, int(forest.n_features_), "split")


def select_univariate(
    forest, n_features: int | None = None, importance: str = "gain"
) -> list[int]:
    """F': feature indices ranked by importance, best first.

    ``importance`` is ``"gain"`` (the paper's accumulated loss reduction)
    or ``"split"`` (split counts, for gain-less forest dumps).  Only
    features actually used by the forest qualify; ``n_features=None``
    keeps all of them (the naive strategy F).  Asking for more features
    than have positive accumulated importance clamps to the available
    count (with a warning) rather than failing.
    """
    if importance == "gain":
        gains = forest_feature_gains(forest)
    elif importance == "split":
        gains = forest_split_counts(forest)
    else:
        raise SelectionError("importance must be 'gain' or 'split'")
    used = np.nonzero(gains > 0.0)[0]
    if used.size == 0:
        raise SelectionError("the forest contains no splits; nothing to explain")
    ranked = used[np.argsort(-gains[used], kind="stable")]
    if n_features is not None:
        if n_features < 1:
            raise SelectionError("n_features must be >= 1")
        if n_features > used.size:
            warnings.warn(
                f"requested {n_features} univariate components but only "
                f"{used.size} features have positive {importance} "
                f"importance; clamping |F'| to {used.size}",
                stacklevel=2,
            )
        ranked = ranked[:n_features]
    return [int(f) for f in ranked]


def feature_thresholds(forest) -> list[np.ndarray]:
    """V_i per feature: the sorted thresholds occurring in the forest.

    Thresholds are kept *with multiplicity*: density-driven sampling
    strategies (K-Quantile, K-Means, Equi-Size) rely on how often the
    forest splits in a region, not just on where.
    """
    table = _forest_table(forest)
    n_features = int(forest.n_features_)
    feats = table.feature[table.internal]
    thrs = table.threshold[table.internal].astype(np.float64)
    # One grouped pass: sort by (feature, threshold), then split per feature.
    order = np.lexsort((thrs, feats))
    counts = np.bincount(feats, minlength=n_features)
    grouped = np.split(thrs[order], np.cumsum(counts)[:-1])
    return [np.ascontiguousarray(g) for g in grouped]
