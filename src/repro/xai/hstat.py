"""Friedman–Popescu H-statistic for pairwise feature interactions.

For features i and j, with centered partial dependence functions F_i, F_j
and F_ij evaluated at the data points x_k:

    H^2(i, j) = sum_k [F_ij(x_ki, x_kj) - F_i(x_ki) - F_j(x_kj)]^2
                / sum_k F_ij(x_ki, x_kj)^2

H^2 is 0 when the pair's joint effect is exactly additive and grows toward
1 as the interaction dominates.  This is GEF's most expensive interaction
heuristic — O(N * |F'|^2) forest evaluations — used as the accuracy
reference for the cheap structural heuristics.
"""

from __future__ import annotations

import numpy as np

from .pdp import as_predict_fn, pd_at_points

__all__ = ["h_statistic", "h_statistic_matrix"]


def h_statistic(
    predict_fn,
    sample: np.ndarray,
    feature_i: int,
    feature_j: int,
    background: np.ndarray | None = None,
) -> float:
    """H^2 of one feature pair, estimated on ``sample``.

    ``background`` defaults to ``sample`` itself (the usual estimator); a
    smaller background can be passed to cut cost.  ``predict_fn`` may be a
    callable or any forest-protocol model (see
    :func:`~repro.xai.pdp.as_predict_fn`).
    """
    return h_statistic_matrix(
        predict_fn, sample, [feature_i, feature_j], background
    )[(feature_i, feature_j)]


def h_statistic_matrix(
    predict_fn,
    sample: np.ndarray,
    features: list[int],
    background: np.ndarray | None = None,
) -> dict[tuple[int, int], float]:
    """H^2 for every unordered pair drawn from ``features``, keyed
    ``(features[a], features[b])`` with ``a < b``.

    The univariate centered PDs are computed once per feature and shared
    across pairs.
    """
    predict_fn = as_predict_fn(predict_fn)
    sample = np.atleast_2d(np.asarray(sample, dtype=np.float64))
    if background is None:
        background = sample
    univariate = {
        f: pd_at_points(predict_fn, background, (f,), sample[:, [f]], center=True)
        for f in features
    }
    scores: dict[tuple[int, int], float] = {}
    for a, fi in enumerate(features):
        for fj in features[a + 1 :]:
            f_ij = pd_at_points(
                predict_fn,
                background,
                (fi, fj),
                sample[:, [fi, fj]],
                center=True,
            )
            denom = float(np.sum(f_ij**2))
            if denom <= 0.0:
                scores[(fi, fj)] = 0.0
            else:
                num = float(np.sum((f_ij - univariate[fi] - univariate[fj]) ** 2))
                scores[(fi, fj)] = num / denom
    return scores
