"""Partial dependence functions (1-D and 2-D) and ICE curves.

Partial dependence marginalizes a model over a background sample:

    PD_S(v) = (1/N) * sum_k f(x_k with features S replaced by v)

GEF uses PDs in two places: the H-Stat interaction heuristic (Friedman's
H^2 is built from centered PDs) and the SHAP-style global comparison plots.

All evaluators batch the grid x background product into as few predict
calls as possible (forests pay a fixed vectorized-descent cost per call),
chunking to bound peak memory.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_predict_fn",
    "ice_curves",
    "partial_dependence_1d",
    "partial_dependence_2d",
    "pd_at_points",
]

#: Upper bound on the number of rows materialized per predict call.
_MAX_BATCH_ROWS = 200_000


def as_predict_fn(model_or_fn):
    """Coerce a forest-protocol model or a callable into a predict function.

    Every evaluator here accepts either a raw callable or a fitted forest;
    forests are mapped to their ``predict_raw``, which dispatches to the
    bitvector engine — the batched grid x background products built below
    are exactly the large calls its per-call setup amortizes best.
    """
    predict_raw = getattr(model_or_fn, "predict_raw", None)
    if predict_raw is not None and not callable(model_or_fn):
        return predict_raw
    if not callable(model_or_fn):
        raise TypeError("expected a callable or a model with predict_raw")
    return model_or_fn


def _validate_background(background: np.ndarray) -> np.ndarray:
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    if background.shape[0] == 0:
        raise ValueError("background sample is empty")
    return background


def _batched_pd(
    predict_fn,
    background: np.ndarray,
    columns: list[int],
    points: np.ndarray,
) -> np.ndarray:
    """Mean prediction over the background for every row of ``points``.

    Builds (points-chunk x background) product matrices and issues one
    predict call per chunk.
    """
    n_bg = background.shape[0]
    m = len(points)
    out = np.empty(m)
    chunk = max(1, _MAX_BATCH_ROWS // n_bg)
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        block = np.tile(background, (hi - lo, 1))
        for c, col in enumerate(columns):
            block[:, col] = np.repeat(points[lo:hi, c], n_bg)
        preds = np.asarray(predict_fn(block), dtype=np.float64)
        out[lo:hi] = preds.reshape(hi - lo, n_bg).mean(axis=1)
    return out


def partial_dependence_1d(
    predict_fn,
    background: np.ndarray,
    feature: int,
    grid: np.ndarray,
    center: bool = False,
) -> np.ndarray:
    """PD of one feature evaluated on ``grid``.

    With ``center=True`` the mean over the grid evaluations is subtracted
    (Friedman's convention).
    """
    predict_fn = as_predict_fn(predict_fn)
    background = _validate_background(background)
    grid = np.asarray(grid, dtype=np.float64).ravel()
    pd_vals = _batched_pd(predict_fn, background, [feature], grid[:, None])
    if center:
        pd_vals -= pd_vals.mean()
    return pd_vals


def partial_dependence_2d(
    predict_fn,
    background: np.ndarray,
    feature_i: int,
    feature_j: int,
    grid_i: np.ndarray,
    grid_j: np.ndarray,
    center: bool = False,
) -> np.ndarray:
    """PD surface of a feature pair on the cartesian grid (``(gi, gj)``)."""
    predict_fn = as_predict_fn(predict_fn)
    background = _validate_background(background)
    grid_i = np.asarray(grid_i, dtype=np.float64).ravel()
    grid_j = np.asarray(grid_j, dtype=np.float64).ravel()
    mesh_i, mesh_j = np.meshgrid(grid_i, grid_j, indexing="ij")
    points = np.column_stack([mesh_i.ravel(), mesh_j.ravel()])
    flat = _batched_pd(predict_fn, background, [feature_i, feature_j], points)
    surface = flat.reshape(len(grid_i), len(grid_j))
    if center:
        surface -= surface.mean()
    return surface


def pd_at_points(
    predict_fn,
    background: np.ndarray,
    features: tuple[int, ...],
    points: np.ndarray,
    center: bool = True,
) -> np.ndarray:
    """PD of a feature subset evaluated at arbitrary points (H-Stat helper).

    ``points`` has shape ``(m, len(features))``; the result has shape
    ``(m,)``.
    """
    predict_fn = as_predict_fn(predict_fn)
    background = _validate_background(background)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != len(features):
        raise ValueError("points width must match the number of features")
    out = _batched_pd(predict_fn, background, list(features), points)
    if center:
        out -= out.mean()
    return out


def ice_curves(
    predict_fn,
    background: np.ndarray,
    feature: int,
    grid: np.ndarray,
) -> np.ndarray:
    """Individual Conditional Expectation curves, shape ``(n_rows, n_grid)``."""
    predict_fn = as_predict_fn(predict_fn)
    background = _validate_background(background)
    grid = np.asarray(grid, dtype=np.float64).ravel()
    work = background.copy()
    curves = np.empty((background.shape[0], len(grid)))
    for g, value in enumerate(grid):
        work[:, feature] = value
        curves[:, g] = predict_fn(work)
    return curves
