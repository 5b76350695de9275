"""Generalized Cross Validation search over the shared smoothing lambda.

The paper selects the penalization coefficients "varying lambda equally for
each term used" via GCV.  For the identity-link / normal case the search is
essentially free: the Gram matrices ``X'X`` and ``X'y`` are accumulated
once, after which every candidate lambda costs a single p-by-p solve.  For
the logistic link each candidate runs PIRLS again.  Both paths build the
training design once and share it across the candidates.
"""

from __future__ import annotations

import numpy as np

from ..core.errors import FitDivergenceError
from ..core.numerics import assert_all_finite, numerics_guard
from ..obs.metrics import inc as metric_inc
from ..obs.trace import span as obs_span
from .model import _blocks, _check_xy

__all__ = ["default_lam_grid", "gcv_gridsearch"]


def default_lam_grid() -> np.ndarray:
    """Log-spaced lambda candidates spanning six orders of magnitude."""
    return np.logspace(-3, 3, 13)


def _identity_gcv_path(gam, D: np.ndarray, y: np.ndarray, lam_grid: np.ndarray):
    """Fast GCV path for the normal/identity GAM via shared Gram matrices."""
    n, p = D.shape
    xtx = np.zeros((p, p))
    xty = np.zeros(p)
    yty = float(y @ y)
    for lo, hi in _blocks(n):
        d = D[lo:hi]
        xtx += d.T @ d
        xty += d.T @ y[lo:hi]

    results = []
    with numerics_guard("GCV scoring (identity path)"):
        for lam in lam_grid:
            S = gam.penalty_matrix(lam)
            A = xtx + S
            try:
                beta = np.linalg.solve(A, xty)
                edof_mat = np.linalg.solve(A, xtx)
            except np.linalg.LinAlgError as exc:
                raise FitDivergenceError(
                    f"GCV normal equations singular at lam={lam:g}: {exc}"
                ) from exc
            rss = max(yty - 2.0 * beta @ xty + beta @ xtx @ beta, 0.0)
            edof = float(np.trace(edof_mat))
            gcv = n * rss / max(n - edof, 1e-8) ** 2
            assert_all_finite(np.asarray([gcv]), f"GCV score (lam={lam:g})")
            results.append((float(lam), gcv, beta, rss, edof))
    return results, xtx


def gcv_gridsearch(gam, X, y, lam_grid=None, verbose: bool = False):
    """Fit ``gam`` for every lambda in the grid; keep the GCV minimizer.

    Returns the same ``gam`` instance, fitted at the selected lambda and
    with ``statistics_['lam_path']`` recording the (lambda, GCV) curve.
    """
    if lam_grid is None:
        lam_grid = default_lam_grid()
    lam_grid = np.asarray(lam_grid, dtype=np.float64)
    if lam_grid.size == 0:
        raise ValueError("lam_grid is empty")
    if np.any(lam_grid < 0):
        raise ValueError("lambdas must be >= 0")
    X, y = _check_xy(X, y)

    identity_normal = (
        gam.link.name == "identity" and gam.distribution.name == "normal"
    )
    metric_inc("fit.gcv_candidates", len(lam_grid))
    with obs_span(
        "gam.gcv",
        candidates=int(len(lam_grid)),
        path="identity" if identity_normal else "refit",
    ):
        D = gam._fit_design(X)
        return _gridsearch_body(gam, D, y, lam_grid, identity_normal, verbose)


def _gridsearch_body(gam, D, y, lam_grid, identity_normal, verbose):
    lam_path = []
    if identity_normal:
        results, xtx = _identity_gcv_path(gam, D, y, lam_grid)
        best = min(results, key=lambda r: r[1])
        lam, gcv, beta, rss, edof = best
        gam.lam = lam
        gam.coef_ = beta
        gam._finalize_statistics(xtx, gam.penalty_matrix(), rss, len(y))
        lam_path = [(r[0], r[1]) for r in results]
        if verbose:
            for l_, g_ in lam_path:
                print(f"  lam={l_:10.4g}  GCV={g_:.6g}")
    else:
        best_gcv = np.inf
        best_state = None
        for lam in lam_grid:
            gam.lam = float(lam)
            gam._pirls(D, y)
            gcv = gam.statistics_["GCV"]
            assert_all_finite(np.asarray([gcv]), f"GCV score (lam={lam:g})")
            lam_path.append((float(lam), gcv))
            if verbose:
                print(f"  lam={lam:10.4g}  GCV={gcv:.6g}")
            if gcv < best_gcv:
                best_gcv = gcv
                best_state = (float(lam), gam.coef_.copy(), dict(gam.statistics_))
        lam, coef, stats = best_state
        gam.lam = lam
        gam.coef_ = coef
        gam.statistics_ = stats

    gam.statistics_["lam_path"] = lam_path
    return gam
