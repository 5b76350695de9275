"""Generalized Cross Validation search over the shared smoothing lambda.

The paper selects the penalization coefficients "varying lambda equally for
each term used" via GCV.  A shared lambda scales one base penalty ``P``, so
the search is :meth:`GAM._pirls` with every grid point as a candidate
multiplier: each PIRLS iteration factors its working model once and scores
the whole grid from that factorization (Gu's performance iteration, Wood
2006).  On the identity link this is one Gram, one factorization and the
exact GCV curve; on the logistic link the working-model GCV picks lambda
at every step until the deviance converges.  The training design is built
once per search: per-term tables when every term but the intercept reads
one coded feature, else the dense rows.
"""

from __future__ import annotations

import numpy as np

from ..obs.metrics import inc as metric_inc
from ..obs.trace import span as obs_span
from .model import _check_xy

__all__ = ["default_lam_grid", "gcv_gridsearch"]


def default_lam_grid() -> np.ndarray:
    """Log-spaced lambda candidates spanning six orders of magnitude."""
    return np.logspace(-3, 3, 13)


def gcv_gridsearch(gam, X, y, lam_grid=None, verbose: bool = False, coding=None):
    """Fit ``gam`` at the GCV-minimizing lambda of the grid.

    ``coding`` codes ``X`` as in :meth:`GAM._design
    <repro.gam.model.GAM._design>` (D*'s training rows); an all-coded fit
    of one-feature terms runs on per-term tables (see
    :meth:`GAM._training_design <repro.gam.model.GAM._training_design>`).

    Returns the same ``gam`` instance, fitted at the selected lambda and
    with ``statistics_['lam_path']`` recording the (lambda, GCV) curve of
    the final PIRLS iteration.
    """
    if lam_grid is None:
        lam_grid = default_lam_grid()
    lam_grid = np.asarray(lam_grid, dtype=np.float64)
    if lam_grid.size == 0:
        raise ValueError("lam_grid is empty")
    if np.any(lam_grid < 0):
        raise ValueError("lambdas must be >= 0")
    X, y = _check_xy(X, y)

    metric_inc("fit.gcv_candidates", len(lam_grid))
    with obs_span("gam.gcv", candidates=int(len(lam_grid))):
        design = gam._training_design(X, coding)
        lam, lam_path = gam._pirls(design, y, gam.penalty_matrix(1.0), lam_grid)
    gam.lam = lam
    gam.statistics_["lam_path"] = lam_path
    if verbose:
        for l_, g_ in lam_path:
            print(f"  lam={l_:10.4g}  GCV={g_:.6g}")
    return gam
