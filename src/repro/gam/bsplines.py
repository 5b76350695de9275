"""B-spline bases and difference penalties (the P-spline machinery).

GEF fits its surrogate with penalized B-splines: third-order spline terms
with a fixed number of basis functions per feature, smoothed by a
second-order difference penalty on the coefficients (Eilers & Marx
P-splines, the same construction PyGAM uses).

The basis here uses uniformly spaced knots extended ``degree`` intervals
beyond each end of the feature domain, so the basis forms a partition of
unity on the whole domain.  Evaluation outside the domain clamps to the
boundary, giving constant extrapolation — the safe choice for a surrogate
queried slightly outside the sampled region.

Only ``degree + 1`` bases are nonzero at any point, so
:func:`bspline_design` runs the Cox–de Boor recursion on that window of
each row alone and scatters it into the dense design.  The one routine
serves the fit and every arbitrary-X caller (prediction, local
explanations, PDP scans).
"""

from __future__ import annotations

import numpy as np

from ..core.numerics import (
    assert_all_finite,
    assert_psd_diagonal,
    assert_strictly_increasing,
    numerics_guard,
)

__all__ = ["uniform_knots", "bspline_design", "difference_penalty"]


def uniform_knots(lo: float, hi: float, n_splines: int, degree: int = 3) -> np.ndarray:
    """Uniform (unclamped) knot vector supporting ``n_splines`` bases.

    Produces ``n_splines + degree + 1`` knots: the domain ``[lo, hi]`` is cut
    into ``n_splines - degree`` equal intervals and extended ``degree``
    intervals past each boundary.
    """
    if n_splines <= degree:
        raise ValueError(f"n_splines must exceed degree ({degree}), got {n_splines}")
    if not np.isfinite(lo) or not np.isfinite(hi):
        raise ValueError("domain bounds must be finite")
    constant = hi <= lo
    if constant:
        # Degenerate (constant) feature: widen artificially so the basis
        # is well defined; all evaluations clamp to the same point anyway.
        hi = lo + 1.0
    n_interior = n_splines - degree
    offsets = np.arange(-degree, n_interior + degree + 1)
    knots = lo + (hi - lo) / n_interior * offsets
    if constant and (
        np.any(np.diff(knots) <= 0) or hi - lo < 1e-12 * max(1.0, abs(hi))
    ):
        # A unit is too fine for a large |lo|: its knots repeat (from about
        # 2**48) or it falls inside bspline_design's clamping margin (from
        # about 1e12).  Widen in proportion to |lo|, far above both.
        knots = lo + abs(lo) * 2.0**-32 / n_interior * offsets
    assert_strictly_increasing(knots, "uniform_knots")
    return knots


def bspline_design(
    x: np.ndarray, knots: np.ndarray, degree: int = 3
) -> np.ndarray:
    """Dense design matrix of B-spline basis functions evaluated at ``x``.

    Inputs are clamped to the knot-supported domain, which yields constant
    extrapolation of the fitted spline beyond it (``±inf`` included).  Each
    row's knot interval ``j`` fixes its ``degree + 1`` nonzero bases
    ``j - degree .. j``; the Cox–de Boor recursion raises that window one
    degree at a time, vectorized over rows, and every other entry is zero.
    A zero-width knot span contributes nothing (it is skipped, never
    divided by), so repeated knots are allowed and a collapsed knot vector
    gives all-zero rows.  A NaN input runs the recursion like any other
    (its interval index is clamped into range) and, for ``degree >= 1``,
    is reported by the strict numerics checks.

    Returns an ``(len(x), len(knots) - degree - 1)`` array whose rows sum to
    one (partition of unity).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    knots = np.asarray(knots, dtype=np.float64)
    n_bases = len(knots) - degree - 1
    if n_bases < 1:
        raise ValueError("knot vector too short for the requested degree")

    # Clamp into the fully supported interval [knots[degree], knots[-degree-1]).
    lo = knots[degree]
    hi = knots[-degree - 1]
    eps = 1e-12 * max(1.0, abs(hi))
    xc = np.clip(x, lo, hi - eps if hi > lo else lo)

    # Knot interval j of each row (clamped, so NaN rows index in range):
    # its window holds bases j - degree .. j, supported on knots
    # j - degree .. j + degree + 1.  Windows are stored one row per basis
    # offset, one column per point.
    j = np.searchsorted(knots, xc, side="right") - 1
    j = np.clip(j, degree, n_bases - 1)
    near = knots[np.arange(-degree, degree + 2)[:, None] + j]
    window = np.ones((1, len(xc)))
    with numerics_guard("bspline_design (Cox-de Boor recursion)"):
        for d in range(1, degree + 1):
            # Degree d-1 basis i has support [t_i, t_i+d); it feeds the
            # left term of basis i and the right term of basis i-1.
            t_lo = near[degree - d + 1 : degree + 1]
            t_hi = near[degree + 1 : degree + d + 1]
            span = t_hi - t_lo
            wide = span > 0
            right = np.divide(
                t_hi - xc, span, out=np.zeros_like(span), where=wide
            ) * window
            left = np.divide(
                xc - t_lo, span, out=np.zeros_like(span), where=wide
            ) * window
            window = np.zeros((d + 1, len(xc)))
            window[:d] = right
            window[1:] += left

    basis = np.zeros((len(xc), n_bases))
    first = np.arange(len(xc)) * n_bases + j - degree
    basis.reshape(-1)[np.arange(degree + 1)[:, None] + first] = window
    assert_all_finite(basis, "bspline_design")
    return basis


def difference_penalty(n_coefs: int, order: int = 2) -> np.ndarray:
    """P-spline penalty ``D'D`` with ``order``-th differences ``D``.

    Penalizes the squared ``order``-th finite differences of adjacent spline
    coefficients — the discrete analogue of the integrated squared
    ``order``-th derivative in the paper's GAM cost function.
    """
    if n_coefs < 1:
        raise ValueError("n_coefs must be positive")
    if order < 1:
        raise ValueError("order must be >= 1")
    if n_coefs <= order:
        return np.zeros((n_coefs, n_coefs))
    d = np.diff(np.eye(n_coefs), n=order, axis=0)
    penalty = d.T @ d
    assert_psd_diagonal(penalty, "difference_penalty")
    return penalty
