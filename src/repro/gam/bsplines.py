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
:func:`bspline_sweep` runs the Cox–de Boor recursion on that window of
each row alone and scatters it into dense bases.  The window of a row
needs only its ``2 * degree + 2`` neighbouring knots, not the number of
bases, so one sweep evaluates every marginal of a GAM evaluation at
once: the rows of all marginals are concatenated and each gathers its
window from its own knot vector (a 12- and a 7-spline marginal mix
freely).  That is one pass of numpy calls per evaluation instead of one
per marginal, whose fixed cost dominated one-row predictions and local
explanations; large evaluations, where that fixed cost does not matter,
are split into passes of bounded rows to bound their temporaries.  Every
element still gets exactly the arithmetic a one-marginal run gives it,
so each basis is byte-equal whatever else shares its sweep.  The one
kernel serves the fit, fidelity and every arbitrary-X caller
(prediction, local and global explanations, PDP scans);
:func:`bspline_design` is its one-marginal case.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..core.numerics import (
    assert_all_finite,
    assert_psd_diagonal,
    assert_strictly_increasing,
    numerics_guard,
)

__all__ = ["uniform_knots", "bspline_design", "bspline_sweep", "difference_penalty"]

#: Most rows of several marginals that one pass of the recursion takes.
#: A pass holds a few dozen bytes of temporaries per row, so this keeps a
#: sweep over large inputs (a 16,384-row prediction block of every
#: marginal, a decomposition of a whole dataset) at the working set of
#: one marginal per pass.  Each element's arithmetic does not depend on
#: what shares its pass, so neither do the bytes.
_PASS_ROWS = 16384


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

    The one-marginal case of :func:`bspline_sweep`: an ``(len(x),
    len(knots) - degree - 1)`` array whose rows sum to one (partition of
    unity), constant beyond the knot-supported domain.
    """
    (basis,) = bspline_sweep([(x, knots, degree)])
    return basis


def bspline_sweep(marginals) -> list[np.ndarray]:
    """Dense B-spline bases of several marginals from one Cox–de Boor sweep.

    ``marginals`` is a sequence of ``(x, knots, degree)``; the result holds
    one ``(len(x), len(knots) - degree - 1)`` basis per marginal, in order.
    Inputs are clamped to each knot-supported domain, which yields
    constant extrapolation of a fitted spline beyond it (``±inf``
    included).  Each row's knot interval ``j`` fixes its ``degree + 1``
    nonzero bases ``j - degree .. j``, supported on the ``2 * degree + 2``
    knots ``j - degree .. j + degree + 1``.  That window is all a row
    needs, so the rows of every marginal of one degree are concatenated,
    each gathering its window from its own knot vector, and the recursion
    raises all of them one degree at a time; every other entry is zero.
    Marginals too large to share a pass (more than :data:`_PASS_ROWS`
    rows together) take consecutive passes.  Each element gets the
    arithmetic a one-marginal evaluation gives it, so the bases are
    byte-equal whatever else shares the sweep or the pass.

    A zero-width knot span contributes nothing (it is skipped, never
    divided by), so repeated knots are allowed and a collapsed knot vector
    gives all-zero rows.  A NaN input runs the recursion like any other
    (its interval index is clamped into range) and, for ``degree >= 1``,
    is reported by the strict numerics checks.
    """
    marginals = [
        (
            np.asarray(x, dtype=np.float64).ravel(),
            np.asarray(knots, dtype=np.float64),
            int(degree),
        )
        for x, knots, degree in marginals
    ]
    shapes = [(len(x), len(knots) - degree - 1) for x, knots, degree in marginals]
    if any(n_bases <= m[2] for (_, n_bases), m in zip(shapes, marginals)):
        raise ValueError("knot vector too short for the requested degree")
    sizes = [rows * n_bases for rows, n_bases in shapes]
    starts = [0, *accumulate(sizes)]
    flat = np.zeros(starts[-1])
    with numerics_guard("bspline_sweep (Cox-de Boor recursion)"):
        for degree, group in _passes(marginals):
            _sweep(
                flat, [marginals[i] for i in group], [starts[i] for i in group],
                degree,
            )
    assert_all_finite(flat, "bspline_sweep")
    return [
        flat[start:stop].reshape(shape)
        for start, stop, shape in zip(starts, starts[1:], shapes)
    ]


def _passes(marginals):
    """``(degree, indices)`` of the marginals that share one recursion pass.

    Marginals of one degree share a pass, in order, up to
    :data:`_PASS_ROWS` rows; a larger marginal has a pass of its own.
    """
    for degree in sorted({m[2] for m in marginals}):
        group, rows = [], 0
        for i, (x, _, d) in enumerate(marginals):
            if d != degree:
                continue
            if group and rows + len(x) > _PASS_ROWS:
                yield degree, group
                group, rows = [], 0
            group.append(i)
            rows += len(x)
        yield degree, group


def _sweep(flat, marginals, starts, degree) -> None:
    """Scatter the bases of ``marginals``, all of ``degree``, into ``flat``
    at the table offsets ``starts``."""
    xs, knot_vectors, _ = zip(*marginals)
    rows = [len(x) for x in xs]
    x = np.concatenate(xs)

    # Per row, from its marginal: the clamping interval [knots[degree],
    # knots[-degree-1]), the last interval index, where the knots start in
    # the concatenated knot vectors and where the table's row 0 would sit
    # in ``flat`` if the group's rows were numbered from it.
    bounds = [0, *accumulate(rows)]
    n_bases = np.array([len(knots) - degree - 1 for knots in knot_vectors])
    lows, highs = [], []
    for knots in knot_vectors:
        lo = knots[degree]
        hi = knots[-degree - 1]
        eps = 1e-12 * max(1.0, abs(hi))
        lows.append(lo)
        highs.append(hi - eps if hi > lo else lo)
    knot_start = np.array([0, *accumulate(len(k) for k in knot_vectors[:-1])])
    table_start = np.array(starts) - np.array(bounds[:-1]) * n_bases
    n_bases, last, knot_start, table_start = (
        a.repeat(rows) for a in (n_bases, n_bases - 1, knot_start, table_start)
    )
    xc = np.clip(x, np.repeat(lows, rows), np.repeat(highs, rows))

    # Knot interval j of each row (clamped, so NaN rows index in range) and
    # its window's knots.  Windows are stored one row per basis offset,
    # one column per point.
    j = np.empty(len(x), dtype=np.intp)
    for knots, begin, end in zip(knot_vectors, bounds, bounds[1:]):
        j[begin:end] = knots.searchsorted(xc[begin:end], side="right")
    j = np.minimum(np.maximum(j - 1, degree), last)
    near = np.concatenate(knot_vectors)[
        np.arange(-degree, degree + 2)[:, None] + (j + knot_start)
    ]
    window = np.ones((1, len(xc)))
    for d in range(1, degree + 1):
        # Degree d-1 basis i has support [t_i, t_i+d); it feeds the left
        # term of basis i and the right term of basis i-1.
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

    # Row r of the group sits at table_start + r * n_bases, its window at
    # columns j - degree .. j.
    first = table_start + np.arange(len(xc)) * n_bases + j - degree
    flat[np.arange(degree + 1)[:, None] + first] = window


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
