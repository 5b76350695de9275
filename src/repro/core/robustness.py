"""Model auditing from the surrogate alone (the paper's closing use case).

The conclusion argues that GEF enables "greater control over the model":
using only the GAM's terms — still no training data — an auditor can look
for unexpected behaviours and probe robustness, e.g. find the smallest
single-feature change that moves the prediction by a chosen amount.

Two audits are implemented:

* :func:`sensitivity_profile` — per feature, the maximum prediction swing
  achievable within a relative perturbation budget (read straight off the
  splines; instability hot-spots such as the WEAM jump stand out);
* :func:`minimal_shift` — the smallest single-feature perturbation that
  moves the surrogate's output by at least ``delta`` (a first-order
  adversarial-robustness probe, verified against the forest if given).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gam.terms import SplineTerm
from .explanation import GEFExplanation

__all__ = ["FeatureSensitivity", "MinimalShift", "sensitivity_profile", "minimal_shift"]


@dataclass
class FeatureSensitivity:
    """Prediction swing achievable by perturbing one feature."""

    feature: int
    label: str
    budget: float  # absolute perturbation radius probed
    max_increase: float  # on the link scale
    max_decrease: float
    at_increase: float  # feature value achieving the max increase
    at_decrease: float


@dataclass
class MinimalShift:
    """Smallest single-feature change achieving a target output shift."""

    feature: int
    label: str
    original_value: float
    new_value: float
    perturbation: float  # |new - original|
    achieved_shift: float  # on the link scale


def _spline_terms(explanation: GEFExplanation):
    for idx, term in enumerate(explanation.gam.terms):
        if isinstance(term, SplineTerm):
            yield idx, term


def _scan(gam, idx: int, grid: np.ndarray, value: np.ndarray):
    """Contribution deltas of term ``idx`` over ``grid`` from its
    contribution at the one-element ``value``, and that base contribution:
    both from one basis sweep."""
    blocks = gam.term_blocks([(idx, grid), (idx, value)])
    contrib, base = (gam.contribution(idx, block) for block in blocks)
    return contrib - base[0], base[0]


def sensitivity_profile(
    explanation: GEFExplanation,
    x: np.ndarray,
    budget_fraction: float = 0.1,
    n_points: int = 101,
) -> list[FeatureSensitivity]:
    """Per-feature swing of the surrogate within a perturbation budget.

    The budget is ``budget_fraction`` of each feature's sampling-domain
    span, centered on the instance's value.  Results are sorted by the
    largest absolute swing.
    """
    if not 0.0 < budget_fraction <= 1.0:
        raise ValueError("budget_fraction must be in (0, 1]")
    x = np.asarray(x, dtype=np.float64).ravel()
    out = []
    for idx, term in _spline_terms(explanation):
        feature = term.features[0]
        domain = explanation.dataset.domains[feature]
        budget = budget_fraction * float(domain.max() - domain.min())
        grid = np.linspace(x[feature] - budget, x[feature] + budget, n_points)
        deltas, _ = _scan(explanation.gam, idx, grid, x[feature : feature + 1])
        out.append(
            FeatureSensitivity(
                feature=feature,
                label=term.label,
                budget=budget,
                max_increase=float(deltas.max()),
                max_decrease=float(deltas.min()),
                at_increase=float(grid[np.argmax(deltas)]),
                at_decrease=float(grid[np.argmin(deltas)]),
            )
        )
    out.sort(key=lambda s: -(s.max_increase - s.max_decrease))
    return out


def _achieves(value: float, delta: float) -> bool:
    return value >= delta if delta > 0 else value <= delta


def _refine_pick(
    gam, idx: int, base: float, center: float, grid: np.ndarray,
    deltas: np.ndarray, achieved: np.ndarray, pick: int, delta: float,
    refine_iters: int,
) -> tuple[float, float]:
    """Bisect between the coarse pick and its inward non-achieving
    neighbour for a tighter minimal perturbation.

    The achieving endpoint of the bracket is *re-verified at every step*
    — with a non-monotone spline the midpoint's contribution can dip back
    below the target even though both coarser neighbours achieved it, and
    a naive bisection would walk out of the achieving region (and past
    the perturbation budget).  The returned point therefore always
    achieves the shift and is never farther from ``center`` than the
    coarse pick.
    """
    step = -1 if grid[pick] > center else 1
    neighbour = pick + step
    if not 0 <= neighbour < len(grid) or achieved[neighbour]:
        return float(grid[pick]), float(deltas[pick])
    lo = float(grid[neighbour])  # does not achieve
    hi = float(grid[pick])  # achieves (verified invariant)
    hi_delta = float(deltas[pick])
    for _ in range(refine_iters):
        mid = 0.5 * (lo + hi)
        mid_delta = float(
            gam.partial_dependence(idx, np.asarray([mid]))[0] - base
        )
        if _achieves(mid_delta, delta):
            hi, hi_delta = mid, mid_delta
        else:
            lo = mid
    return hi, hi_delta


def minimal_shift(
    explanation: GEFExplanation,
    x: np.ndarray,
    delta: float,
    n_points: int = 201,
    budget: float | None = None,
    refine_iters: int = 24,
) -> MinimalShift | None:
    """Smallest single-feature perturbation shifting the output by ``delta``.

    Scans every spline component over its sampling domain (clipped to
    ``x ± budget`` when a perturbation ``budget`` is given), picks the
    closest achieving grid point and sharpens it by a verified bisection
    against the nearest non-achieving neighbour.  Returns the candidate
    with the smallest absolute feature change whose contribution delta
    reaches ``|delta|`` with the requested sign, or ``None`` when no
    single feature can achieve the shift — itself a robustness statement.

    The bisection is guarded for non-monotone splines: every refined
    point is re-evaluated, so the result always achieves the shift, never
    lies farther out than the coarse pick, and never leaves the budget.
    """
    if delta == 0.0:  # repro: allow(float-eq) exact zero is the one invalid input; test_minimal_shift_rejects_zero_delta
        raise ValueError("delta must be nonzero")
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    x = np.asarray(x, dtype=np.float64).ravel()
    best: MinimalShift | None = None
    for idx, term in _spline_terms(explanation):
        feature = term.features[0]
        domain = explanation.dataset.domains[feature]
        low, high = float(domain.min()), float(domain.max())
        center = float(x[feature])
        if budget is not None:
            low = max(low, center - budget)
            high = min(high, center + budget)
            if low > high:
                continue
        grid = np.linspace(low, high, n_points)
        deltas, base = _scan(explanation.gam, idx, grid, x[feature : feature + 1])
        achieved = deltas >= delta if delta > 0 else deltas <= delta
        if not achieved.any():
            continue
        distances = np.abs(grid - center)
        distances[~achieved] = np.inf
        pick = int(np.argmin(distances))
        new_value, achieved_shift = _refine_pick(
            explanation.gam, idx, float(base), center, grid, deltas,
            achieved, pick, delta, refine_iters,
        )
        perturbation = abs(new_value - center)
        # Defense in depth: if refinement ever produced a worse, budget-
        # violating or non-achieving point, fall back to the coarse pick.
        if (
            perturbation > float(distances[pick])
            or (budget is not None and perturbation > budget)
            or not _achieves(achieved_shift, delta)
        ):
            new_value = float(grid[pick])
            achieved_shift = float(deltas[pick])
            perturbation = float(distances[pick])
        candidate = MinimalShift(
            feature=feature,
            label=term.label,
            original_value=center,
            new_value=new_value,
            perturbation=perturbation,
            achieved_shift=achieved_shift,
        )
        if best is None or candidate.perturbation < best.perturbation:
            best = candidate
    return best
