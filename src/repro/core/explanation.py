"""Explanation objects produced by GEF: global curves and local break-downs.

The fitted GAM *is* the explanation; these classes package it for the two
uses the paper demonstrates:

* **global** — one centered curve per component (spline, factor or tensor
  slice) with Bayesian credible intervals, sorted by importance
  (Figures 4, 9a, 10a);
* **local** — for a single instance, each component's additive
  contribution plus a zoomed window of the spline around the instance's
  value, showing how small feature changes would move the prediction
  (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gam import GAM, FactorTerm, InterceptTerm, SplineTerm, TensorTerm
from .config import GEFConfig
from .dataset import ExplanationDataset
from .stages import StageReport

__all__ = ["ComponentCurve", "LocalContribution", "LocalExplanation", "GEFExplanation"]


@dataclass
class ComponentCurve:
    """One GAM component evaluated on a grid, with credible intervals."""

    label: str
    features: tuple[int, ...]
    grid: np.ndarray  # (n,) univariate / (n, 2) tensor
    contribution: np.ndarray
    intervals: np.ndarray  # (n, 2) lower/upper
    importance: float


@dataclass
class LocalContribution:
    """One component's additive contribution for a specific instance."""

    label: str
    features: tuple[int, ...]
    value: np.ndarray  # the instance's raw feature value(s)
    contribution: float
    interval: tuple[float, float]
    window_grid: np.ndarray | None = None  # zoomed spline around the value
    window_contribution: np.ndarray | None = None


@dataclass
class LocalExplanation:
    """Additive break-down of one prediction (on the link scale)."""

    contributions: list[LocalContribution]  # sorted by |contribution|
    intercept: float
    eta: float  # intercept + sum of contributions
    prediction: float  # inverse-link of eta

    def as_list(self) -> list[tuple[str, float]]:
        """(label, contribution) pairs, most influential first."""
        return [(c.label, c.contribution) for c in self.contributions]


@dataclass
class GEFExplanation:
    """The full output of a GEF run: surrogate GAM plus its provenance."""

    gam: GAM
    features: list[int]  # F'
    pairs: list[tuple[int, int]]  # F''
    dataset: ExplanationDataset
    config: GEFConfig
    feature_names: list[str] | None = None
    fidelity: dict = field(default_factory=dict)
    stage_report: StageReport | None = None
    _importances: dict[int, float] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def _component_terms(self) -> list[int]:
        """GAM term indices of the explanation components (no intercept)."""
        return [
            idx
            for idx, term in enumerate(self.gam.terms)
            if not isinstance(term, InterceptTerm)
        ]

    def feature_label(self, feature: int) -> str:
        """Display name of a raw feature."""
        if self.feature_names:
            return self.feature_names[feature]
        return f"x{feature}"

    def component_importance(self, term_index: int) -> float:
        """Std of the component's contribution over (a sample of) D*.

        Components are sorted by this in the global view — a flat spline
        explains nothing, a wide-ranging one drives the prediction.
        """
        if term_index not in self._importances:
            features = list(self.gam.terms[term_index].features)
            values = self.dataset.X_train[:4096][:, features]
            contrib = self.gam.partial_dependence(term_index, values)
            self._importances[term_index] = float(np.std(contrib))
        return self._importances[term_index]

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Surrogate prediction (response scale, like the forest's output)."""
        return self.gam.predict_mu(X)

    # ------------------------------------------------------------------
    # global explanation
    # ------------------------------------------------------------------
    def _term_grid(self, term, n_points: int) -> np.ndarray:
        """Evaluation grid over a term's sampling domain(s)."""
        if isinstance(term, FactorTerm):
            return term.levels_.copy()
        grids = []
        for f in term.features:
            domain = self.dataset.domains[f]
            grids.append(np.linspace(float(domain.min()), float(domain.max()), n_points))
        if len(grids) == 1:
            return grids[0]
        mesh = np.meshgrid(*grids, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def global_explanation(
        self, n_points: int = 100, width: float = 0.95
    ) -> list[ComponentCurve]:
        """All component curves, sorted by decreasing importance.

        One basis sweep evaluates every curve.
        """
        indices = self._component_terms()
        grids = [self._term_grid(self.gam.terms[idx], n_points) for idx in indices]
        blocks = self.gam.term_blocks(list(zip(indices, grids)))
        slices = self.gam.term_slices()
        curves = []
        for idx, grid, block in zip(indices, grids, blocks):
            term = self.gam.terms[idx]
            contrib, intervals = self.gam.contribution(
                slices[idx], block, width=width
            )
            curves.append(
                ComponentCurve(
                    label=term.label,
                    features=tuple(term.features),
                    grid=grid,
                    contribution=contrib,
                    intervals=intervals,
                    importance=self.component_importance(idx),
                )
            )
        curves.sort(key=lambda c: -c.importance)
        return curves

    # ------------------------------------------------------------------
    # local explanation
    # ------------------------------------------------------------------
    def local_explanation(
        self,
        x: np.ndarray,
        width: float = 0.95,
        window_fraction: float = 0.15,
        window_points: int = 41,
    ) -> LocalExplanation:
        """Break one prediction into per-component contributions.

        For spline components a zoomed window of the curve around the
        instance's value is attached, so the analyst can see how a small
        feature change would move the prediction — the paper's key
        advantage over point-wise SHAP/LIME values.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        indices = self._component_terms()
        requests, windows = [], {}
        for idx in indices:
            term = self.gam.terms[idx]
            requests.append((idx, x[list(term.features)]))
            if isinstance(term, SplineTerm):
                value = x[term.features[0]]
                domain = self.dataset.domains[term.features[0]]
                span = float(domain.max() - domain.min()) * window_fraction
                windows[idx] = np.linspace(value - span, value + span, window_points)
                requests.append((idx, windows[idx]))
        # One basis sweep for every instance row and window; each block
        # keeps its own matmul, so the contributions are those of one
        # partial_dependence call per block.
        blocks = iter(self.gam.term_blocks(requests))
        slices = self.gam.term_slices()
        contributions = []
        for idx in indices:
            term = self.gam.terms[idx]
            contrib, intervals = self.gam.contribution(
                slices[idx], next(blocks), width
            )
            window_grid = windows.get(idx)
            window_contrib = None
            if window_grid is not None:
                window_contrib = self.gam.contribution(slices[idx], next(blocks))
            contributions.append(
                LocalContribution(
                    label=term.label,
                    features=tuple(term.features),
                    value=x[list(term.features)],
                    contribution=float(contrib[0]),
                    interval=(float(intervals[0, 0]), float(intervals[0, 1])),
                    window_grid=window_grid,
                    window_contribution=window_contrib,
                )
            )
        contributions.sort(key=lambda c: -abs(c.contribution))
        intercept = self.gam.intercept_
        eta = intercept + sum(c.contribution for c in contributions)
        prediction = float(self.gam.link.inverse(np.array([eta]))[0])
        return LocalExplanation(
            contributions=contributions,
            intercept=intercept,
            eta=eta,
            prediction=prediction,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Plain-text overview: components, fidelity, configuration."""
        lines = [
            "GEF explanation",
            f"  univariate components |F'| = {len(self.features)}: "
            + ", ".join(self.feature_label(f) for f in self.features),
        ]
        if self.pairs:
            lines.append(
                f"  bi-variate components |F''| = {len(self.pairs)}: "
                + ", ".join(
                    f"({self.feature_label(i)}, {self.feature_label(j)})"
                    for i, j in self.pairs
                )
            )
        else:
            lines.append("  bi-variate components |F''| = 0")
        lines.append(
            f"  D*: {self.dataset.n_samples} instances, "
            f"{self.config.sampling_strategy} sampling (K={self.config.k_points})"
        )
        for key, value in self.fidelity.items():
            lines.append(f"  fidelity {key}: {value:.4f}")
        if self.stage_report is not None and self.stage_report.fallbacks:
            lines.append(
                "  degraded: " + ", ".join(self.stage_report.fallbacks)
            )
        return "\n".join(lines)
