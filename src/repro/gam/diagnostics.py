"""GAM diagnostics: residual summaries and per-term decomposition.

Helpers an analyst uses to judge a fitted surrogate before trusting its
explanation: deviance explained, residual quantiles, and the share of the
prediction variance carried by each term (the statistic GEF uses to sort
its component plots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GAM
from .terms import InterceptTerm

__all__ = ["GamDiagnostics", "diagnose"]


@dataclass
class GamDiagnostics:
    """Fit-quality summary of a GAM on a given dataset."""

    deviance_explained: float  # 1 - deviance(model) / deviance(null)
    residual_quantiles: dict[str, float]  # min/q25/median/q75/max
    term_variance_share: dict[str, float]  # label -> share of eta variance
    edof: float
    scale: float
    gcv: float

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"deviance explained: {self.deviance_explained:.4f}",
            f"edof: {self.edof:.2f}   scale: {self.scale:.5g}   GCV: {self.gcv:.5g}",
            "residual quantiles: "
            + "  ".join(f"{k}={v:+.4g}" for k, v in self.residual_quantiles.items()),
            "term variance shares:",
        ]
        for label, share in sorted(
            self.term_variance_share.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {label:<24s} {share:6.1%}")
        return "\n".join(lines)


def diagnose(gam: GAM, X: np.ndarray, y: np.ndarray) -> GamDiagnostics:
    """Compute diagnostics of a fitted GAM on (X, y).

    The per-term variance share is Var(term contribution) normalized by
    the summed variances of all terms (interactions between term
    covariances are ignored, as is conventional for additive models).
    """
    if gam.coef_ is None:
        raise RuntimeError("GAM is not fitted")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(X) != len(y):
        raise ValueError("X and y have inconsistent lengths")

    mu = gam.predict_mu(X)
    dev_model = gam.distribution.deviance(y, mu)
    null_mu = np.full(len(y), float(np.mean(y)))
    dev_null = gam.distribution.deviance(y, null_mu)
    explained = 1.0 - dev_model / dev_null if dev_null > 0 else 1.0

    resid = y - mu
    quantiles = {
        "min": float(resid.min()),
        "q25": float(np.quantile(resid, 0.25)),
        "median": float(np.median(resid)),
        "q75": float(np.quantile(resid, 0.75)),
        "max": float(resid.max()),
    }

    contribs = gam.decompose(X)
    variances = {
        term.label: float(np.var(contribs[term.label]))
        for term in gam.terms
        if not isinstance(term, InterceptTerm)
    }
    total = sum(variances.values())
    shares = {
        label: var / total if total > 0 else 0.0
        for label, var in variances.items()
    }

    stats = gam.statistics_
    return GamDiagnostics(
        deviance_explained=float(explained),
        residual_quantiles=quantiles,
        term_variance_share=shares,
        edof=float(stats["edof"]),
        scale=float(stats["scale"]),
        gcv=float(stats["GCV"]),
    )
