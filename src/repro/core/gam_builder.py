"""Construction of the explanation GAM's terms (paper section 3.5).

For every selected feature GEF adds a third-order P-spline term with a
fixed basis size — unless the feature looks categorical, in which case a
factor term is used instead.  Since a forest does not record feature
types, categoricalness is inferred heuristically: a feature whose forest
threshold list has fewer than L distinct values (L = 10 in the paper) is
treated as categorical.  Each selected pair gets a penalized tensor term.
"""

from __future__ import annotations

import numpy as np

from ..gam import GAM, FactorTerm, LinearTerm, SplineTerm, TensorTerm
from .config import GEFConfig
from .errors import SelectionError

__all__ = [
    "DEGRADATION_LADDER",
    "is_categorical",
    "build_terms",
    "build_gam",
]

#: Rung names of the fit degradation ladder, simplest last.  ``full`` is
#: the configured model; ``drop-tensor`` removes the lowest-ranked tensor
#: term (applied repeatedly until none remain); ``univariate-only`` also
#: replaces factor terms with plain splines (rank-deficient one-hot
#: designs disappear); ``linear`` is the GLM fallback — one coefficient
#: per feature.
DEGRADATION_LADDER = ("full", "drop-tensor", "univariate-only", "linear")


def is_categorical(thresholds: np.ndarray, categorical_threshold: int = 10) -> bool:
    """The paper's heuristic: fewer than L distinct thresholds => factor."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    return len(np.unique(thresholds)) < categorical_threshold


def build_terms(
    features: list[int],
    pairs: list[tuple[int, int]],
    thresholds: list[np.ndarray],
    config: GEFConfig,
    feature_names: list[str] | None = None,
    rung: str = "full",
) -> list:
    """Terms for F' (splines/factors) and F'' (tensors), in that order.

    ``rung`` names a step of :data:`DEGRADATION_LADDER`.  ``full`` and
    ``drop-tensor`` build the configured terms for the given ``pairs``
    (the caller shrinks ``pairs`` to drop tensors);
    ``univariate-only`` builds one spline per feature and ``linear`` one
    :class:`~repro.gam.LinearTerm` per feature, both without tensors.
    """
    if rung not in DEGRADATION_LADDER:
        raise SelectionError(f"unknown degradation rung {rung!r}")
    configured = rung in ("full", "drop-tensor")

    def name_of(f: int) -> str:
        return feature_names[f] if feature_names else f"x{f}"

    terms = []
    for f in features:
        if configured and is_categorical(thresholds[f], config.categorical_threshold):
            terms.append(FactorTerm(f, name=f"f({name_of(f)})"))
        elif rung == "linear" or (configured and config.component_type == "linear"):
            terms.append(LinearTerm(f, name=f"l({name_of(f)})"))
        else:
            terms.append(
                SplineTerm(f, n_splines=config.n_splines, name=f"s({name_of(f)})")
            )
    if not configured:
        return terms
    for i, j in pairs:
        terms.append(
            TensorTerm(
                i,
                j,
                n_splines=config.tensor_splines,
                name=f"te({name_of(i)},{name_of(j)})",
            )
        )
    return terms


def build_gam(
    features: list[int],
    pairs: list[tuple[int, int]],
    thresholds: list[np.ndarray],
    config: GEFConfig,
    is_classifier: bool,
    feature_names: list[str] | None = None,
    rung: str = "full",
) -> GAM:
    """The (unfitted) explanation GAM with the paper's link conventions.

    Regression forests get an identity link with a normal response;
    classification forests a logistic link with a binomial response.
    ``rung`` selects the terms of one degradation-ladder step (see
    :func:`build_terms`); the link is the same on every rung.
    """
    if not features:
        raise SelectionError("F' is empty; nothing to build a GAM from")
    terms = build_terms(features, pairs, thresholds, config, feature_names, rung)
    link = "logit" if is_classifier and config.label != "raw" else "identity"
    return GAM(terms, link=link)
