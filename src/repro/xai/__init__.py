"""Baseline explainers and interaction statistics (SHAP/LIME stand-ins)."""

from .hstat import h_statistic, h_statistic_matrix
from .lime import LimeExplanation, LimeTabularExplainer
from .pdp import (
    as_predict_fn,
    ice_curves,
    partial_dependence_1d,
    partial_dependence_2d,
    pd_at_points,
)
from .permutation import permutation_importance
from .shap_global import ShapGlobalExplainer, ShapGlobalExplanation
from .surrogates import LinearSurrogate, TreeSurrogate
from .treeshap import TreeShapExplainer, expected_tree_value, forest_expected_value

__all__ = [
    "LimeExplanation",
    "LimeTabularExplainer",
    "LinearSurrogate",
    "ShapGlobalExplainer",
    "TreeSurrogate",
    "ShapGlobalExplanation",
    "TreeShapExplainer",
    "as_predict_fn",
    "expected_tree_value",
    "forest_expected_value",
    "h_statistic",
    "h_statistic_matrix",
    "ice_curves",
    "partial_dependence_1d",
    "partial_dependence_2d",
    "pd_at_points",
    "permutation_importance",
]
