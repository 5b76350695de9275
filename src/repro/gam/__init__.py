"""GAM substrate: penalized B-spline additive models built from scratch.

This subpackage replaces PyGAM in the reproduction: P-spline terms, factor
terms, tensor-product interactions, identity/logit links, PIRLS fitting,
GCV smoothing selection and Bayesian credible intervals.
"""

from .bsplines import bspline_design, bspline_sweep, difference_penalty, uniform_knots
from .diagnostics import GamDiagnostics, diagnose
from .distributions import BinomialDistribution, NormalDistribution, get_distribution
from .gcv import default_lam_grid, gcv_gridsearch
from .links import IdentityLink, LogitLink, get_link
from .model import GAM
from .serialization import gam_from_dict, gam_to_dict, term_from_dict, term_to_dict
from .terms import (
    FactorTerm,
    InterceptTerm,
    LinearTerm,
    SplineTerm,
    TensorTerm,
    Term,
)

__all__ = [
    "GAM",
    "BinomialDistribution",
    "GamDiagnostics",
    "diagnose",
    "FactorTerm",
    "IdentityLink",
    "InterceptTerm",
    "LinearTerm",
    "LogitLink",
    "NormalDistribution",
    "SplineTerm",
    "TensorTerm",
    "Term",
    "bspline_design",
    "bspline_sweep",
    "default_lam_grid",
    "difference_penalty",
    "gam_from_dict",
    "gam_to_dict",
    "gcv_gridsearch",
    "term_from_dict",
    "term_to_dict",
    "get_distribution",
    "get_link",
    "uniform_knots",
]
