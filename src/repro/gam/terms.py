"""GAM model terms: intercept, univariate splines, factors and tensors.

A fitted GAM is a sum of *terms*, each contributing a block of columns to
the design matrix and a block-diagonal piece of the penalty:

* :class:`InterceptTerm` — the constant alpha;
* :class:`SplineTerm` — third-order P-spline of one continuous feature
  (GEF's univariate components);
* :class:`FactorTerm` — one coefficient per level of a categorical feature
  (GEF treats features with fewer than ``L`` thresholds as categorical);
* :class:`TensorTerm` — penalized tensor product of two marginal spline
  bases (GEF's bi-variate interaction components).

All non-intercept terms are *centered*: their design columns have the
training mean subtracted, which pins each component at zero mean (the
paper's ``E[s_j(x_j)] = 0`` identifiability constraint) and leaves the
constant to the intercept.

A term's block is built from one *marginal* basis per feature.  Each
feature arrives as a *coded column* ``(values, codes)`` with ``x ==
values[codes]``: a feature of D* carries its sampling domain and the
codes drawn into it, so every marginal basis is evaluated once per
domain value and gathered by code; any other column is its own values
with ``codes=None`` (the identity coding).  Every basis here is a
function of each row's value alone, so both codings give the same bytes.
:func:`marginal_tables` learns (:meth:`Term.learn`) and evaluates every
marginal of several terms — all B-spline marginals in one
:func:`~repro.gam.bsplines.bspline_sweep` — and :meth:`Term.fill`
gathers, combines and centers each term's block; a subclass supplies
what it learns from the values seen in training (``_learn``), the knots
of a B-spline marginal (``_spline``) or else its marginal basis
(``_marginal``) and, for a tensor, how the gathered marginals combine
(``_combine``).
"""

from __future__ import annotations

import numpy as np

from ..obs.trace import span as obs_span
from .bsplines import bspline_sweep, difference_penalty, uniform_knots

# Kept importable by this name: bench/layers.py looks it up here to time
# the basis layer.  No evaluation calls it (they all go through
# bspline_sweep), so that timer reads zero until it wraps bspline_sweep.
from .bsplines import bspline_design  # noqa: F401

__all__ = [
    "Term",
    "InterceptTerm",
    "LinearTerm",
    "SplineTerm",
    "FactorTerm",
    "TensorTerm",
    "coded_columns",
    "marginal_tables",
    "centered_blocks",
]


def coded_columns(X: np.ndarray, coding, features) -> list[tuple]:
    """The ``(values, codes)`` column of each of ``features`` in ``X``.

    ``coding`` is ``None`` or a ``(domains, codes)`` pair of per-feature
    dicts with ``X[:, f] == domains[f][codes[f]]`` (D*'s sampling domains
    and the codes drawn into them).  A feature it codes yields its domain
    and codes; any other yields its column of ``X`` and ``codes=None``.
    """
    domains, codes = coding if coding is not None else ({}, {})
    return [
        (domains[f], codes[f]) if f in codes else (X[:, f], None)
        for f in features
    ]


def _seen(values: np.ndarray, codes: np.ndarray | None) -> np.ndarray:
    """The distinct values a coded column takes (its values, uncoded)."""
    if codes is None:
        return values
    return values[np.bincount(codes, minlength=len(values)) > 0]


def marginal_tables(terms, columns, learn: bool = False) -> list[list[np.ndarray]]:
    """The marginal basis of each term's features on its columns' ``values``.

    ``columns`` holds one list of ``(values, codes)`` columns per term.
    Every B-spline marginal of every term comes from one
    :func:`~repro.gam.bsplines.bspline_sweep`; factor and linear
    marginals come from their term's ``_marginal``.  ``learn`` first
    learns each term's knots or levels from its columns.
    """
    rows = sum(len(values) for cols in columns for values, _ in cols)
    marginals = sum(len(cols) for cols in columns)
    with obs_span("gam.basis", rows=rows, marginals=marginals):
        if learn:
            for term, cols in zip(terms, columns):
                term.learn(cols)
        tables = [[None] * len(cols) for cols in columns]
        slots, splines = [], []
        for t, (term, cols) in enumerate(zip(terms, columns)):
            for m, (values, _) in enumerate(cols):
                values = np.asarray(values, dtype=np.float64)
                spline = term._spline(m)
                if spline is None:
                    tables[t][m] = term._marginal(m, values)
                else:
                    slots.append((t, m))
                    splines.append((values, *spline))
        for (t, m), table in zip(slots, bspline_sweep(splines)):
            tables[t][m] = table
    return tables


def centered_blocks(terms, values) -> list[np.ndarray]:
    """The centered block of each term at its own ``(n, n_features)`` values.

    One :func:`marginal_tables` call evaluates every marginal.
    """
    columns = [[(v[:, m], None) for m in range(v.shape[1])] for v in values]
    blocks = []
    for term, cols, tables, v in zip(
        terms, columns, marginal_tables(terms, columns), values
    ):
        block = np.empty((len(v), term.n_coefs))
        term.fill(tables, cols, block)
        blocks.append(block)
    return blocks


class Term:
    """Base class: a block of design columns plus its penalty matrix."""

    #: indices of the raw features this term reads (empty for intercept)
    features: tuple[int, ...] = ()

    def learn(self, columns: list[tuple]) -> None:
        """Learn knots or levels from the training ``(values, codes)`` columns."""
        self._learn([_seen(values, codes) for values, codes in columns])

    def fill(
        self, tables: list[np.ndarray], columns: list[tuple], out: np.ndarray,
        fit: bool = False,
    ) -> None:
        """Write the centered block into ``out``: the marginal ``tables``
        gathered by the columns' codes and combined.  ``fit`` keeps the
        block's column means as the centering of every later design."""
        raw = self._combine([
            table if codes is None else table.take(codes, axis=0)
            for table, (_, codes) in zip(tables, columns)
        ])
        if fit:
            self.col_means_ = raw.mean(axis=0)
            self._fitted = True
        np.subtract(raw, self.col_means_, out=out)

    def fit_design(self, X: np.ndarray, coding=None) -> np.ndarray:
        """Learn data-dependent pieces and return the centered training block.

        The term learns its knots or levels from ``X`` (coded by
        ``coding``, see :func:`coded_columns`), evaluates its marginal
        bases once and keeps the block's column means as the centering of
        every later design.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        columns = coded_columns(X, coding, self.features)
        (tables,) = marginal_tables([self], [columns], learn=True)
        out = np.empty((len(X), self.n_coefs))
        self.fill(tables, columns, out, fit=True)
        return out

    def fit(self, X: np.ndarray) -> "Term":
        """Learn data-dependent pieces (domains, levels, centering means)."""
        self.fit_design(X)
        return self

    def design_for(self, values: np.ndarray) -> np.ndarray:
        """Centered design block for raw values of this term's features.

        ``values`` has shape ``(n, len(self.features))`` (or ``(n,)`` for a
        single-feature term).
        """
        self._check_fitted()
        values = np.asarray(values, dtype=np.float64).reshape(-1, len(self.features))
        return centered_blocks([self], [values])[0]

    def _learn(self, seen: list[np.ndarray]) -> None:
        """Learn knots or levels from the values each feature takes."""

    def _spline(self, m: int) -> tuple[np.ndarray, int] | None:
        """Knots and degree of the ``m``-th feature's B-spline basis, or
        ``None`` when its basis is the term's own ``_marginal``."""
        return None

    def _marginal(self, m: int, x: np.ndarray) -> np.ndarray:
        """Uncentered basis of the term's ``m``-th feature at values ``x``."""
        raise NotImplementedError

    def _combine(self, marginals: list[np.ndarray]) -> np.ndarray:
        """Uncentered block from the per-row marginal bases."""
        return marginals[0]

    def penalty(self) -> np.ndarray:
        """Smoothness penalty for this term's coefficients (unscaled)."""
        raise NotImplementedError

    @property
    def n_coefs(self) -> int:
        """Number of coefficients this term contributes."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Human-readable term label used in explanation output."""
        raise NotImplementedError

    def _check_fitted(self) -> None:
        if getattr(self, "_fitted", False) is not True:
            raise RuntimeError(f"{type(self).__name__} must be fitted first")


class InterceptTerm(Term):
    """The constant term alpha (one unpenalized column of ones)."""

    features = ()

    def fill(self, tables, columns, out, fit=False) -> None:
        if fit:
            self._fitted = True
        out.fill(1.0)

    def design_for(self, values: np.ndarray) -> np.ndarray:
        values = np.atleast_1d(values)
        return np.ones((values.shape[0], 1))

    def penalty(self) -> np.ndarray:
        return np.zeros((1, 1))

    @property
    def n_coefs(self) -> int:
        return 1

    @property
    def label(self) -> str:
        return "intercept"


class LinearTerm(Term):
    """A single unpenalized linear coefficient for one feature.

    The GLM building block the paper's section 3.1 contrasts with splines:
    maximally interpretable (one weight) but unable to bend.  Useful when
    the analyst knows a feature's effect is linear, or to build a pure-GLM
    surrogate from the same term machinery.  Its basis is the value
    itself, so centering subtracts the training mean.
    """

    def __init__(self, feature: int, name: str | None = None):
        self.features = (int(feature),)
        self.name = name
        self._fitted = False

    @property
    def mean_(self) -> float:
        """The training mean of the feature (the term's centering)."""
        return float(self.col_means_[0])

    @mean_.setter
    def mean_(self, value: float) -> None:
        self.col_means_ = np.array([float(value)])

    def _marginal(self, m: int, x: np.ndarray) -> np.ndarray:
        return x[:, None]

    def penalty(self) -> np.ndarray:
        return np.zeros((1, 1))

    @property
    def n_coefs(self) -> int:
        return 1

    @property
    def label(self) -> str:
        return self.name or f"l(x{self.features[0]})"


class SplineTerm(Term):
    """Univariate P-spline: cubic B-splines + 2nd-order difference penalty."""

    def __init__(
        self,
        feature: int,
        n_splines: int = 12,
        degree: int = 3,
        penalty_order: int = 2,
        name: str | None = None,
    ):
        if n_splines <= degree:
            raise ValueError("n_splines must exceed the spline degree")
        self.features = (int(feature),)
        self.n_splines = n_splines
        self.degree = degree
        self.penalty_order = penalty_order
        self.name = name
        self._fitted = False

    def _learn(self, seen: list[np.ndarray]) -> None:
        (x,) = seen
        self.knots_ = uniform_knots(float(x.min()), float(x.max()), self.n_splines, self.degree)

    def _spline(self, m: int) -> tuple[np.ndarray, int]:
        return self.knots_, self.degree

    def penalty(self) -> np.ndarray:
        return difference_penalty(self.n_splines, self.penalty_order)

    @property
    def n_coefs(self) -> int:
        return self.n_splines

    @property
    def label(self) -> str:
        return self.name or f"s(x{self.features[0]})"


class FactorTerm(Term):
    """Categorical feature: one (ridge-penalized) coefficient per level."""

    def __init__(self, feature: int, name: str | None = None):
        self.features = (int(feature),)
        self.name = name
        self._fitted = False

    def _learn(self, seen: list[np.ndarray]) -> None:
        self.levels_ = np.unique(seen[0])
        if len(self.levels_) < 2:
            raise ValueError(
                f"factor feature {self.features[0]} has a single level; "
                "a constant term is redundant with the intercept"
            )

    def _marginal(self, m: int, x: np.ndarray) -> np.ndarray:
        # Unseen levels produce an all-zero row: the term contributes only
        # its centering offset, a sane fallback for out-of-vocabulary input.
        idx = np.searchsorted(self.levels_, x)
        idx = np.clip(idx, 0, len(self.levels_) - 1)
        match = self.levels_[idx] == x
        out = np.zeros((len(x), len(self.levels_)))
        rows = np.nonzero(match)[0]
        out[rows, idx[rows]] = 1.0
        return out

    def penalty(self) -> np.ndarray:
        # Ridge penalty keeps the (centered, hence rank-deficient) one-hot
        # block identifiable, matching PyGAM's factor-term behaviour.
        return np.eye(len(self.levels_))

    @property
    def n_coefs(self) -> int:
        if not hasattr(self, "levels_"):  # known once the levels are learned
            self._check_fitted()
        return len(self.levels_)

    @property
    def label(self) -> str:
        return self.name or f"f(x{self.features[0]})"


class TensorTerm(Term):
    """Penalized tensor product of two marginal spline bases.

    The design is the row-wise Khatri–Rao product of the two univariate
    B-spline designs (each gathered by code on D*), and the penalty is the standard additive tensor
    penalty ``P_i (x) I + I (x) P_j``.
    """

    def __init__(
        self,
        feature_i: int,
        feature_j: int,
        n_splines: int = 7,
        degree: int = 3,
        penalty_order: int = 2,
        name: str | None = None,
    ):
        if feature_i == feature_j:
            raise ValueError("a tensor term needs two distinct features")
        if n_splines <= degree:
            raise ValueError("n_splines must exceed the spline degree")
        self.features = (int(feature_i), int(feature_j))
        self.n_splines = n_splines
        self.degree = degree
        self.penalty_order = penalty_order
        self.name = name
        self._fitted = False

    def _learn(self, seen: list[np.ndarray]) -> None:
        self.knots_ = [
            uniform_knots(float(x.min()), float(x.max()), self.n_splines, self.degree)
            for x in seen
        ]

    def _spline(self, m: int) -> tuple[np.ndarray, int]:
        return self.knots_[m], self.degree

    def _combine(self, marginals: list[np.ndarray]) -> np.ndarray:
        b_i, b_j = marginals
        # Row-wise outer product, flattened: column (a, b) -> a * n + b.
        return np.einsum("na,nb->nab", b_i, b_j).reshape(len(b_i), -1)

    def penalty(self) -> np.ndarray:
        p = difference_penalty(self.n_splines, self.penalty_order)
        eye = np.eye(self.n_splines)
        return np.kron(p, eye) + np.kron(eye, p)

    @property
    def n_coefs(self) -> int:
        return self.n_splines**2

    @property
    def label(self) -> str:
        return self.name or f"te(x{self.features[0]},x{self.features[1]})"
