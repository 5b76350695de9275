"""Penalized-likelihood GAM fitting (the PyGAM stand-in).

The model is ``l(E[y|x]) = sum_t term_t(x)`` with a quadratic smoothness
penalty per term.  Fitting maximizes the penalized likelihood via PIRLS
(penalized iteratively re-weighted least squares); with the identity link
and normal response this reduces to a single penalized least-squares solve.

Degrees of freedom, the GCV score, and Bayesian credible intervals follow
Wood, *Generalized Additive Models: an introduction with R* (2006):

* ``edof = tr[(X'WX + S)^-1 X'WX]``
* ``GCV  = n * deviance / (n - edof)^2``
* ``V_beta = (X'WX + S)^-1 * scale``  (posterior covariance)

One PIRLS serves ``fit`` and the GCV search: each iteration forms the
working Gram once, factors it once and scores every candidate lambda from
that factorization (Gu's *performance iteration*, Wood 2006).  ``fit`` is
the one-candidate case; the identity link takes one iteration.

The training design is built once per fit and every PIRLS iteration
reuses it: an N-by-p float matrix, about 13 MB for the 16,000 x 101
design of the default explain, allocated once and filled term by term.
:meth:`GAM._design` is the one assembly path.  Each term's marginal
bases are evaluated once per distinct value of a coded column — on D*,
once per sampling-domain value (at most ``k`` rows per feature, not N)
— and gathered by code; an uncoded column (``GAM.fit`` on real data, an
archived dataset, prediction on arbitrary ``X``) is its own values under
the identity coding.  Prediction on arbitrary ``X`` streams the design
in ``_ROW_BLOCK``-row blocks and never materializes it.

Every evaluation makes one basis sweep
(:func:`~repro.gam.bsplines.bspline_sweep`) for all of its B-spline
marginals: ``_design`` for the fit, fidelity's coded test rows and
prediction, and :meth:`GAM.term_blocks` for the blocks of several
terms, each at its own values — a local explanation's instance rows and
spline windows, a global explanation's curves.  The results are
byte-equal to one evaluation per term and marginal: the sweep gives each
element the same arithmetic, and every contribution keeps its own
matmul at the shape a per-term call used (:meth:`GAM.contribution` on
one request's block), since a gemv over more rows need not give the
same bits.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from ..core.errors import FitDivergenceError
from ..core.numerics import (
    assert_all_finite,
    assert_psd_diagonal,
    numerics_guard,
)
from ..obs.metrics import inc as metric_inc
from ..obs.trace import span as obs_span
from .distributions import get_distribution
from .links import get_link
from .terms import (
    InterceptTerm,
    Term,
    centered_blocks,
    coded_columns,
    marginal_tables,
)

__all__ = ["GAM"]

#: Rows per block for Gram accumulation, the PIRLS linear predictor and
#: arbitrary-X prediction.  The blocks fix the floating-point summation
#: order once n exceeds one block, so changing them changes fitted bits:
#: that needs a bump of :data:`repro.core.config.KERNEL_VERSION`.
_ROW_BLOCK = 16384


def _blocks(n: int):
    for start in range(0, n, _ROW_BLOCK):
        yield start, min(start + _ROW_BLOCK, n)


def _check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    """Training data as float arrays: equal lengths, n >= 2, all finite."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(X) != len(y):
        raise ValueError("X and y have inconsistent lengths")
    if len(y) < 2:
        raise ValueError("need at least two samples")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("X and y must be finite (no NaN/inf)")
    return X, y


def _gram(D: np.ndarray, w: np.ndarray | None, z: np.ndarray):
    """``X'WX``, ``X'Wz`` and ``z'Wz`` in row blocks, each block scaled by
    ``sqrt(w)``; ``w=None`` (identity link) uses the design as it is."""
    p = D.shape[1]
    G = np.zeros((p, p))
    b = np.zeros(p)
    zwz = 0.0
    for lo, hi in _blocks(len(D)):
        d, zb = D[lo:hi], z[lo:hi]
        if w is not None:
            root = np.sqrt(w[lo:hi])
            d, zb = d * root[:, None], zb * root
        G += d.T @ d
        b += d.T @ zb
        zwz += float(zb @ zb)
    return G, b, zwz


def _score(G, b, zwz, n, penalty, ridge, lams):
    """Coefficients, edof and working-model GCV of every multiplier.

    One Demmler–Reinsch factorization serves every ``lam``: with ``G +
    ridge*I + kappa*P = K K'`` and ``eigh(K^-1 P K^-T) = U diag(t) U'``,
    ``V = K^-T U`` turns ``G + ridge*I + lam*P`` into ``diag(d)``, ``d_i =
    1 + (lam - kappa)*t_i >= rho_i + lam*t_i`` with ``rho_i =
    ridge*|v_i|^2``.  So ``beta = V (V'b / d)``, ``edof = sum_i (1 -
    kappa*t_i - rho_i) / d_i`` and ``GCV = n * (z'Wz - 2 beta'b + beta'G
    beta) / (n - edof)^2``.  Factoring at the middle candidate ``kappa``,
    not at 0, bounds ``t`` by ``1/kappa``: at 0, ``eigh``'s error on the
    scale ``|P|/ridge`` of directions the design cannot see moved fitted
    values by 4e-5 at ``lam = 1000`` on a small tensor GAM (4e-13 here).
    """
    kappa = float(lams[len(lams) // 2])
    C = G + kappa * penalty
    C[np.diag_indices_from(C)] += ridge
    K_inv = np.linalg.inv(np.linalg.cholesky(C))
    t, U = np.linalg.eigh(K_inv @ penalty @ K_inv.T)
    V = K_inv.T @ U
    t = np.maximum(t, 0.0)  # P is PSD: negative eigenvalues are rounding
    rho = ridge * np.einsum("ij,ij->j", V, V)
    shrink = 1.0 / np.maximum(
        1.0 + np.outer(t, lams - kappa), rho[:, None] + np.outer(t, lams)
    )
    betas = V @ (shrink * (V.T @ b)[:, None])
    edofs = np.maximum(1.0 - kappa * t - rho, 0.0) @ shrink
    rss = zwz - 2.0 * (b @ betas) + np.einsum("ik,ik->k", betas, G @ betas)
    gcvs = n * np.maximum(rss, 0.0) / np.maximum(n - edofs, 1e-8) ** 2
    return betas, edofs, gcvs


class GAM:
    """Generalized additive model with penalized spline terms.

    Parameters
    ----------
    terms:
        List of :class:`~repro.gam.terms.Term`.  An intercept is prepended
        automatically if absent.
    link:
        ``"identity"`` (regression) or ``"logit"`` (classification).
    distribution:
        ``"normal"`` or ``"binomial"``; defaults to the canonical choice
        for the link.
    lam:
        Smoothing parameter.  A scalar is shared by every penalized term
        (the paper varies one lambda "equally for each term used"); a
        sequence gives one lambda per term — matching either the terms as
        passed or the final term list with the auto-prepended intercept.
    """

    def __init__(
        self,
        terms: list[Term],
        link: str = "identity",
        distribution: str | None = None,
        lam: float = 0.6,
        max_iter: int = 50,
        tol: float = 1e-7,
        ridge: float = 1e-8,
    ):
        if not terms:
            raise ValueError("a GAM needs at least one term")
        n_given = len(terms)
        if not any(isinstance(t, InterceptTerm) for t in terms):
            terms = [InterceptTerm(), *terms]
        self.terms = list(terms)
        lam = self._resolve_lam(lam, n_given)
        self.link = get_link(link)
        if distribution is None:
            distribution = "binomial" if link == "logit" else "normal"
        self.distribution = get_distribution(distribution)
        self.lam = lam
        self.max_iter = max_iter
        self.tol = tol
        self.ridge = ridge

        self.coef_: np.ndarray | None = None
        self.statistics_: dict = {}

    # ------------------------------------------------------------------
    # design helpers
    # ------------------------------------------------------------------
    def _term_slices(self) -> list[slice]:
        slices = []
        start = 0
        for term in self.terms:
            stop = start + term.n_coefs
            slices.append(slice(start, stop))
            start = stop
        return slices

    @property
    def n_coefs(self) -> int:
        """Total number of model coefficients across all terms."""
        return sum(t.n_coefs for t in self.terms)

    def _design(self, X: np.ndarray, coding=None, fit: bool = False) -> np.ndarray:
        """The centered design of ``X``, one preallocated matrix.

        ``coding`` is ``None`` or a ``(domains, codes)`` pair with ``X[:,
        f] == domains[f][codes[f]]`` (see
        :func:`~repro.gam.terms.coded_columns`): the marginal bases are
        evaluated on each coded feature's domain values and gathered by
        code, with the same bytes as an evaluation on every row.  ``fit``
        first learns every term's knots or levels from the values seen
        and keeps each block's column means as its centering.
        """
        columns = [coded_columns(X, coding, term.features) for term in self.terms]
        tables = marginal_tables(self.terms, columns, learn=fit)
        D = np.empty((len(X), self.n_coefs))
        with obs_span("gam.assemble"):
            for term, cols, tabs, sl in zip(
                self.terms, columns, tables, self._term_slices()
            ):
                term.fill(tabs, cols, D[:, sl], fit)
        return D

    def _fit_design(self, X: np.ndarray, coding=None) -> np.ndarray:
        """Fit every term on ``X`` and return the full training design."""
        with obs_span("gam.design", rows=len(X)) as sp:
            D = self._design(X, coding, fit=True)
            sp.set(cols=D.shape[1])
        return D

    def _resolve_lam(self, lam, n_given_terms: int):
        """Normalize ``lam`` to a scalar or a per-term array over self.terms.

        Sequences may match either the user-supplied term list (in which
        case the auto-prepended intercept receives lambda 0 — its penalty
        is zero anyway) or the final term list.
        """
        if np.isscalar(lam):
            lam = float(lam)
            if lam < 0:
                raise ValueError("lam must be >= 0")
            return lam
        lam = np.asarray(lam, dtype=np.float64).ravel()
        if np.any(lam < 0):
            raise ValueError("all lambdas must be >= 0")
        if len(lam) == len(self.terms):
            return lam
        if len(lam) == n_given_terms and len(self.terms) == n_given_terms + 1:
            return np.concatenate([[0.0], lam])
        raise ValueError(
            f"lam sequence length {len(lam)} matches neither the given "
            f"terms ({n_given_terms}) nor the final terms ({len(self.terms)})"
        )

    def _lam_per_term(self, lam=None) -> np.ndarray:
        lam = self.lam if lam is None else lam
        if np.isscalar(lam):
            return np.full(len(self.terms), float(lam))
        lam = np.asarray(lam, dtype=np.float64).ravel()
        if len(lam) != len(self.terms):
            raise ValueError("per-term lam length mismatch")
        return lam

    def penalty_matrix(self, lam=None) -> np.ndarray:
        """Block-diagonal penalty ``sum_t lam_t * P_t``, without the ridge."""
        lam_terms = self._lam_per_term(lam)
        p = self.n_coefs
        S = np.zeros((p, p))
        for term, sl, lam_t in zip(self.terms, self._term_slices(), lam_terms):
            S[sl, sl] = lam_t * term.penalty()
        assert_psd_diagonal(S, "GAM.penalty_matrix")
        return S

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GAM":
        """Fit by PIRLS; records edof, scale, GCV and V_beta in statistics_.

        A scalar ``lam`` is one GCV candidate of the unit penalty.
        """
        X, y = _check_xy(X, y)
        D = self._fit_design(X)
        if np.isscalar(self.lam):
            self._pirls(D, y, self.penalty_matrix(1.0), [self.lam])
        else:
            self._pirls(D, y, self.penalty_matrix(), [1.0])
        return self

    def _pirls(self, D: np.ndarray, y: np.ndarray, penalty: np.ndarray, lams):
        """PIRLS on a training design, choosing among ``lams`` every step.

        Each iteration scores every multiplier ``lam`` of ``penalty`` on
        the working model by GCV and takes the minimizer's coefficients
        (performance iteration), until the deviance converges.  Sets
        ``coef_`` and ``statistics_``; returns the selected multiplier and
        the ``(lam, GCV)`` scores of the final iteration.
        """
        n, p = D.shape
        lams = np.asarray(lams, dtype=np.float64)
        identity_normal = (
            self.link.name == "identity" and self.distribution.name == "normal"
        )
        if identity_normal:
            # w = 1 and z = y: the working model is the model itself.
            w, z = None, y
        elif self.distribution.name == "binomial":
            # Initialize eta from the observed response (standard GLM start).
            eta = self.link.link(np.clip(y, 0.01, 0.99) * 0.5 + 0.25)
        else:
            eta = self.link.link(np.full(n, float(np.mean(y))))
        deviance_prev = np.inf

        with obs_span("gam.fit", n=n, p=p), numerics_guard("PIRLS solve"):
            for iteration in range(self.max_iter):
                if not identity_normal:
                    mu = self.link.inverse(eta)
                    g_prime = self.link.derivative(mu)
                    w = 1.0 / (g_prime**2 * self.distribution.variance(mu))
                    z = eta + (y - mu) * g_prime
                with obs_span("gam.gram"):
                    G, b, zwz = _gram(D, w, z)
                with obs_span("gcv.score", candidates=len(lams)), numerics_guard(
                    "GCV scoring"
                ):
                    try:
                        betas, edofs, gcvs = _score(
                            G, b, zwz, n, penalty, self.ridge, lams
                        )
                    except np.linalg.LinAlgError as exc:
                        raise FitDivergenceError(
                            f"PIRLS normal equations singular at iteration "
                            f"{iteration}: {exc}"
                        ) from exc
                    assert_all_finite(gcvs, "GCV scores")
                best = int(np.argmin(gcvs))
                beta = betas[:, best]

                eta = np.concatenate([D[lo:hi] @ beta for lo, hi in _blocks(n)])
                deviance = self.distribution.deviance(y, self.link.inverse(eta))
                if identity_normal or abs(deviance_prev - deviance) < self.tol * (
                    abs(deviance) + self.tol
                ):
                    break
                deviance_prev = deviance

        metric_inc("fit.pirls_iters", iteration + 1)
        assert_all_finite(beta, "PIRLS coefficients")
        if not np.all(np.isfinite(beta)):
            # Divergence must surface even with the sanitizer off: a NaN
            # coefficient vector poisons every downstream prediction.
            raise FitDivergenceError("PIRLS produced non-finite coefficients")
        lam, edof = float(lams[best]), float(edofs[best])
        if self.distribution.fixed_scale is not None:
            scale = float(self.distribution.fixed_scale)
        else:
            scale = deviance / max(n - edof, 1.0)
        gcv = n * deviance / max(n - edof, 1e-8) ** 2
        assert_all_finite(np.asarray([edof, scale, gcv]), "GAM statistics")
        A = G + lam * penalty
        A[np.diag_indices(p)] += self.ridge
        self.coef_ = beta
        self.statistics_ = {
            "edof": edof,
            "scale": scale,
            "deviance": deviance,
            "GCV": gcv,
            "n_samples": n,
            "cov": np.linalg.inv(A) * scale,
        }
        return lam, [(float(l_), float(g_)) for l_, g_ in zip(lams, gcvs)]

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.coef_ is None:
            raise RuntimeError("GAM is not fitted")

    def predict_eta(self, X: np.ndarray, coding=None) -> np.ndarray:
        """Linear predictor (link scale).

        ``coding`` codes ``X`` as in :meth:`_design` (D*'s test rows);
        the result is bitwise the same as without it.
        """
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        eta = np.empty(len(X))
        for lo, hi in _blocks(len(X)):
            block = coding
            if coding is not None:
                domains, codes = coding
                block = (domains, {f: c[lo:hi] for f, c in codes.items()})
            eta[lo:hi] = self._design(X[lo:hi], block) @ self.coef_
        return eta

    def predict_mu(self, X: np.ndarray, coding=None) -> np.ndarray:
        """Response mean: inverse link of the linear predictor."""
        return self.link.inverse(self.predict_eta(X, coding))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Alias for :meth:`predict_mu` (pyGAM-compatible)."""
        return self.predict_mu(X)

    def prediction_intervals(
        self, X: np.ndarray, width: float = 0.95
    ) -> np.ndarray:
        """Bayesian credible intervals of the *mean* prediction.

        Returns an ``(n, 2)`` array of lower/upper bounds on the response
        scale.  Intervals are computed on the link scale from the
        coefficient posterior (Wood 2006) and mapped through the inverse
        link, so for the logit link they stay inside (0, 1).
        """
        self._check_fitted()
        if not 0.0 < width < 1.0:
            raise ValueError("width must be in (0, 1)")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        vb = self.statistics_["cov"]
        z = float(ndtri(0.5 + width / 2.0))
        lower = np.empty(len(X))
        upper = np.empty(len(X))
        for lo, hi in _blocks(len(X)):
            d = self._design(X[lo:hi])
            eta = d @ self.coef_
            se = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", d, vb, d), 0.0))
            lower[lo:hi] = eta - z * se
            upper[lo:hi] = eta + z * se
        return np.stack(
            [self.link.inverse(lower), self.link.inverse(upper)], axis=1
        )

    # ------------------------------------------------------------------
    # interpretation
    # ------------------------------------------------------------------
    @property
    def intercept_(self) -> float:
        """Fitted intercept alpha."""
        self._check_fitted()
        idx = next(
            i for i, t in enumerate(self.terms) if isinstance(t, InterceptTerm)
        )
        return float(self.coef_[self._term_slices()[idx]][0])

    def term_blocks(self, requests) -> list[np.ndarray]:
        """Centered design blocks of several terms, each at its own values.

        ``requests`` is a sequence of ``(term_index, values)`` pairs, with
        ``values`` shaped as for :meth:`partial_dependence`; a term may
        appear more than once.  Every marginal basis of every request
        comes from one basis sweep.
        """
        self._check_fitted()
        terms, values = [], []
        for term_index, vals in requests:
            term = self.terms[term_index]
            if isinstance(term, InterceptTerm):
                raise ValueError(
                    "partial dependence of the intercept is a constant"
                )
            terms.append(term)
            values.append(
                np.asarray(vals, dtype=np.float64).reshape(-1, len(term.features))
            )
        return centered_blocks(terms, values)

    def contribution(
        self, term_index: int, block: np.ndarray, width: float | None = None
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Contribution of one term from its centered ``block`` (see
        :meth:`term_blocks`), with the Bayesian credible interval as an
        ``(n, 2)`` array when ``width`` is given (e.g. ``0.95``)."""
        sl = self._term_slices()[term_index]
        contrib = block @ self.coef_[sl]
        if width is None:
            return contrib
        if not 0.0 < width < 1.0:
            raise ValueError("width must be in (0, 1)")
        vb = self.statistics_["cov"][sl, sl]
        se = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", block, vb, block), 0.0))
        z = float(ndtri(0.5 + width / 2.0))
        intervals = np.stack([contrib - z * se, contrib + z * se], axis=1)
        return contrib, intervals

    def partial_dependence(
        self,
        term_index: int,
        values: np.ndarray,
        width: float | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Contribution of one term at the given raw feature values.

        The one-request case of :meth:`term_blocks` and
        :meth:`contribution`.

        Parameters
        ----------
        term_index:
            Index into ``self.terms`` (the intercept counts).
        values:
            ``(n,)`` for univariate terms or ``(n, 2)`` for tensor terms.
        width:
            If given (e.g. ``0.95``), also return the Bayesian credible
            interval as an ``(n, 2)`` array.

        Returns
        -------
        contribution, or (contribution, intervals) when ``width`` is set.
        """
        (block,) = self.term_blocks([(term_index, values)])
        return self.contribution(term_index, block, width)

    def decompose(self, X: np.ndarray) -> dict[str, np.ndarray]:
        """Per-term contributions for a batch, on the link scale.

        Returns a mapping from term label to an ``(n,)`` contribution
        array (the intercept maps to a constant array).  The arrays sum
        to :meth:`predict_eta` exactly — the additive decomposition that
        makes a GAM an explanation.  Each term makes its own basis sweep
        over all of ``X``, so only one term's block is alive at a time.
        """
        self._check_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out: dict[str, np.ndarray] = {}
        for term, sl in zip(self.terms, self._term_slices()):
            values = X[:, list(term.features)]
            out[term.label] = centered_blocks([term], [values])[0] @ self.coef_[sl]
        return out

    def term_labels(self) -> list[str]:
        """Labels of all terms, in coefficient order."""
        return [t.label for t in self.terms]

    def summary(self) -> str:
        """Plain-text model summary (terms, edof, scale, GCV)."""
        self._check_fitted()
        stats = self.statistics_
        lam_text = (
            f"{self.lam:g}" if np.isscalar(self.lam)
            else np.array2string(np.asarray(self.lam), precision=3)
        )
        lines = [
            f"GAM(link={self.link.name}, dist={self.distribution.name}, "
            f"lam={lam_text})",
            f"  n_samples: {stats['n_samples']}   coefficients: {self.n_coefs}",
            f"  edof: {stats['edof']:.2f}   scale: {stats['scale']:.5g}   "
            f"GCV: {stats['GCV']:.5g}",
            "  terms:",
        ]
        for term, sl in zip(self.terms, self._term_slices()):
            lines.append(f"    {term.label:<20s} coefs[{sl.start}:{sl.stop}]")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # model selection
    # ------------------------------------------------------------------
    def gridsearch(
        self,
        X: np.ndarray,
        y: np.ndarray,
        lam_grid: np.ndarray | None = None,
        verbose: bool = False,
        coding=None,
    ) -> "GAM":
        """Pick the shared lambda minimizing GCV, then keep the best fit.

        Mirrors the paper's Generalized Cross Validation step with a single
        lambda shared by all terms.  ``coding`` codes ``X`` as in
        :meth:`_design` (D*'s training rows); the fit is bitwise the same
        as without it.
        """
        from .gcv import gcv_gridsearch

        return gcv_gridsearch(
            self, X, y, lam_grid=lam_grid, verbose=verbose, coding=coding
        )
