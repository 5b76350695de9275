"""Tests for GCV-based smoothing-parameter selection."""

import numpy as np
import pytest

import repro.gam.terms
from repro.core.numerics import get_numerics_mode, set_numerics_mode
from repro.gam import GAM, SplineTerm, TensorTerm, default_lam_grid, gcv_gridsearch
from repro.gam.model import _gram, _score
from repro.obs import disable_metrics, disable_tracing, enable_metrics, enable_tracing


@pytest.fixture(scope="module")
def wiggly_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (3000, 1))
    y = np.sin(12 * X[:, 0]) + rng.normal(0, 0.2, 3000)
    return X, y


class TestGcvSearch:
    def test_selects_from_grid(self, wiggly_data):
        X, y = wiggly_data
        gam = GAM([SplineTerm(0, 20)])
        grid = np.logspace(-3, 3, 7)
        gam.gridsearch(X, y, lam_grid=grid)
        assert gam.lam in grid

    def test_lam_path_recorded(self, wiggly_data):
        X, y = wiggly_data
        gam = GAM([SplineTerm(0, 20)])
        gam.gridsearch(X, y, lam_grid=np.logspace(-2, 2, 5))
        path = gam.statistics_["lam_path"]
        assert len(path) == 5
        best_gcv = min(g for _, g in path)
        assert gam.statistics_["GCV"] == pytest.approx(best_gcv, rel=1e-9)

    def test_fast_path_matches_direct_fit(self, wiggly_data):
        """The Gram-reuse identity path must equal an ordinary fit."""
        X, y = wiggly_data
        fast = GAM([SplineTerm(0, 14)])
        gcv_gridsearch(fast, X, y, lam_grid=np.array([0.5]))
        direct = GAM([SplineTerm(0, 14)], lam=0.5).fit(X, y)
        # Coefficients can differ in the weakly determined penalty null
        # space (tiny ridge); the fitted function must agree regardless.
        np.testing.assert_allclose(fast.predict(X), direct.predict(X), atol=1e-7)
        assert fast.statistics_["GCV"] == pytest.approx(
            direct.statistics_["GCV"], rel=1e-6
        )

    def test_gcv_avoids_extreme_smoothing(self, wiggly_data):
        """With real curvature, GCV should reject the most extreme lambda."""
        X, y = wiggly_data
        gam = GAM([SplineTerm(0, 20)])
        gam.gridsearch(X, y, lam_grid=np.logspace(-4, 6, 11))
        assert gam.lam < 1e6

    def test_selected_model_predicts_well(self, wiggly_data):
        X, y = wiggly_data
        gam = GAM([SplineTerm(0, 20)])
        gam.gridsearch(X, y)
        resid = y - gam.predict(X)
        assert np.std(resid) < 0.25

    def test_empty_grid_rejected(self, wiggly_data):
        X, y = wiggly_data
        with pytest.raises(ValueError):
            GAM([SplineTerm(0, 8)]).gridsearch(X, y, lam_grid=np.array([]))

    def test_negative_lambda_rejected(self, wiggly_data):
        X, y = wiggly_data
        with pytest.raises(ValueError):
            GAM([SplineTerm(0, 8)]).gridsearch(X, y, lam_grid=np.array([-1.0]))

    def test_default_grid_spans_orders_of_magnitude(self):
        grid = default_lam_grid()
        assert grid.min() <= 1e-3 and grid.max() >= 1e3

    def test_logit_gridsearch(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (1500, 1))
        p = 1 / (1 + np.exp(-(8 * X[:, 0] - 4)))
        y = (rng.uniform(size=1500) < p).astype(float)
        gam = GAM([SplineTerm(0, 8)], link="logit")
        gam.gridsearch(X, y, lam_grid=np.logspace(-1, 1, 3))
        assert len(gam.statistics_["lam_path"]) == 3
        assert np.mean(np.abs(gam.predict_mu(X) - p)) < 0.08


@pytest.fixture(scope="module")
def two_feature_data():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (1200, 2))
    eta = 3 * np.sin(4 * X[:, 0]) + 2 * X[:, 0] * X[:, 1] - 2
    y_identity = eta + rng.normal(0, 0.1, len(X))
    y_logit = (rng.uniform(size=len(X)) < 1 / (1 + np.exp(-eta))).astype(float)
    return X, {"identity": y_identity, "logit": y_logit}


class TestSharedDesign:
    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_one_basis_evaluation_per_term(self, two_feature_data, link, monkeypatch):
        """One basis sweep per training matrix, for every lambda: it covers
        every marginal of every term, each on every training row."""
        X, ys = two_feature_data
        sweeps = []
        original = repro.gam.terms.bspline_sweep

        def counting(marginals):
            marginals = list(marginals)
            sweeps.append([len(x) for x, _, _ in marginals])
            return original(marginals)

        monkeypatch.setattr(repro.gam.terms, "bspline_sweep", counting)
        gam = GAM(
            [SplineTerm(0, 8), SplineTerm(1, 8), TensorTerm(0, 1, 5)], link=link
        )
        gam.gridsearch(X, ys[link], lam_grid=np.logspace(-2, 2, 5))
        # One sweep of n_splines + 2 * n_tensors marginals.
        assert sweeps == [[len(X)] * 4]

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_one_design_span_per_search(self, two_feature_data, link):
        X, ys = two_feature_data
        tracer = enable_tracing()
        try:
            GAM([SplineTerm(0, 8), TensorTerm(0, 1, 5)], link=link).gridsearch(
                X, ys[link], lam_grid=[0.1, 1.0, 10.0]
            )
        finally:
            disable_tracing()
        (gcv,) = tracer.find("gam.gcv")
        (design,) = tracer.find("gam.design")
        assert design.parent_id == gcv.span_id
        # intercept + 8 spline columns + 25 tensor columns
        assert design.attrs == {"rows": len(X), "cols": 34}

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_fit_equals_one_candidate_search(self, two_feature_data, link):
        """``fit`` at lambda is the one-candidate search, bit for bit."""
        X, ys = two_feature_data
        terms = lambda: [SplineTerm(0, 8), SplineTerm(1, 8), TensorTerm(0, 1, 5)]
        searched = GAM(terms(), link=link).gridsearch(X, ys[link], lam_grid=[0.3])
        fitted = GAM(terms(), link=link, lam=0.3).fit(X, ys[link])
        np.testing.assert_array_equal(searched.coef_, fitted.coef_)
        for key in ("edof", "scale", "deviance", "GCV", "cov"):
            np.testing.assert_array_equal(
                searched.statistics_[key], fitted.statistics_[key]
            )


def _working_model(gam, X, y):
    """Design, weights and working response of ``gam`` at its GLM start."""
    D = gam._fit_design(X)
    if gam.link.name == "identity":
        return D, None, y
    mu = np.clip(y, 0.01, 0.99) * 0.5 + 0.25
    g_prime = gam.link.derivative(mu)
    w = 1.0 / (g_prime**2 * gam.distribution.variance(mu))
    return D, w, gam.link.link(mu) + (y - mu) * g_prime


#: Relative error of se^2 from the Demmler-Reinsch factors against the
#: direct inverse, per ridge.  Measured maxima over both links and the 13
#: candidates: 4.5e-11 at 1e-3 and 1.0e-5 at 1e-8, where the ridge alone
#: pins some directions and one step of iterative refinement puts both
#: forms about 1e-6..9e-6 from the refined inverse.
COV_RTOL = {1e-3: 1e-9, 1e-8: 3e-5}


class TestCandidateScoring:
    """Every candidate scored from one factorization, against a direct
    ``np.linalg.solve`` of its own penalized normal equations."""

    LAMS = np.logspace(-3, 3, 13)

    def _both(self, two_feature_data, link, ridge):
        X, ys = two_feature_data
        terms = [SplineTerm(0, 8), SplineTerm(1, 8), TensorTerm(0, 1, 5)]
        gam = GAM(terms, link=link, ridge=ridge)
        D, w, z = _working_model(gam, X, ys[link])
        n = len(z)
        weights = np.ones(n) if w is None else w
        G, b, zwz = _gram(D, w, z)
        P = gam.penalty_matrix(1.0)
        scored = _score(G, b, zwz, n, P, ridge, self.LAMS)
        direct = []
        for lam in self.LAMS:
            A = G + lam * P + ridge * np.eye(len(G))
            beta = np.linalg.solve(A, b)
            edof = np.trace(np.linalg.solve(A, G))
            rss = np.sum(weights * (z - D @ beta) ** 2)
            direct.append((beta, edof, n * rss / (n - edof) ** 2))
        return D, scored, direct

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_matches_direct_solve(self, two_feature_data, link):
        # A ridge that makes every direction identifiable: both sides are
        # then accurate far below the 1e-9 compared here.
        _, (betas, edofs, gcvs, _, _), direct = self._both(two_feature_data, link, 1e-3)
        for k, (beta, edof, gcv) in enumerate(direct):
            np.testing.assert_allclose(
                betas[:, k], beta, rtol=0, atol=1e-9 * np.abs(beta).max()
            )
            assert edofs[k] == pytest.approx(edof, rel=1e-9)
            assert gcvs[k] == pytest.approx(gcv, rel=1e-9)

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_matches_direct_solve_at_default_ridge(self, two_feature_data, link):
        # At ridge 1e-8 the centered blocks and the tensor margins leave
        # directions only the ridge pins, so coefficients are defined only
        # up to those; the fitted values and the GCV curve are not.
        D, (betas, edofs, gcvs, _, _), direct = self._both(two_feature_data, link, 1e-8)
        for k, (beta, edof, gcv) in enumerate(direct):
            fitted = D @ beta
            np.testing.assert_allclose(
                D @ betas[:, k], fitted, rtol=0, atol=1e-9 * np.abs(fitted).max()
            )
            assert edofs[k] == pytest.approx(edof, rel=1e-5)
            assert gcvs[k] == pytest.approx(gcv, rel=1e-7)


    @pytest.mark.parametrize("link", ["identity", "logit"])
    @pytest.mark.parametrize("ridge", [1e-3, 1e-8])
    def test_factors_give_the_covariance(self, two_feature_data, link, ridge):
        """``V diag(shrink) V'`` is ``(G + lam*P + ridge*I)^-1`` of every
        candidate: the posterior variance of the design rows' fitted
        values (se^2) agrees with the direct inverse's."""
        X, ys = two_feature_data
        gam = GAM([SplineTerm(0, 8), SplineTerm(1, 8), TensorTerm(0, 1, 5)], link=link)
        D, w, z = _working_model(gam, X, ys[link])
        G, b, zwz = _gram(D, w, z)
        P = gam.penalty_matrix(1.0)
        *_, V, shrink = _score(G, b, zwz, len(z), P, ridge, self.LAMS)
        for k, lam in enumerate(self.LAMS):
            direct = np.linalg.inv(G + lam * P + ridge * np.eye(len(G)))
            se2 = np.einsum("ij,jk,ik->i", D, (V * shrink[:, k]) @ V.T, D)
            want = np.einsum("ij,jk,ik->i", D, direct, D)
            np.testing.assert_allclose(se2, want, rtol=COV_RTOL[ridge])


class TestKernelSpans:
    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_one_gram_and_one_score_per_pirls_iteration(
        self, two_feature_data, link
    ):
        X, ys = two_feature_data
        tracer = enable_tracing()
        registry = enable_metrics()
        try:
            GAM([SplineTerm(0, 8), TensorTerm(0, 1, 5)], link=link).gridsearch(
                X, ys[link], lam_grid=default_lam_grid()
            )
        finally:
            disable_tracing()
            disable_metrics()
        iters = registry.counter("fit.pirls_iters")
        assert iters == 1 if link == "identity" else iters > 1
        assert len(tracer.find("gam.gram")) == iters
        assert len(tracer.find("gcv.score")) == iters
        (fit,) = tracer.find("gam.fit")
        for sp in tracer.find("gam.gram") + tracer.find("gcv.score"):
            assert sp.parent_id == fit.span_id
        assert all(
            sp.attrs["candidates"] == 13 for sp in tracer.find("gcv.score")
        )


class TestInputCheck:
    @pytest.mark.parametrize("mode", ["off", "strict"])
    @pytest.mark.parametrize("link", ["identity", "logit"])
    @pytest.mark.parametrize("bad", ["X", "y"])
    def test_non_finite_input_rejected(self, two_feature_data, link, mode, bad):
        """Both GCV paths refuse NaN input as ``fit`` does, sanitizer on or off."""
        X, ys = two_feature_data
        X, y = X.copy(), ys[link].copy()
        (X if bad == "X" else y)[5] = np.nan
        previous = get_numerics_mode()
        set_numerics_mode(mode)
        try:
            with pytest.raises(ValueError, match="finite"):
                GAM([SplineTerm(0, 8)], link=link).gridsearch(
                    X, y, lam_grid=[0.1, 1.0]
                )
        finally:
            set_numerics_mode(previous)

    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_length_mismatch_and_tiny_n_rejected(self, two_feature_data, link):
        X, ys = two_feature_data
        gam = GAM([SplineTerm(0, 8)], link=link)
        with pytest.raises(ValueError, match="inconsistent"):
            gam.gridsearch(X, ys[link][:-1], lam_grid=[1.0])
        with pytest.raises(ValueError, match="two samples"):
            gam.gridsearch(X[:1], ys[link][:1], lam_grid=[1.0])
