"""Tests for GCV-based smoothing-parameter selection."""

import numpy as np
import pytest

import repro.gam.terms
from repro.core.numerics import get_numerics_mode, set_numerics_mode
from repro.gam import GAM, SplineTerm, TensorTerm, default_lam_grid, gcv_gridsearch
from repro.obs import disable_tracing, enable_tracing


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
        """Each basis is evaluated once per training matrix, for every lambda."""
        X, ys = two_feature_data
        calls = []
        original = repro.gam.terms.bspline_design

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.gam.terms, "bspline_design", counting)
        gam = GAM(
            [SplineTerm(0, 8), SplineTerm(1, 8), TensorTerm(0, 1, 5)], link=link
        )
        gam.gridsearch(X, ys[link], lam_grid=np.logspace(-2, 2, 5))
        # n_splines + 2 * n_tensors, each on every training row.
        assert calls == [len(X)] * 4

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

    def test_logit_search_shares_fit_pirls(self, two_feature_data):
        """A one-candidate logit search reproduces ``fit`` bit for bit."""
        X, ys = two_feature_data
        terms = lambda: [SplineTerm(0, 8), SplineTerm(1, 8), TensorTerm(0, 1, 5)]
        searched = GAM(terms(), link="logit").gridsearch(
            X, ys["logit"], lam_grid=[0.3]
        )
        fitted = GAM(terms(), link="logit", lam=0.3).fit(X, ys["logit"])
        np.testing.assert_array_equal(searched.coef_, fitted.coef_)
        np.testing.assert_array_equal(
            searched.statistics_["cov"], fitted.statistics_["cov"]
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
