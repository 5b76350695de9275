"""Tests for GAM fitting, prediction, PD curves and statistics."""

import numpy as np
import pytest

import repro.gam.model
from repro.gam import GAM, FactorTerm, InterceptTerm, SplineTerm, TensorTerm


@pytest.fixture(scope="module")
def additive_data():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (4000, 2))
    y = 2.0 + np.sin(6 * X[:, 0]) + (X[:, 1] - 0.5) ** 2 * 4 + rng.normal(0, 0.05, 4000)
    return X, y


@pytest.fixture(scope="module")
def fitted_gam(additive_data):
    X, y = additive_data
    gam = GAM([SplineTerm(0, 12), SplineTerm(1, 12)], lam=0.1)
    gam.fit(X, y)
    return gam


class TestFitting:
    def test_high_accuracy_on_additive_target(self, additive_data, fitted_gam):
        X, y = additive_data
        resid = y - fitted_gam.predict(X)
        assert np.std(resid) < 0.07  # close to the noise floor (0.05)

    def test_intercept_prepended_automatically(self, fitted_gam):
        assert isinstance(fitted_gam.terms[0], InterceptTerm)
        assert len(fitted_gam.terms) == 3

    def test_intercept_near_target_mean(self, additive_data, fitted_gam):
        _, y = additive_data
        # Terms are centered, so the intercept absorbs the mean response.
        assert fitted_gam.intercept_ == pytest.approx(np.mean(y), abs=0.05)

    def test_statistics_populated(self, fitted_gam):
        stats = fitted_gam.statistics_
        assert 0 < stats["edof"] < fitted_gam.n_coefs
        assert stats["scale"] > 0
        assert stats["GCV"] > 0
        assert stats["cov"].shape == (fitted_gam.n_coefs,) * 2

    def test_shape_validation(self):
        gam = GAM([SplineTerm(0)])
        with pytest.raises(ValueError):
            gam.fit(np.zeros((5, 1)), np.zeros(4))

    def test_needs_terms(self):
        with pytest.raises(ValueError):
            GAM([])

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            GAM([SplineTerm(0)], lam=-1.0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GAM([SplineTerm(0)]).predict(np.zeros((2, 1)))

    def test_chunked_fit_matches_single_chunk(self, additive_data, monkeypatch):
        X, y = additive_data
        small = GAM([SplineTerm(0, 8), SplineTerm(1, 8)], lam=1.0)
        big = GAM([SplineTerm(0, 8), SplineTerm(1, 8)], lam=1.0)
        monkeypatch.setattr(repro.gam.model, "_ROW_BLOCK", 100)
        small.fit(X, y)
        monkeypatch.setattr(repro.gam.model, "_ROW_BLOCK", 10**6)
        big.fit(X, y)
        # Chunked accumulation reorders floating-point sums; the fitted
        # function must agree even if null-space coefficients drift.
        np.testing.assert_allclose(small.predict(X), big.predict(X), atol=1e-7)


class TestSmoothing:
    def test_larger_lambda_smooths_more(self, additive_data):
        X, y = additive_data
        rough = GAM([SplineTerm(0, 16), SplineTerm(1, 16)], lam=1e-4).fit(X, y)
        smooth = GAM([SplineTerm(0, 16), SplineTerm(1, 16)], lam=1e4).fit(X, y)
        assert smooth.statistics_["edof"] < rough.statistics_["edof"]

    def test_huge_lambda_approaches_linear_fit(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (800, 1))
        y = 3 * X[:, 0] + rng.normal(0, 0.01, 800)
        gam = GAM([SplineTerm(0, 10)], lam=1e9).fit(X, y)
        # The 2nd-order penalty null space is linear, so a linear target
        # survives even infinite smoothing.
        resid = y - gam.predict(X)
        assert np.std(resid) < 0.05


class TestPartialDependence:
    def test_recovers_component_shape(self, additive_data, fitted_gam):
        grid = np.linspace(0.05, 0.95, 50)
        pd0 = fitted_gam.partial_dependence(1, grid)
        truth = np.sin(6 * grid)
        # Both are centered differently; compare after centering each.
        np.testing.assert_allclose(
            pd0 - pd0.mean(), truth - truth.mean(), atol=0.08
        )

    def test_intervals_contain_estimate(self, fitted_gam):
        grid = np.linspace(0, 1, 20)
        pd, ci = fitted_gam.partial_dependence(1, grid, width=0.95)
        assert np.all(ci[:, 0] <= pd) and np.all(pd <= ci[:, 1])

    def test_wider_width_wider_intervals(self, fitted_gam):
        grid = np.linspace(0, 1, 10)
        _, narrow = fitted_gam.partial_dependence(1, grid, width=0.5)
        _, wide = fitted_gam.partial_dependence(1, grid, width=0.99)
        assert np.all(wide[:, 1] - wide[:, 0] > narrow[:, 1] - narrow[:, 0])

    def test_intercept_pd_rejected(self, fitted_gam):
        with pytest.raises(ValueError):
            fitted_gam.partial_dependence(0, np.array([0.5]))

    def test_invalid_width(self, fitted_gam):
        with pytest.raises(ValueError):
            fitted_gam.partial_dependence(1, np.array([0.5]), width=1.5)

    def test_additivity(self, additive_data, fitted_gam):
        """eta(x) == intercept + sum of the terms' partial dependences."""
        X, _ = additive_data
        rows = X[:20]
        eta = fitted_gam.predict_eta(rows)
        total = np.full(20, fitted_gam.intercept_)
        for idx in (1, 2):
            total += fitted_gam.partial_dependence(idx, rows[:, idx - 1])
        np.testing.assert_allclose(eta, total, atol=1e-10)


class TestLogitGam:
    def test_logistic_recovery(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (5000, 1))
        p_true = 1 / (1 + np.exp(-(6 * X[:, 0] - 3)))
        y = (rng.uniform(size=5000) < p_true).astype(float)
        gam = GAM([SplineTerm(0, 8)], link="logit", lam=1.0).fit(X, y)
        p_hat = gam.predict_mu(X)
        assert np.mean(np.abs(p_hat - p_true)) < 0.05

    def test_mu_in_unit_interval(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (500, 1))
        y = (X[:, 0] > 0.5).astype(float)
        gam = GAM([SplineTerm(0, 6)], link="logit", lam=0.1).fit(X, y)
        mu = gam.predict_mu(X)
        assert np.all((mu >= 0) & (mu <= 1))

    def test_binomial_scale_fixed(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (300, 1))
        y = (rng.uniform(size=300) < 0.5).astype(float)
        gam = GAM([SplineTerm(0, 6)], link="logit").fit(X, y)
        assert gam.statistics_["scale"] == 1.0


class TestMixedTerms:
    def test_factor_plus_spline(self):
        rng = np.random.default_rng(5)
        X = np.column_stack(
            [rng.uniform(0, 1, 2000), rng.choice([0.0, 1.0, 2.0], 2000)]
        )
        effect = np.array([0.0, 1.0, -1.0])
        y = 2 * X[:, 0] + effect[X[:, 1].astype(int)] + rng.normal(0, 0.05, 2000)
        gam = GAM([SplineTerm(0, 8), FactorTerm(1)], lam=0.01).fit(X, y)
        pd_levels = gam.partial_dependence(2, np.array([0.0, 1.0, 2.0]))
        np.testing.assert_allclose(
            pd_levels - pd_levels.mean(), effect - effect.mean(), atol=0.05
        )

    def test_tensor_captures_interaction(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (3000, 2))
        y = X[:, 0] * X[:, 1] * 4 + rng.normal(0, 0.05, 3000)
        additive = GAM([SplineTerm(0, 8), SplineTerm(1, 8)], lam=0.1).fit(X, y)
        with_tensor = GAM(
            [SplineTerm(0, 8), SplineTerm(1, 8), TensorTerm(0, 1, 5)], lam=0.1
        ).fit(X, y)
        resid_add = np.std(y - additive.predict(X))
        resid_ten = np.std(y - with_tensor.predict(X))
        assert resid_ten < 0.6 * resid_add

    def test_summary_mentions_terms(self, fitted_gam):
        text = fitted_gam.summary()
        assert "s(x0)" in text and "s(x1)" in text and "GCV" in text

    def test_term_labels(self, fitted_gam):
        assert fitted_gam.term_labels() == ["intercept", "s(x0)", "s(x1)"]
