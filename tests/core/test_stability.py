"""Tests for cross-seed explanation stability."""

import numpy as np
import pytest

from repro.core import GEFConfig, stability_analysis


@pytest.fixture(scope="module")
def report(small_forest):
    config = GEFConfig(
        n_univariate=5,
        sampling_strategy="all-thresholds",
        n_samples=4000,
        n_splines=14,
    )
    return stability_analysis(small_forest, config, seeds=[0, 1, 2])


class TestStabilityAnalysis:
    def test_feature_selection_is_seed_independent(self, report):
        """F' comes from the forest's gains, not from D*: identical sets."""
        assert report.feature_agreement == 1.0
        first = set(report.feature_sets[0])
        for fs in report.feature_sets[1:]:
            assert set(fs) == first

    def test_fidelity_consistent_across_seeds(self, report):
        r2 = np.asarray(report.fidelity_r2)
        assert r2.min() > 0.85
        assert r2.max() - r2.min() < 0.05

    def test_component_curves_stable(self, report):
        """Cross-seed curve spread well below the curve's own range."""
        assert report.component_spread
        for feature, spread in report.component_spread.items():
            assert spread < 0.15, f"x{feature} unstable: {spread:.3f}"

    def test_summary_renders(self, report):
        text = report.summary()
        assert "F' agreement" in text
        assert "fidelity R2" in text

    def test_needs_two_seeds(self, small_forest):
        with pytest.raises(ValueError):
            stability_analysis(small_forest, seeds=[0])


class TestLinearTermInGam:
    def test_linear_term_fits_linear_effect(self):
        from repro.gam import GAM, LinearTerm, SplineTerm

        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (2000, 2))
        y = 3 * X[:, 0] + np.sin(6 * X[:, 1]) + rng.normal(0, 0.05, 2000)
        gam = GAM([LinearTerm(0), SplineTerm(1, 10)], lam=0.1).fit(X, y)
        # The linear term's single coefficient is the slope.
        sl = gam._term_slices()[1]
        assert float(gam.coef_[sl][0]) == pytest.approx(3.0, abs=0.1)

    def test_linear_term_centered(self):
        from repro.gam import LinearTerm

        rng = np.random.default_rng(1)
        X = rng.uniform(3, 5, (500, 1))
        term = LinearTerm(0).fit(X)
        design = term.design_for(X[:, list(term.features)])
        assert abs(design.mean()) < 1e-10

    def test_label(self):
        from repro.gam import LinearTerm

        assert LinearTerm(3).label == "l(x3)"
        assert LinearTerm(3, name="l(age)").label == "l(age)"

    def test_pure_glm_from_terms(self):
        """A GAM of LinearTerms is exactly the GLM of section 3.1."""
        from repro.gam import GAM, LinearTerm

        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (1500, 3))
        y = 1.0 + 2 * X[:, 0] - X[:, 2] + rng.normal(0, 0.01, 1500)
        gam = GAM([LinearTerm(0), LinearTerm(1), LinearTerm(2)]).fit(X, y)
        resid = y - gam.predict(X)
        assert np.std(resid) < 0.02
        assert gam.intercept_ == pytest.approx(np.mean(y), abs=0.01)
