"""Closed-form cross-checks of the numerical core.

Each test verifies an implementation against an analytically known result,
independent of any other code in this repository.
"""

import numpy as np
import pytest

from repro.forest import LEAF, Tree
from repro.gam import GAM, LinearTerm, SplineTerm
from tests.xai.test_treeshap import one_tree_shap


class TestGamVersusClosedForm:
    def test_linear_gam_equals_ols(self):
        """A GAM of LinearTerms with ~zero ridge solves ordinary LS."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        beta_true = np.array([1.5, -2.0, 0.5])
        y = X @ beta_true + 0.7 + rng.normal(0, 0.1, 500)

        gam = GAM([LinearTerm(0), LinearTerm(1), LinearTerm(2)], lam=0.0)
        gam.fit(X, y)

        design = np.column_stack([np.ones(500), X])
        beta_ols, *_ = np.linalg.lstsq(design, y, rcond=None)
        pred_ols = design @ beta_ols
        np.testing.assert_allclose(gam.predict(X), pred_ols, atol=1e-6)

    def test_gcv_formula_spot_check(self):
        """GCV == n * RSS / (n - edof)^2, recomputed by hand."""
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (400, 1))
        y = np.sin(4 * X[:, 0]) + rng.normal(0, 0.1, 400)
        gam = GAM([SplineTerm(0, 10)], lam=1.0).fit(X, y)
        n = 400
        rss = float(np.sum((y - gam.predict(X)) ** 2))
        edof = gam.statistics_["edof"]
        manual_gcv = n * rss / (n - edof) ** 2
        assert gam.statistics_["GCV"] == pytest.approx(manual_gcv, rel=1e-6)

    def test_edof_bounds(self):
        """0 < edof <= number of coefficients, shrinking with lambda."""
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (500, 1))
        y = np.sin(8 * X[:, 0]) + rng.normal(0, 0.1, 500)
        edofs = []
        for lam in (1e-3, 1.0, 1e3):
            gam = GAM([SplineTerm(0, 12)], lam=lam).fit(X, y)
            edofs.append(gam.statistics_["edof"])
            assert 0 < edofs[-1] <= gam.n_coefs
        assert edofs[0] > edofs[1] > edofs[2]

    def test_fitted_spline_is_continuous(self):
        """Cubic B-splines: the fitted curve has no jumps (C^2 inside)."""
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (2000, 1))
        y = np.abs(X[:, 0] - 0.5) + rng.normal(0, 0.02, 2000)
        gam = GAM([SplineTerm(0, 14)], lam=0.1).fit(X, y)
        grid = np.linspace(0.01, 0.99, 2000)
        curve = gam.partial_dependence(1, grid)
        max_jump = np.abs(np.diff(curve)).max()
        assert max_jump < 0.01  # ~ slope * grid step, no discontinuity


class TestShapClosedForm:
    def test_stump_shapley_values(self):
        """For a single split on x0, phi_0 = f(x) - E[f]; others zero."""
        tree = Tree(
            feature=np.array([0, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.5, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, 2.0, 10.0]),
            gain=np.array([1.0, 0.0, 0.0]),
            n_samples=np.array([10, 3, 7], dtype=np.int64),
        )
        expected_value = (3 * 2.0 + 7 * 10.0) / 10  # 7.6
        for x0, f_x in ((0.2, 2.0), (0.9, 10.0)):
            phi = one_tree_shap(tree, np.array([x0, 0.0, 0.0]), 3)
            assert phi[0] == pytest.approx(f_x - expected_value)
            assert phi[1] == pytest.approx(0.0)
            assert phi[2] == pytest.approx(0.0)

    def test_two_feature_symmetric_tree(self):
        """x0 and x1 fully symmetric: equal attributions by symmetry."""
        tree = Tree(
            feature=np.array([0, 1, 1, LEAF, LEAF, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.5, 0.5, 0.5, 0, 0, 0, 0]),
            left=np.array([1, 3, 5, -1, -1, -1, -1], dtype=np.int32),
            right=np.array([2, 4, 6, -1, -1, -1, -1], dtype=np.int32),
            value=np.array([0, 0, 0, 0.0, 1.0, 1.0, 2.0]),
            gain=np.ones(7),
            n_samples=np.array([8, 4, 4, 2, 2, 2, 2], dtype=np.int64),
        )
        # f(x) = 1[x0>.5] + 1[x1>.5]: an additive symmetric function.
        phi = one_tree_shap(tree, np.array([0.9, 0.9]), 2)
        assert phi[0] == pytest.approx(phi[1])
        assert phi.sum() == pytest.approx(2.0 - 1.0)  # f(x) - E[f] = 2 - 1

    def test_dummy_feature_exact_zero(self):
        """A feature absent from the tree receives exactly zero."""
        tree = Tree(
            feature=np.array([0, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.0, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -1.0, 1.0]),
            gain=np.array([1.0, 0.0, 0.0]),
            n_samples=np.array([4, 2, 2], dtype=np.int64),
        )
        phi = one_tree_shap(tree, np.array([1.0, 123.0]), 2)
        assert phi[1] == 0.0


class TestKnownDistributionFacts:
    def test_kde_matches_normal_density_at_mode(self):
        from repro.metrics import gaussian_kde_1d

        rng = np.random.default_rng(4)
        samples = rng.normal(0, 1, 20_000)
        density = gaussian_kde_1d(samples, np.array([0.0]))[0]
        assert density == pytest.approx(1 / np.sqrt(2 * np.pi), rel=0.05)

    def test_roc_auc_of_shifted_normals(self):
        """AUC of N(0,1) vs N(d,1) equals Phi(d / sqrt(2))."""
        from scipy.special import ndtr

        from repro.metrics import roc_auc

        rng = np.random.default_rng(5)
        d = 1.0
        neg = rng.normal(0, 1, 30_000)
        pos = rng.normal(d, 1, 30_000)
        y = np.concatenate([np.zeros(30_000), np.ones(30_000)])
        scores = np.concatenate([neg, pos])
        expected = float(ndtr(d / np.sqrt(2)))
        assert roc_auc(y, scores) == pytest.approx(expected, abs=0.01)
