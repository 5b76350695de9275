"""Tests for GAM terms: intercept, splines, factors, tensors."""

import numpy as np
import pytest

from repro.gam import FactorTerm, InterceptTerm, LinearTerm, SplineTerm, TensorTerm


@pytest.fixture
def X():
    rng = np.random.default_rng(0)
    data = rng.uniform(0, 1, (500, 3))
    data[:, 2] = rng.choice([0.0, 1.0, 2.0], size=500)  # categorical-like
    return data


class TestInterceptTerm:
    def test_design_is_ones(self, X):
        term = InterceptTerm().fit(X)
        design = term.design(X)
        np.testing.assert_array_equal(design, np.ones((len(X), 1)))

    def test_penalty_zero(self):
        np.testing.assert_array_equal(InterceptTerm().penalty(), [[0.0]])

    def test_n_coefs(self):
        assert InterceptTerm().n_coefs == 1


class TestSplineTerm:
    def test_design_shape(self, X):
        term = SplineTerm(0, n_splines=10).fit(X)
        assert term.design(X).shape == (500, 10)

    def test_columns_centered(self, X):
        term = SplineTerm(1, n_splines=8).fit(X)
        design = term.design(X)
        np.testing.assert_allclose(design.mean(axis=0), 0.0, atol=1e-12)

    def test_centering_reused_at_predict(self, X):
        term = SplineTerm(0, n_splines=8).fit(X)
        new = np.random.default_rng(1).uniform(0, 1, (100, 3))
        # The training means are reused, not recomputed on the new rows, so
        # the new rows' centered columns keep nonzero means.
        assert np.abs(term.design(new).mean(axis=0)).max() > 1e-3
        np.testing.assert_allclose(
            term.design(new), term.design_for(new[:, 0]), atol=1e-14
        )

    def test_unfitted_raises(self, X):
        with pytest.raises(RuntimeError):
            SplineTerm(0).design_for(X[:, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SplineTerm(0, n_splines=3, degree=3)

    def test_label(self):
        assert SplineTerm(2).label == "s(x2)"
        assert SplineTerm(2, name="s(age)").label == "s(age)"

    def test_penalty_dimensions(self):
        term = SplineTerm(0, n_splines=9)
        assert term.penalty().shape == (9, 9)


class TestFactorTerm:
    def test_levels_discovered(self, X):
        term = FactorTerm(2).fit(X)
        np.testing.assert_array_equal(term.levels_, [0.0, 1.0, 2.0])
        assert term.n_coefs == 3

    def test_one_hot_rows(self, X):
        term = FactorTerm(2).fit(X)
        raw = term.design_for(np.array([1.0])) + term.col_means_
        np.testing.assert_allclose(raw, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_unseen_level_contributes_nothing(self, X):
        term = FactorTerm(2).fit(X)
        design = term.design_for(np.array([7.5]))
        # Only the centering offset remains (all-zero one-hot row).
        np.testing.assert_allclose(design, -term.col_means_[None, :])

    def test_single_level_rejected(self):
        X = np.zeros((10, 1))
        with pytest.raises(ValueError, match="single level"):
            FactorTerm(0).fit(X)

    def test_penalty_is_identity(self, X):
        term = FactorTerm(2).fit(X)
        np.testing.assert_array_equal(term.penalty(), np.eye(3))


class TestTensorTerm:
    def test_design_shape(self, X):
        term = TensorTerm(0, 1, n_splines=5).fit(X)
        assert term.design(X).shape == (500, 25)

    def test_centered(self, X):
        term = TensorTerm(0, 1, n_splines=5).fit(X)
        np.testing.assert_allclose(term.design(X).mean(axis=0), 0.0, atol=1e-12)

    def test_khatri_rao_structure(self, X):
        """Tensor design row = outer product of marginal basis rows."""
        from repro.gam.bsplines import bspline_design

        term = TensorTerm(0, 1, n_splines=5).fit(X)
        point = np.array([[0.3, 0.7]])
        raw = term.design_for(point) + term.col_means_
        b0 = bspline_design(point[:, 0], term.knots_[0], 3)
        b1 = bspline_design(point[:, 1], term.knots_[1], 3)
        np.testing.assert_allclose(raw.reshape(5, 5), np.outer(b0, b1), atol=1e-12)

    def test_same_feature_rejected(self):
        with pytest.raises(ValueError):
            TensorTerm(1, 1)

    def test_penalty_shape_and_symmetry(self):
        term = TensorTerm(0, 1, n_splines=4)
        p = term.penalty()
        assert p.shape == (16, 16)
        np.testing.assert_allclose(p, p.T)

    def test_penalty_null_space_contains_bilinear_plane(self):
        """The additive tensor penalty spares coefficient planes a + b*i + c*j."""
        term = TensorTerm(0, 1, n_splines=5)
        p = term.penalty()
        i_idx, j_idx = np.meshgrid(np.arange(5.0), np.arange(5.0), indexing="ij")
        plane = (1.0 + 2.0 * i_idx + 3.0 * j_idx).ravel()
        assert plane @ p @ plane == pytest.approx(0.0, abs=1e-8)

    def test_label(self, X):
        assert TensorTerm(0, 2).label == "te(x0,x2)"


@pytest.mark.parametrize(
    "make",
    [
        InterceptTerm,
        lambda: LinearTerm(0),
        lambda: SplineTerm(0, n_splines=8),
        lambda: FactorTerm(2),
        lambda: TensorTerm(0, 1, n_splines=5),
    ],
    ids=["intercept", "linear", "spline", "factor", "tensor"],
)
class TestFitDesign:
    def test_block_is_design_of_training_rows(self, X, make):
        term = make()
        block = term.fit_design(X)
        np.testing.assert_array_equal(block, term.design(X))
        assert block.shape == (len(X), term.n_coefs)
