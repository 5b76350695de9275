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
        design = term.design_for(X[:, list(term.features)])
        np.testing.assert_array_equal(design, np.ones((len(X), 1)))

    def test_penalty_zero(self):
        np.testing.assert_array_equal(InterceptTerm().penalty(), [[0.0]])

    def test_n_coefs(self):
        assert InterceptTerm().n_coefs == 1


class TestSplineTerm:
    def test_design_shape(self, X):
        term = SplineTerm(0, n_splines=10).fit(X)
        assert term.design_for(X[:, list(term.features)]).shape == (500, 10)

    def test_columns_centered(self, X):
        term = SplineTerm(1, n_splines=8).fit(X)
        design = term.design_for(X[:, list(term.features)])
        np.testing.assert_allclose(design.mean(axis=0), 0.0, atol=1e-12)

    def test_centering_reused_at_predict(self, X):
        term = SplineTerm(0, n_splines=8).fit(X)
        new = np.random.default_rng(1).uniform(0, 1, (100, 3))
        # The training means are reused, not recomputed on the new rows, so
        # the new rows' centered columns keep nonzero means.
        assert np.abs(term.design_for(new[:, list(term.features)]).mean(axis=0)).max() > 1e-3
        np.testing.assert_allclose(
            term.design_for(new[:, list(term.features)]), term.design_for(new[:, 0]), atol=1e-14
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
        assert term.design_for(X[:, list(term.features)]).shape == (500, 25)

    def test_centered(self, X):
        term = TensorTerm(0, 1, n_splines=5).fit(X)
        np.testing.assert_allclose(term.design_for(X[:, list(term.features)]).mean(axis=0), 0.0, atol=1e-12)

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
        np.testing.assert_array_equal(block, term.design_for(X[:, list(term.features)]))
        assert block.shape == (len(X), term.n_coefs)


def count_weighted_mean(x, raw):
    """The centering rule: each distinct value of ``x``, ascending, weighted
    by its count, times the row of ``raw`` where it first occurs."""
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    counts = np.bincount(inverse).astype(np.float64)
    return counts @ raw[first] / len(x)


def _coded_sample(rng, n, domains, missing=None):
    """Codes into ``domains`` (never drawing ``missing[f]``) and their rows."""
    codes = {}
    for f, domain in domains.items():
        allowed = np.setdiff1d(np.arange(len(domain)), (missing or {}).get(f, []))
        codes[f] = rng.choice(allowed, n).astype(np.min_scalar_type(len(domain) - 1))
    X = np.zeros((n, max(domains) + 1))
    for f, c in codes.items():
        X[:, f] = domains[f][c]
    return X, codes


class TestCodedDesign:
    """A design coded by domain value is byte-equal to the per-row one."""

    DOMAINS = {
        0: np.linspace(-2.0, 3.0, 200),
        1: np.sort(np.random.default_rng(4).uniform(0, 10, 37)),
        2: np.array([0.0, 1.0, 2.0, 3.0]),
    }

    @staticmethod
    def _terms():
        return [
            LinearTerm(0),
            SplineTerm(0, n_splines=12),
            SplineTerm(1, n_splines=8),
            FactorTerm(2),
            TensorTerm(0, 1, n_splines=5),
        ]

    def _fit_both(self, X, coding):
        from repro.gam import GAM

        coded, rows = GAM(self._terms()), GAM(self._terms())
        return coded, coded._fit_design(X, coding), rows, rows._fit_design(X)

    def test_training_design_and_learned_state(self):
        rng = np.random.default_rng(0)
        # Level 2.0 of the factor never occurs in training.
        X, codes = _coded_sample(rng, 3_000, self.DOMAINS, missing={2: [2]})
        coded, D_coded, rows, D_rows = self._fit_both(X, (self.DOMAINS, codes))
        assert D_coded.tobytes() == D_rows.tobytes()
        for a, b in zip(coded.terms, rows.terms):
            if isinstance(a, InterceptTerm):
                continue
            assert a.col_means_.tobytes() == b.col_means_.tobytes()
            for attr in ("knots_", "levels_"):
                if hasattr(a, attr):
                    np.testing.assert_array_equal(
                        np.asarray(getattr(a, attr)), np.asarray(getattr(b, attr))
                    )
        np.testing.assert_array_equal(coded.terms[4].levels_, [0.0, 1.0, 3.0])

    def test_each_term_alone(self):
        rng = np.random.default_rng(1)
        X, codes = _coded_sample(rng, 500, self.DOMAINS)
        for make in (InterceptTerm, *(lambda t=t: t for t in self._terms())):
            term = make()
            coded = term.fit_design(X, (self.DOMAINS, codes))
            assert coded.tobytes() == term.fit_design(X).tobytes(), term.label

    def test_test_rows_with_a_level_absent_from_training(self):
        from repro.gam import GAM

        rng = np.random.default_rng(2)
        X, codes = _coded_sample(rng, 2_000, self.DOMAINS, missing={2: [2]})
        X_test, codes_test = _coded_sample(rng, 700, self.DOMAINS)
        assert np.any(X_test[:, 2] == 2.0)
        y = np.sin(X[:, 0]) + 0.1 * X[:, 1] + X[:, 2]
        gam = GAM(self._terms()).gridsearch(
            X, y, lam_grid=[0.1, 1.0], coding=(self.DOMAINS, codes)
        )
        reference = GAM(self._terms()).gridsearch(X, y, lam_grid=[0.1, 1.0])
        assert gam.coef_.tobytes() == reference.coef_.tobytes()
        # A tensor term: the fit's route, and so fidelity's, is the rows.
        coded_eta = gam.coded_eta(X_test, (self.DOMAINS, codes_test))
        assert coded_eta.tobytes() == gam.predict_eta(X_test).tobytes()

    @pytest.mark.parametrize("kind", ["undrawn", "unsorted", "repeated"])
    def test_col_means_of_coded_and_uncoded_columns(self, kind):
        """Domains with values no row draws, given out of order, or
        repeating a value: every term's centering (a tensor's on two coded
        features too) is the uncoded fit's, on both fit routes."""
        from repro.gam import GAM

        rng = np.random.default_rng(6)
        domains, missing = dict(self.DOMAINS), None
        if kind == "undrawn":
            missing = {0: [0, 1, 100, 199], 1: list(range(10, 20)), 2: [1]}
        elif kind == "unsorted":
            domains = {f: d[rng.permutation(len(d))] for f, d in domains.items()}
        else:
            domains = {f: np.concatenate([d, d[::3]]) for f, d in domains.items()}
        X, codes = _coded_sample(rng, 3_000, domains, missing=missing)
        coding = (domains, codes)
        for coded, rows in zip(self._terms(), self._terms()):
            block = coded.fit_design(X, coding)
            assert block.tobytes() == rows.fit_design(X).tobytes(), rows.label
            assert coded.col_means_.tobytes() == rows.col_means_.tobytes(), rows.label
        univariate = lambda: GAM(self._terms()[:4])  # noqa: E731
        coded, rows = univariate(), univariate()
        assert coded._training_design(X, coding).route == "codes"
        rows._fit_design(X)
        for a, b in zip(coded.terms[1:], rows.terms[1:]):
            assert a.col_means_.tobytes() == b.col_means_.tobytes(), b.label

    def test_knots_follow_the_sampled_range(self):
        """Codes that miss both domain ends learn the sampled min/max."""
        domain = np.linspace(0.0, 9.0, 10)
        X, codes = _coded_sample(
            np.random.default_rng(3), 400, {0: domain}, missing={0: [0, 1, 9]}
        )
        term = SplineTerm(0, n_splines=8)
        block = term.fit_design(X, ({0: domain}, codes))
        assert term.knots_[term.degree] == 2.0
        assert term.knots_[-term.degree - 1] == 8.0
        assert block.tobytes() == SplineTerm(0, n_splines=8).fit_design(X).tobytes()

    def test_signed_zeros(self):
        """An uncoded column holding both -0.0 and 0.0 keeps each row's
        bytes (no value is merged with another), and a domain holding
        -0.0 codes it as -0.0."""
        x = np.array([-1.0, 1.0, -0.0, 0.0, 0.5, -0.5, 0.0, -0.0])
        X = x[:, None]
        linear = LinearTerm(0).fit_design(X)
        assert linear.tobytes() == (x - count_weighted_mean(x, x[:, None]))[:, None].tobytes()
        assert np.signbit(linear[2, 0]) and not np.signbit(linear[3, 0])
        spline = SplineTerm(0, n_splines=6)
        block = spline.fit_design(X)
        from repro.gam.bsplines import bspline_design

        raw = bspline_design(x, spline.knots_, spline.degree)
        assert block.tobytes() == (raw - count_weighted_mean(x, raw)).tobytes()

        domain = np.array([-1.0, -0.0, 1.0])
        codes = np.array([0, 1, 2, 1, 1], dtype=np.uint8)
        Xc = domain[codes][:, None]
        for make in (lambda: LinearTerm(0), lambda: SplineTerm(0, n_splines=6)):
            coded = make().fit_design(Xc, ({0: domain}, {0: codes}))
            assert coded.tobytes() == make().fit_design(Xc).tobytes()
