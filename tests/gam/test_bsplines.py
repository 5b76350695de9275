"""Tests for the B-spline basis and difference penalties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.numerics import NumericsError, get_numerics_mode, set_numerics_mode
from repro.gam import GAM, SplineTerm, bspline_design, difference_penalty, uniform_knots


def reference_design(x, knots, degree):
    """Cox–de Boor recursion over every basis column, the bitwise oracle.

    Fills each basis of each degree from the two bases below it, for every
    point, skipping zero-width knot spans.  ``bspline_design`` computes the
    same sums on each point's ``degree + 1`` nonzero bases only.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    knots = np.asarray(knots, dtype=np.float64)
    n_bases = len(knots) - degree - 1
    lo = knots[degree]
    hi = knots[-degree - 1]
    eps = 1e-12 * max(1.0, abs(hi))
    xc = np.clip(x, lo, hi - eps if hi > lo else lo)
    n0 = len(knots) - 1
    basis = np.zeros((len(xc), n0))
    interval = np.clip(np.searchsorted(knots, xc, side="right") - 1, 0, n0 - 1)
    basis[np.arange(len(xc)), interval] = 1.0
    for d in range(1, degree + 1):
        new = np.zeros((len(xc), n0 - d))
        for i in range(n0 - d):
            denom_l = knots[i + d] - knots[i]
            denom_r = knots[i + d + 1] - knots[i + 1]
            if denom_l > 0:
                new[:, i] += (xc - knots[i]) / denom_l * basis[:, i]
            if denom_r > 0:
                new[:, i] += (knots[i + d + 1] - xc) / denom_r * basis[:, i + 1]
        basis = new
    return basis[:, :n_bases]


def probe_points(knots, degree):
    """Points inside, on the knots of, at the edge of and outside the domain."""
    lo = knots[degree]
    hi = knots[-degree - 1]
    eps = 1e-12 * max(1.0, abs(hi))
    rng = np.random.default_rng(len(knots) * 10 + degree)
    return np.concatenate([
        np.linspace(lo, hi, 41),
        rng.uniform(lo, hi, 64),
        knots,
        [hi - eps, np.nextafter(hi, -np.inf), lo - 1.0, hi + 1.0],
        [1e300, -1e300, np.inf, -np.inf],
    ])


@pytest.fixture
def strict_numerics():
    previous = get_numerics_mode()
    set_numerics_mode("strict")
    yield
    set_numerics_mode(previous)


class TestUniformKnots:
    def test_count(self):
        knots = uniform_knots(0.0, 1.0, n_splines=10, degree=3)
        assert len(knots) == 10 + 3 + 1

    def test_evenly_spaced(self):
        knots = uniform_knots(0.0, 1.0, n_splines=8, degree=3)
        np.testing.assert_allclose(np.diff(knots), np.diff(knots)[0])

    def test_covers_domain(self):
        knots = uniform_knots(-2.0, 5.0, n_splines=6, degree=3)
        assert knots[3] == pytest.approx(-2.0)
        assert knots[-4] == pytest.approx(5.0)

    def test_too_few_splines(self):
        with pytest.raises(ValueError):
            uniform_knots(0.0, 1.0, n_splines=3, degree=3)

    def test_degenerate_domain_widened(self):
        knots = uniform_knots(1.0, 1.0, n_splines=5, degree=3)
        assert np.all(np.isfinite(knots))
        assert knots[-1] > knots[0]

    @pytest.mark.parametrize("lo", [1e16, -1e16, 2.0**53, 1e300, -1e300])
    def test_degenerate_domain_widened_past_unit_spacing(self, lo, strict_numerics):
        # lo + 1.0 rounds back to lo here: a unit widening left every knot
        # equal and the basis identically zero.
        assert lo + 1.0 == lo
        knots = uniform_knots(lo, lo, n_splines=20)
        assert np.all(np.diff(knots) > 0)
        assert bspline_design(np.array([lo]), knots).sum() == pytest.approx(1.0)
        X = np.column_stack([np.full(50, lo), np.linspace(0.0, 1.0, 50)])
        gam = GAM([SplineTerm(0, n_splines=20), SplineTerm(1)]).fit(X, X[:, 1])
        assert np.all(np.isfinite(gam.predict(X)))

    @pytest.mark.parametrize("lo", [2.0**48, 1e13, 2.0**52, -(2.0**53)])
    def test_degenerate_domain_widened_below_unit_spacing(self, lo, strict_numerics):
        # lo + 1.0 is representable here, but a unit domain is either cut
        # into knot steps below the float spacing (repeated knots) or
        # narrower than bspline_design's clamping margin.
        knots = uniform_knots(lo, lo, n_splines=20)
        assert np.all(np.diff(knots) > 0)
        row = bspline_design(np.array([lo]), knots)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("lo", [0.0, 1.0, -3.5, 1e6, -1e12])
    def test_degenerate_domain_unit_widening_kept(self, lo):
        np.testing.assert_array_equal(
            uniform_knots(lo, lo, n_splines=20), uniform_knots(lo, lo + 1.0, n_splines=20)
        )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            uniform_knots(0.0, np.inf, n_splines=5)


class TestBsplineDesign:
    def test_shape(self):
        knots = uniform_knots(0.0, 1.0, 12, 3)
        basis = bspline_design(np.linspace(0, 1, 37), knots, 3)
        assert basis.shape == (37, 12)

    def test_partition_of_unity(self):
        knots = uniform_knots(0.0, 1.0, 10, 3)
        basis = bspline_design(np.linspace(0, 1, 101), knots, 3)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-10)

    def test_nonnegative(self):
        knots = uniform_knots(-3.0, 3.0, 8, 3)
        basis = bspline_design(np.linspace(-3, 3, 61), knots, 3)
        assert basis.min() >= -1e-12

    def test_local_support(self):
        """Each degree-3 basis function touches at most 4 knot intervals."""
        knots = uniform_knots(0.0, 1.0, 12, 3)
        basis = bspline_design(np.linspace(0, 1, 200), knots, 3)
        for j in range(12):
            support = np.nonzero(basis[:, j] > 1e-12)[0]
            if support.size:
                width = (support[-1] - support[0]) / 200
                assert width <= 4 / (12 - 3) + 0.02

    def test_clamping_gives_constant_extrapolation(self):
        knots = uniform_knots(0.0, 1.0, 8, 3)
        inside = bspline_design(np.array([0.0, 1.0 - 1e-9]), knots, 3)
        outside = bspline_design(np.array([-5.0, 42.0]), knots, 3)
        np.testing.assert_allclose(outside, inside, atol=1e-6)

    def test_degree_one_is_piecewise_linear(self):
        knots = uniform_knots(0.0, 1.0, 5, 1)
        x = np.linspace(0, 1, 11)
        basis = bspline_design(x, knots, 1)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-12)

    def test_knot_vector_too_short(self):
        with pytest.raises(ValueError):
            bspline_design(np.array([0.5]), np.array([0.0, 1.0]), 3)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_partition_of_unity_pointwise(self, x):
        knots = uniform_knots(0.0, 1.0, 9, 3)
        total = bspline_design(np.array([x]), knots, 3).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    @given(st.integers(4, 30), st.floats(-100, 100), st.floats(0.1, 100))
    @settings(max_examples=30, deadline=None)
    def test_partition_of_unity_any_domain(self, n_splines, lo, span):
        hi = lo + span
        knots = uniform_knots(lo, hi, n_splines, 3)
        x = np.linspace(lo, hi, 23)
        basis = bspline_design(x, knots, 3)
        np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-8)


def repeated_knot_vectors():
    """Non-uniform knot vectors with repeated (zero-width-span) knots."""
    rng = np.random.default_rng(2024)
    cases = []
    for degree in range(4):
        # Clamped ends: degree + 1 equal knots at each boundary.
        inner = [0.0, 0.5, 0.5, 1.25, 3.0, 3.0, 3.0, 4.0]
        cases.append((degree, np.array([0.0] * degree + inner + [4.0] * degree)))
        for n_splines in (degree + 1, degree + 4, 12, 25):
            knots = np.sort(rng.uniform(-5.0, 5.0, n_splines + degree + 1))
            dup = rng.integers(1, len(knots), size=max(1, len(knots) // 3))
            knots[dup] = knots[dup - 1]
            knots = np.sort(knots)
            if knots[degree] < knots[n_splines]:
                cases.append((degree, knots))
    return cases


class TestWindowKernelOracle:
    """``bspline_design`` is byte-equal to the per-basis recursion."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_uniform_knots_every_basis_size(self, degree):
        for n_splines in range(degree + 1, 41):
            knots = uniform_knots(-2.0, 3.0, n_splines, degree)
            x = probe_points(knots, degree)
            got = bspline_design(x, knots, degree)
            assert got.tobytes() == reference_design(x, knots, degree).tobytes(), n_splines

    @pytest.mark.parametrize("degree, knots", repeated_knot_vectors())
    def test_repeated_knots(self, degree, knots, strict_numerics):
        assert np.any(np.diff(knots) == 0)
        x = probe_points(knots, degree)
        got = bspline_design(x, knots, degree)
        assert got.tobytes() == reference_design(x, knots, degree).tobytes()

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_collapsed_knots_divide_by_no_span(self, degree, strict_numerics):
        # An empty domain (every knot equal, as uniform_knots produced for
        # a constant |lo| >= 2**53 column) puts zero-width spans inside the
        # window; they must be skipped, leaving all-zero rows.
        knots = np.full(12 + degree + 1, 1e16)
        x = np.array([1e16, 0.0, np.inf, -np.inf])
        got = bspline_design(x, knots, degree)
        assert got.tobytes() == reference_design(x, knots, degree).tobytes()
        assert not got.any()

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_nan_input_raises_under_strict(self, degree, strict_numerics):
        knots = uniform_knots(0.0, 1.0, 9, degree)
        with pytest.raises(NumericsError):
            bspline_design(np.array([0.25, np.nan]), knots, degree)


class TestDifferencePenalty:
    def test_shape_and_symmetry(self):
        p = difference_penalty(10, order=2)
        assert p.shape == (10, 10)
        np.testing.assert_allclose(p, p.T)

    def test_positive_semidefinite(self):
        p = difference_penalty(12, order=2)
        eigvals = np.linalg.eigvalsh(p)
        assert eigvals.min() > -1e-10

    def test_null_space_constant_and_linear(self):
        """2nd-order penalty must not penalize constant or linear coefs."""
        p = difference_penalty(8, order=2)
        const = np.ones(8)
        linear = np.arange(8.0)
        assert const @ p @ const == pytest.approx(0.0, abs=1e-12)
        assert linear @ p @ linear == pytest.approx(0.0, abs=1e-10)

    def test_penalizes_wiggle(self):
        p = difference_penalty(8, order=2)
        wiggly = np.array([1.0, -1.0] * 4)
        assert wiggly @ p @ wiggly > 1.0

    def test_first_order_null_space(self):
        p = difference_penalty(6, order=1)
        const = np.ones(6)
        assert const @ p @ const == pytest.approx(0.0, abs=1e-12)
        linear = np.arange(6.0)
        assert linear @ p @ linear > 0

    def test_small_matrices(self):
        np.testing.assert_array_equal(difference_penalty(1, 2), np.zeros((1, 1)))
        np.testing.assert_array_equal(difference_penalty(2, 2), np.zeros((2, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            difference_penalty(0)
        with pytest.raises(ValueError):
            difference_penalty(5, order=0)
