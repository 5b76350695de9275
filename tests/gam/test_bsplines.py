"""Tests for the B-spline basis and difference penalties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.numerics import NumericsError, get_numerics_mode, set_numerics_mode
from repro.gam import (
    GAM,
    SplineTerm,
    bspline_design,
    bspline_sweep,
    difference_penalty,
    uniform_knots,
)


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


def window_reference(x, knots, degree=3):
    """One marginal's basis from its own window recursion: the
    per-marginal oracle of :func:`bspline_sweep`, which must give every
    marginal these bytes whatever else shares its sweep."""
    x = np.asarray(x, dtype=np.float64).ravel()
    knots = np.asarray(knots, dtype=np.float64)
    n_bases = len(knots) - degree - 1
    lo = knots[degree]
    hi = knots[-degree - 1]
    eps = 1e-12 * max(1.0, abs(hi))
    xc = np.clip(x, lo, hi - eps if hi > lo else lo)
    j = np.searchsorted(knots, xc, side="right") - 1
    j = np.clip(j, degree, n_bases - 1)
    near = knots[np.arange(-degree, degree + 2)[:, None] + j]
    window = np.ones((1, len(xc)))
    for d in range(1, degree + 1):
        t_lo = near[degree - d + 1 : degree + 1]
        t_hi = near[degree + 1 : degree + d + 1]
        span = t_hi - t_lo
        wide = span > 0
        right = np.divide(
            t_hi - xc, span, out=np.zeros_like(span), where=wide
        ) * window
        left = np.divide(
            xc - t_lo, span, out=np.zeros_like(span), where=wide
        ) * window
        window = np.zeros((d + 1, len(xc)))
        window[:d] = right
        window[1:] += left
    basis = np.zeros((len(xc), n_bases))
    first = np.arange(len(xc)) * n_bases + j - degree
    basis.reshape(-1)[np.arange(degree + 1)[:, None] + first] = window
    return basis


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


def mixed_marginals(degrees):
    """Marginals of several sizes and of each of ``degrees``: uniform knot
    vectors, a collapsed one, repeated knots and a 0-row marginal, probed
    inside, on and outside their domains and at ``±inf``."""
    rng = np.random.default_rng(sum(degrees))
    marginals = []
    for i, degree in enumerate(degrees):
        for n_splines in (degree + 1, 5, 7, 12, 20):
            knots = uniform_knots(-1.0 - i, 2.0 + i, n_splines, degree)
            marginals.append((probe_points(knots, degree), knots, degree))
        collapsed = np.full(9 + degree + 1, 1e16)
        marginals.append((np.array([1e16, 0.0, np.inf, -np.inf]), collapsed, degree))
        knots = np.sort(rng.uniform(-5.0, 5.0, 12 + degree + 1))
        knots[4] = knots[3]
        marginals.append((probe_points(knots, degree), knots, degree))
        marginals.append((np.empty(0), uniform_knots(0.0, 1.0, 7, degree), degree))
    order = rng.permutation(len(marginals))
    return [marginals[i] for i in order]


class TestSweep:
    """One sweep over many marginals is byte-equal to one recursion per
    marginal, whatever else shares the sweep."""

    @pytest.mark.parametrize("degrees", [(1,), (2,), (3,), (1, 2, 3), (3, 1)])
    def test_mixed_marginals_match_per_marginal(self, degrees, strict_numerics):
        marginals = mixed_marginals(degrees)
        got = bspline_sweep(marginals)
        assert len(got) == len(marginals)
        for basis, (x, knots, degree) in zip(got, marginals):
            want = window_reference(x, knots, degree)
            assert basis.shape == want.shape
            assert basis.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pass_rows", [1, 20, 60])
    def test_passes_bound_rows_and_keep_bytes(
        self, pass_rows, monkeypatch, strict_numerics
    ):
        """Marginals that do not fit one pass take several; every pass
        holds at most ``_PASS_ROWS`` rows or a single marginal."""
        import repro.gam.bsplines as bsplines

        monkeypatch.setattr(bsplines, "_PASS_ROWS", pass_rows)
        passes = []
        sweep = bsplines._sweep

        def counted(flat, marginals, starts, degree):
            passes.append([len(x) for x, _, _ in marginals])
            sweep(flat, marginals, starts, degree)

        monkeypatch.setattr(bsplines, "_sweep", counted)
        marginals = mixed_marginals((1, 2, 3))
        got = bspline_sweep(marginals)
        assert sorted(len(x) for x, _, _ in marginals) == sorted(
            rows for rows_of_pass in passes for rows in rows_of_pass
        )
        assert all(sum(rows) <= pass_rows or len(rows) == 1 for rows in passes)
        assert len(passes) > 3
        for basis, (x, knots, degree) in zip(got, marginals):
            assert basis.tobytes() == window_reference(x, knots, degree).tobytes()

    def test_one_marginal_is_bspline_design(self):
        for x, knots, degree in mixed_marginals((1, 2, 3)):
            (basis,) = bspline_sweep([(x, knots, degree)])
            assert basis.tobytes() == bspline_design(x, knots, degree).tobytes()

    def test_zero_rows_and_no_marginals(self):
        assert bspline_sweep([]) == []
        knots = uniform_knots(0.0, 1.0, 7)
        empty, one = bspline_sweep([(np.empty(0), knots, 3), ([0.5], knots, 3)])
        assert empty.shape == (0, 7) and one.shape == (1, 7)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_nan_row_raises_under_strict(self, degree, strict_numerics):
        marginals = mixed_marginals((degree,))
        i = next(i for i, m in enumerate(marginals) if np.all(np.diff(m[1]) > 0))
        x, knots, _ = marginals[i]
        marginals[i] = (np.append(x, np.nan), knots, degree)
        with pytest.raises(NumericsError):
            bspline_sweep(marginals)

    def test_knot_vector_too_short_for_any_marginal(self):
        knots = uniform_knots(0.0, 1.0, 7)
        with pytest.raises(ValueError):
            bspline_sweep([([0.5], knots, 3), ([0.5], knots[:6], 3)])


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
