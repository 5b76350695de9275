"""The surrogate's API against a per-term, per-marginal reference.

Every GAM evaluation draws all of its B-spline marginals from one basis
sweep.  The reference here evaluates each term on its own, each marginal
with its own window recursion (:func:`tests.gam.test_bsplines.
window_reference`), and keeps every contribution matmul at the shape the
API uses.  Everything is compared byte for byte (``tobytes()``), on the
benchmark's surrogates and on a GAM with spline, factor, linear and
tensor terms.
"""

import numpy as np
import pytest
from scipy.special import ndtri

from repro.core import GEF, GEFConfig
from repro.core.robustness import minimal_shift, sensitivity_profile
from repro.gam import (
    GAM,
    FactorTerm,
    InterceptTerm,
    LinearTerm,
    SplineTerm,
    TensorTerm,
    diagnose,
)
from repro.gam.model import _ROW_BLOCK
from repro.obs import disable_tracing, enable_tracing
from tests.gam.test_bsplines import window_reference


def reference_block(term, values):
    """A term's centered block, one window recursion per marginal."""
    if isinstance(term, InterceptTerm):
        return np.ones((len(values), 1))
    values = np.asarray(values, dtype=np.float64).reshape(-1, len(term.features))
    marginals = []
    for m in range(values.shape[1]):
        spline = term._spline(m)
        if spline is None:
            marginals.append(term._marginal(m, values[:, m]))
        else:
            marginals.append(window_reference(values[:, m], *spline))
    return term._combine(marginals) - term.col_means_


def reference_pd(gam, idx, values, width=None):
    """``partial_dependence`` as one term's own evaluation."""
    sl = gam._term_slices()[idx]
    d = reference_block(gam.terms[idx], values)
    contrib = d @ gam.coef_[sl]
    if width is None:
        return contrib
    vb = gam.statistics_["cov"][sl, sl]
    se = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", d, vb, d), 0.0))
    z = float(ndtri(0.5 + width / 2.0))
    return contrib, np.stack([contrib - z * se, contrib + z * se], axis=1)


def reference_design(gam, X):
    return np.hstack([
        reference_block(term, X[:, list(term.features)]) for term in gam.terms
    ])


def reference_eta(gam, X):
    return np.concatenate([
        reference_design(gam, X[lo : lo + _ROW_BLOCK]) @ gam.coef_
        for lo in range(0, len(X), _ROW_BLOCK)
    ])


def reference_intervals(gam, X, width=0.95):
    vb = gam.statistics_["cov"]
    z = float(ndtri(0.5 + width / 2.0))
    lower, upper = [], []
    for lo in range(0, len(X), _ROW_BLOCK):
        d = reference_design(gam, X[lo : lo + _ROW_BLOCK])
        eta = d @ gam.coef_
        se = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", d, vb, d), 0.0))
        lower.append(eta - z * se)
        upper.append(eta + z * se)
    inverse = gam.link.inverse
    return np.stack(
        [inverse(np.concatenate(lower)), inverse(np.concatenate(upper))], axis=1
    )


def reference_local(e, x, width=0.95, window_fraction=0.15, window_points=41):
    """``local_explanation``'s numbers, one term evaluation per call."""
    out = []
    for idx in e._component_terms():
        term = e.gam.terms[idx]
        value = x[list(term.features)]
        contrib, intervals = reference_pd(e.gam, idx, value, width)
        window = None
        if isinstance(term, SplineTerm):
            domain = e.dataset.domains[term.features[0]]
            span = float(domain.max() - domain.min()) * window_fraction
            grid = np.linspace(value[0] - span, value[0] + span, window_points)
            window = (grid, reference_pd(e.gam, idx, grid))
        out.append((term.label, contrib, intervals, window))
    return out


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def surrogates(bench_forests):
    """The explain workloads' surrogates, as the benchmark configures them."""
    spline = GEF(GEFConfig(
        n_univariate=5, n_interactions=0, n_samples=20_000, k_points=200,
        random_state=0,
    )).explain(bench_forests["spline"])
    census = GEF(GEFConfig(
        n_univariate=5, n_interactions=1, interaction_strategy="gain-path",
        n_samples=5_000, k_points=64, random_state=0,
    )).explain(bench_forests["census"])
    return {"spline": spline, "census": census}


@pytest.fixture(scope="module")
def mixed_gam():
    """Every kind of term, two spline degrees and a factor feature."""
    rng = np.random.default_rng(5)
    X = np.column_stack([
        rng.uniform(0, 1, 3_000),
        rng.uniform(-2, 2, 3_000),
        rng.choice([0.0, 1.0, 2.0, 5.0], size=3_000),
        rng.normal(0, 1, 3_000),
    ])
    y = np.sin(5 * X[:, 0]) + X[:, 1] * X[:, 0] + 0.3 * X[:, 2] + 0.5 * X[:, 3]
    gam = GAM([
        SplineTerm(0, 12),
        SplineTerm(1, 9, degree=2),
        FactorTerm(2),
        LinearTerm(3),
        TensorTerm(0, 1, 6),
    ], lam=0.3).fit(X, y + rng.normal(0, 0.1, 3_000))
    return gam, X


def _rows(X, n, seed):
    """``n`` rows resampled from ``X``, some pushed outside its range."""
    rng = np.random.default_rng(seed)
    rows = X[rng.integers(len(X), size=n)].copy()
    rows[::7] *= 1.5
    return rows


@pytest.mark.parametrize("name", ["spline", "census"])
class TestBenchSurrogates:
    def test_predict_one_sixteen_and_past_a_row_block(self, surrogates, name):
        e = surrogates[name]
        gam = e.gam
        big = _rows(e.dataset.X_test, 20_000, 1)
        assert len(big) > _ROW_BLOCK
        for n in (1, 16, 20_000):
            X = big[:n]
            assert same(e.predict(X), gam.link.inverse(reference_eta(gam, X)))

    def test_predict_eta_with_test_coding(self, surrogates, name):
        e = surrogates[name]
        X = e.dataset.X_test
        coded = e.gam.predict_eta(X, e.dataset.coding("test"))
        assert same(coded, reference_eta(e.gam, X))

    def test_decompose_and_intervals(self, surrogates, name):
        e = surrogates[name]
        X = _rows(e.dataset.X_test, 500, 2)
        decomposed = e.gam.decompose(X)
        for idx, term in enumerate(e.gam.terms):
            want = reference_block(term, X[:, list(term.features)])
            assert same(decomposed[term.label], want @ e.gam.coef_[e.gam._term_slices()[idx]])
        assert same(e.gam.prediction_intervals(X), reference_intervals(e.gam, X))

    def test_partial_dependence(self, surrogates, name):
        e = surrogates[name]
        X = _rows(e.dataset.X_test, 64, 3)
        for idx in e._component_terms():
            values = X[:, list(e.gam.terms[idx].features)]
            assert same(e.gam.partial_dependence(idx, values), reference_pd(e.gam, idx, values))
            got = e.gam.partial_dependence(idx, values, width=0.9)
            want = reference_pd(e.gam, idx, values, width=0.9)
            assert same(got[0], want[0]) and same(got[1], want[1])

    def test_local_explanation(self, surrogates, name):
        e = surrogates[name]
        for x in _rows(e.dataset.X_test, 5, 4):
            local = e.local_explanation(x)
            want = {label: rest for label, *rest in reference_local(e, x)}
            assert len(local.contributions) == len(want)
            for c in local.contributions:
                contrib, intervals, window = want[c.label]
                assert same(c.contribution, float(contrib[0]))
                assert c.interval == (float(intervals[0, 0]), float(intervals[0, 1]))
                if window is None:
                    assert c.window_grid is None and c.window_contribution is None
                else:
                    assert same(c.window_grid, window[0])
                    assert same(c.window_contribution, window[1])

    def test_global_explanation(self, surrogates, name):
        e = surrogates[name]
        rows = e.dataset.X_train[:4096]
        for curve in e.global_explanation(n_points=30):
            idx = next(
                i for i in e._component_terms() if e.gam.terms[i].label == curve.label
            )
            contrib, intervals = reference_pd(e.gam, idx, curve.grid, width=0.95)
            assert same(curve.contribution, contrib)
            assert same(curve.intervals, intervals)
            features = list(e.gam.terms[idx].features)
            importance = float(np.std(reference_pd(e.gam, idx, rows[:, features])))
            assert curve.importance == importance


class TestMixedTerms:
    def test_predict_and_intervals(self, mixed_gam):
        gam, X = mixed_gam
        for n in (1, 16, 20_000):
            rows = _rows(X, n, n)
            assert same(gam.predict_eta(rows), reference_eta(gam, rows))
        rows = _rows(X, 300, 6)
        assert same(gam.prediction_intervals(rows), reference_intervals(gam, rows))

    def test_decompose_and_term_blocks(self, mixed_gam):
        gam, X = mixed_gam
        rows = _rows(X, 200, 7)
        decomposed = gam.decompose(rows)
        requests = []
        for idx, term in enumerate(gam.terms):
            values = rows[:, list(term.features)]
            block = reference_block(term, values)
            assert same(decomposed[term.label], block @ gam.coef_[gam._term_slices()[idx]])
            if not isinstance(term, InterceptTerm):
                requests += [(idx, values), (idx, values[:3])]
        blocks = gam.term_blocks(requests)
        for (idx, values), block in zip(requests, blocks):
            assert same(block, reference_block(gam.terms[idx], values))
            assert same(gam.partial_dependence(idx, values), reference_pd(gam, idx, values))

    def test_term_blocks_reject_the_intercept(self, mixed_gam):
        gam, X = mixed_gam
        with pytest.raises(ValueError):
            gam.term_blocks([(1, X[:3, 0]), (0, X[:3, :0])])


class TestRobustnessAndDiagnostics:
    def test_scans_match_per_term_reference(self, surrogates):
        e = surrogates["spline"]
        x = e.dataset.X_test[11]
        for s in sensitivity_profile(e, x):
            idx = next(i for i, t in enumerate(e.gam.terms) if t.label == s.label)
            domain = e.dataset.domains[s.feature]
            budget = 0.1 * float(domain.max() - domain.min())
            grid = np.linspace(x[s.feature] - budget, x[s.feature] + budget, 101)
            deltas = reference_pd(e.gam, idx, grid) - reference_pd(
                e.gam, idx, x[s.feature : s.feature + 1]
            )[0]
            assert s.max_increase == float(deltas.max())
            assert s.max_decrease == float(deltas.min())
        assert minimal_shift(e, x, 0.05) is not None

    def test_diagnose_shares_read_decompose(self, surrogates):
        e = surrogates["census"]
        X = e.dataset.X_test[:400]
        shares = diagnose(e.gam, X, e.predict(X)).term_variance_share
        variances = [
            float(np.var(reference_pd(e.gam, idx, X[:, list(e.gam.terms[idx].features)])))
            for idx in e._component_terms()
        ]
        total = sum(variances)
        labels = [e.gam.terms[idx].label for idx in e._component_terms()]
        assert shares == {label: v / total for label, v in zip(labels, variances)}


class TestOneBasisSweep:
    """A surrogate prediction and a local explanation each evaluate their
    bases in one sweep: one ``gam.basis`` span."""

    @pytest.mark.parametrize("name", ["spline", "census"])
    def test_predict_and_local_open_one_basis_span(self, surrogates, name):
        e = surrogates[name]
        x = e.dataset.X_test[0]
        n_marginals = sum(len(e.gam.terms[i].features) for i in e._component_terms())
        tracer = enable_tracing()
        try:
            e.predict(x[None, :])
            (span,) = tracer.find("gam.basis")
            assert span.attrs == {"rows": n_marginals, "marginals": n_marginals}
            tracer = enable_tracing()
            e.local_explanation(x)
            (span,) = tracer.find("gam.basis")
        finally:
            disable_tracing()
        n_splines = sum(
            isinstance(e.gam.terms[i], SplineTerm) for i in e._component_terms()
        )
        assert span.attrs["marginals"] == n_marginals + n_splines
        assert span.attrs["rows"] == n_marginals + 41 * n_splines
