"""The code route of a GAM fit: the PIRLS Gram of an all-coded fit from
per-term tables and joint code counts, against the dense design."""

import numpy as np
import pytest

from repro.gam import GAM, FactorTerm, LinearTerm, SplineTerm, TensorTerm
from repro.gam.model import _gram
from repro.obs import disable_tracing, enable_tracing
from tests.gam.test_terms import _coded_sample

DOMAINS = {
    0: np.linspace(-2.0, 3.0, 200),
    1: np.sort(np.random.default_rng(4).uniform(0, 10, 37)),
    2: np.array([0.0, 1.0, 2.0, 3.0]),
    3: np.linspace(0.0, 1.0, 11),
}


def _terms(linear=0):
    """Every one-feature term kind; ``linear=0`` shares the spline's feature."""
    return [LinearTerm(linear), SplineTerm(0, 12), SplineTerm(1, 8), FactorTerm(2)]


def _both(terms, X, coding):
    """The code-route design of a fresh GAM and its dense design."""
    gam = GAM(terms)
    design = gam._training_design(X, coding)
    assert design.route == "codes"
    return design, gam._design(X, coding)


def _assert_gram_matches(design, D, w, z):
    G, b, zwz = design.gram(w, z)
    G_ref, b_ref, zwz_ref = _gram(D, w, z)
    np.testing.assert_array_equal(G, G.T)
    np.testing.assert_allclose(G, G_ref, rtol=0, atol=1e-12 * np.abs(G_ref).max())
    np.testing.assert_allclose(b, b_ref, rtol=0, atol=1e-12 * np.abs(b_ref).max())
    assert zwz == pytest.approx(zwz_ref, rel=1e-12)


class TestCodedGram:
    @pytest.mark.parametrize("weights", ["unit", "random"])
    def test_matches_the_dense_gram(self, weights):
        rng = np.random.default_rng(0)
        X, codes = _coded_sample(rng, 3_000, DOMAINS)
        design, D = _both(_terms(), X, (DOMAINS, codes))
        w = None if weights == "unit" else rng.uniform(0.05, 3.0, len(X))
        _assert_gram_matches(design, D, w, rng.normal(size=len(X)))

    def test_uint8_codes_of_a_256_value_domain(self):
        """``c_s * K_t`` overflows uint8: the joint index must be intp."""
        domains = {0: np.linspace(0.0, 1.0, 256), 1: np.linspace(-1.0, 1.0, 256)}
        rng = np.random.default_rng(1)
        X, codes = _coded_sample(rng, 4_000, domains)
        assert codes[0].dtype == codes[1].dtype == np.uint8
        design, D = _both([SplineTerm(0, 10), SplineTerm(1, 10)], X, (domains, codes))
        _assert_gram_matches(design, D, rng.uniform(0.1, 2.0, len(X)), X[:, 0])

    def test_domain_values_never_drawn(self):
        """Zero counts: values of the domain no row takes."""
        rng = np.random.default_rng(2)
        missing = {0: [0, 1, 50, 199], 1: list(range(10, 20)), 2: [2]}
        X, codes = _coded_sample(rng, 2_000, DOMAINS, missing=missing)
        design, D = _both(_terms(), X, (DOMAINS, codes))
        for w in (None, rng.uniform(0.5, 1.5, len(X))):
            _assert_gram_matches(design, D, w, rng.normal(size=len(X)))

    def test_predictor_is_the_design_times_beta(self):
        rng = np.random.default_rng(3)
        X, codes = _coded_sample(rng, 1_000, DOMAINS)
        design, D = _both(_terms(), X, (DOMAINS, codes))
        beta = rng.normal(size=D.shape[1])
        np.testing.assert_allclose(design.eta(beta), D @ beta, rtol=0, atol=1e-12)


class TestCodedSearch:
    @pytest.mark.parametrize("link", ["identity", "logit"])
    def test_same_lambda_and_contributions_as_the_rows(self, link):
        rng = np.random.default_rng(5)
        X, codes = _coded_sample(rng, 4_000, DOMAINS)
        eta = np.sin(X[:, 0]) + 0.1 * X[:, 1] + 0.5 * X[:, 2] + X[:, 3] - 1.0
        if link == "identity":
            y = eta + rng.normal(0.0, 0.3, len(X))
        else:
            y = (rng.uniform(size=len(X)) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        # Distinct features: a linear term on the spline's feature splits
        # their sum along a direction only the ridge pins.
        coding = (DOMAINS, codes)
        coded = GAM(_terms(linear=3), link=link).gridsearch(X, y, coding=coding)
        rows = GAM(_terms(linear=3), link=link).gridsearch(X, y)
        assert coded.lam == rows.lam
        for a, b in zip(coded.terms[1:], rows.terms[1:]):
            assert a.col_means_.tobytes() == b.col_means_.tobytes()
        parts, reference = coded.decompose(X), rows.decompose(X)
        scale = max(np.abs(c).max() for c in reference.values())
        for label, contribution in reference.items():
            np.testing.assert_allclose(
                parts[label], contribution, rtol=0, atol=1e-9 * scale
            )


class TestRoute:
    @staticmethod
    def _gram_routes(terms, X, y, coding):
        tracer = enable_tracing()
        try:
            GAM(terms).gridsearch(X, y, lam_grid=[0.1, 1.0], coding=coding)
        finally:
            disable_tracing()
        for name in ("gam.gcv", "gam.design", "gam.fit", "gcv.score"):
            assert tracer.find(name), name
        return {s.attrs["route"] for s in tracer.find("gam.gram")}

    def test_routes(self):
        rng = np.random.default_rng(6)
        X, codes = _coded_sample(rng, 500, DOMAINS)
        y = X[:, 0] + X[:, 2]
        coding = (DOMAINS, codes)
        assert self._gram_routes(_terms(), X, y, coding) == {"codes"}
        # A tensor term or an uncoded column sends the whole fit to rows.
        tensor = [*_terms(), TensorTerm(0, 1, 5)]
        assert self._gram_routes(tensor, X, y, coding) == {"rows"}
        partial = (DOMAINS, {f: c for f, c in codes.items() if f != 1})
        assert self._gram_routes(_terms(), X, y, partial) == {"rows"}
        assert self._gram_routes(_terms(), X, y, None) == {"rows"}
