"""Tests for GAM serialization."""

import json

import numpy as np
import pytest

from repro.gam import (
    GAM,
    FactorTerm,
    LinearTerm,
    SplineTerm,
    TensorTerm,
    gam_from_dict,
    gam_to_dict,
    term_from_dict,
    term_to_dict,
)


@pytest.fixture(scope="module")
def fitted_gam():
    rng = np.random.default_rng(0)
    X = np.column_stack([
        rng.uniform(0, 1, 1500),
        rng.uniform(-2, 2, 1500),
        rng.choice([0.0, 1.0, 2.0], 1500),
        rng.uniform(0, 1, 1500),
    ])
    y = (
        np.sin(5 * X[:, 0])
        + 0.5 * X[:, 1]
        + np.array([0.0, 1.0, -1.0])[X[:, 2].astype(int)]
        + X[:, 0] * X[:, 3]
        + rng.normal(0, 0.05, 1500)
    )
    gam = GAM(
        [
            SplineTerm(0, 10),
            LinearTerm(1),
            FactorTerm(2),
            TensorTerm(0, 3, 5),
        ],
        lam=0.3,
    ).fit(X, y)
    return gam, X


class TestTermRoundTrip:
    @pytest.mark.parametrize("index", [0, 1, 2, 3, 4])
    def test_each_term_round_trips(self, fitted_gam, index):
        gam, X = fitted_gam
        term = gam.terms[index]
        clone = term_from_dict(term_to_dict(term))
        np.testing.assert_allclose(
            term.design_for(X[:50, list(term.features)]), clone.design_for(X[:50, list(clone.features)]), atol=1e-14
        )
        assert clone.label == term.label
        assert clone.n_coefs == term.n_coefs

    def test_unfitted_term_rejected(self):
        with pytest.raises(RuntimeError):
            term_to_dict(SplineTerm(0))

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            term_from_dict({"type": "wavelet"})


class TestGamRoundTrip:
    def test_predictions_identical(self, fitted_gam):
        gam, X = fitted_gam
        clone = gam_from_dict(gam_to_dict(gam))
        np.testing.assert_allclose(
            gam.predict(X[:200]), clone.predict(X[:200]), atol=1e-12
        )

    def test_partial_dependence_identical(self, fitted_gam):
        gam, X = fitted_gam
        clone = gam_from_dict(gam_to_dict(gam))
        grid = np.linspace(0, 1, 25)
        a, ci_a = gam.partial_dependence(1, grid, width=0.95)
        b, ci_b = clone.partial_dependence(1, grid, width=0.95)
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(ci_a, ci_b, atol=1e-12)

    def test_json_safe(self, fitted_gam):
        gam, X = fitted_gam
        payload = json.dumps(gam_to_dict(gam))
        clone = gam_from_dict(json.loads(payload))
        np.testing.assert_allclose(
            gam.predict(X[:20]), clone.predict(X[:20]), atol=1e-12
        )

    def test_unfitted_gam_rejected(self):
        with pytest.raises(ValueError):
            gam_to_dict(GAM([SplineTerm(0)]))

    def test_logit_gam_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (1000, 1))
        y = (rng.uniform(size=1000) < X[:, 0]).astype(float)
        gam = GAM([SplineTerm(0, 8)], link="logit", lam=1.0).fit(X, y)
        clone = gam_from_dict(gam_to_dict(gam))
        assert clone.link.name == "logit"
        np.testing.assert_allclose(
            gam.predict_mu(X[:50]), clone.predict_mu(X[:50]), atol=1e-12
        )
