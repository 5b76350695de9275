"""Tests for GAM term construction and the categorical heuristic."""

import numpy as np
import pytest

from repro.core import GEFConfig, build_gam, build_terms, is_categorical
from repro.core.errors import SelectionError
from repro.gam import FactorTerm, LinearTerm, SplineTerm, TensorTerm


@pytest.fixture
def thresholds():
    """Feature 0: continuous (many thresholds); feature 1: categorical."""
    return [
        np.linspace(0, 1, 50),
        np.array([0.5, 0.5, 1.5]),  # two distinct values < L
        np.linspace(-1, 1, 200),
    ]


class TestCategoricalHeuristic:
    def test_few_distinct_thresholds_is_categorical(self):
        assert is_categorical(np.array([1.0, 2.0, 1.0]), categorical_threshold=10)

    def test_many_thresholds_is_continuous(self):
        assert not is_categorical(np.linspace(0, 1, 50), categorical_threshold=10)

    def test_boundary_inclusive(self):
        # Exactly L distinct values is continuous ("fewer than L" rule).
        values = np.arange(10.0)
        assert not is_categorical(values, categorical_threshold=10)
        assert is_categorical(values[:9], categorical_threshold=10)


class TestBuildTerms:
    def test_term_types(self, thresholds):
        cfg = GEFConfig()
        terms = build_terms([0, 1], [(0, 2)], thresholds, cfg)
        assert isinstance(terms[0], SplineTerm)
        assert isinstance(terms[1], FactorTerm)
        assert isinstance(terms[2], TensorTerm)

    def test_term_order_univariate_then_pairs(self, thresholds):
        cfg = GEFConfig()
        terms = build_terms([2, 0], [(0, 2)], thresholds, cfg)
        assert [t.features for t in terms] == [(2,), (0,), (0, 2)]

    def test_feature_names_used_in_labels(self, thresholds):
        cfg = GEFConfig()
        terms = build_terms(
            [0, 1], [], thresholds, cfg, feature_names=["age", "sex", "bmi"]
        )
        assert terms[0].label == "s(age)"
        assert terms[1].label == "f(sex)"

    def test_spline_basis_size_from_config(self, thresholds):
        cfg = GEFConfig(n_splines=15)
        terms = build_terms([0], [], thresholds, cfg)
        assert terms[0].n_splines == 15

    def test_linear_component_type(self, thresholds):
        from repro.gam import LinearTerm

        cfg = GEFConfig(component_type="linear")
        terms = build_terms([0, 1], [], thresholds, cfg)
        assert isinstance(terms[0], LinearTerm)
        # Categorical features stay factors even in linear mode.
        assert isinstance(terms[1], FactorTerm)

    def test_invalid_component_type(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            GEFConfig(component_type="quadratic")


class TestBuildGam:
    def test_regression_gets_identity_link(self, thresholds):
        gam = build_gam([0], [], thresholds, GEFConfig(), is_classifier=False)
        assert gam.link.name == "identity"

    def test_classifier_gets_logit_link(self, thresholds):
        gam = build_gam([0], [], thresholds, GEFConfig(), is_classifier=True)
        assert gam.link.name == "logit"

    def test_classifier_raw_labels_get_identity(self, thresholds):
        cfg = GEFConfig(label="raw")
        gam = build_gam([0], [], thresholds, cfg, is_classifier=True)
        assert gam.link.name == "identity"

    def test_empty_features_rejected(self, thresholds):
        with pytest.raises(ValueError):
            build_gam([], [], thresholds, GEFConfig(), is_classifier=False)


class TestLadderRungs:
    """Every degradation-ladder rung comes from the one ``build_gam``."""

    def test_univariate_only_drops_factors_and_tensors(self, thresholds):
        gam = build_gam(
            [0, 1], [(0, 2)], thresholds, GEFConfig(), is_classifier=False,
            feature_names=["age", "sex", "bmi"], rung="univariate-only",
        )
        assert [type(t) for t in gam.terms[1:]] == [SplineTerm, SplineTerm]
        assert [t.label for t in gam.terms[1:]] == ["s(age)", "s(sex)"]
        assert all(t.n_splines == GEFConfig().n_splines for t in gam.terms[1:])
        assert gam.link.name == "identity"

    def test_univariate_only_ignores_linear_component_type(self, thresholds):
        cfg = GEFConfig(component_type="linear")
        gam = build_gam(
            [0], [], thresholds, cfg, is_classifier=True, rung="univariate-only"
        )
        assert [type(t) for t in gam.terms[1:]] == [SplineTerm]
        assert gam.link.name == "logit"

    def test_linear_rung_one_coefficient_per_feature(self, thresholds):
        gam = build_gam(
            [0, 1, 2], [(0, 2)], thresholds, GEFConfig(), is_classifier=True,
            rung="linear",
        )
        assert [type(t) for t in gam.terms[1:]] == [LinearTerm] * 3
        assert [t.label for t in gam.terms[1:]] == ["l(x0)", "l(x1)", "l(x2)"]
        assert gam.link.name == "logit"

    def test_drop_tensor_rung_builds_the_given_pairs(self, thresholds):
        full = build_gam([0, 1], [(0, 2)], thresholds, GEFConfig(), False)
        dropped = build_gam(
            [0, 1], [], thresholds, GEFConfig(), False, rung="drop-tensor"
        )
        assert [t.label for t in dropped.terms] == [t.label for t in full.terms[:-1]]

    def test_unknown_rung_rejected(self, thresholds):
        with pytest.raises(SelectionError, match="unknown degradation rung"):
            build_gam([0], [], thresholds, GEFConfig(), False, rung="quadratic")

    def test_degraded_rungs_reject_empty_features(self, thresholds):
        with pytest.raises(SelectionError):
            build_gam([], [], thresholds, GEFConfig(), False, rung="linear")
