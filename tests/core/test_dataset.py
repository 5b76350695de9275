"""Tests for synthetic dataset (D*) generation."""

import numpy as np
import pytest

from repro.core import (
    build_sampling_domains,
    feature_thresholds,
    generate_dataset,
    sample_instances,
)


@pytest.fixture
def domains(small_forest):
    return build_sampling_domains(feature_thresholds(small_forest), "equi-size", k=12)


class TestSampleInstances:
    def test_values_come_from_domains(self, domains):
        rng = np.random.default_rng(0)
        X = sample_instances(domains, 500, 5, rng)
        for feature, domain in domains.items():
            assert np.all(np.isin(X[:, feature], domain))

    def test_missing_domain_features_zero(self):
        rng = np.random.default_rng(0)
        X = sample_instances({0: np.array([1.0, 2.0])}, 100, 3, rng)
        assert np.all(X[:, 1] == 0.0)
        assert np.all(X[:, 2] == 0.0)

    def test_out_of_range_feature_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_instances({7: np.array([1.0])}, 10, 3, rng)

    def test_sampling_is_uniform_over_domain(self, domains):
        rng = np.random.default_rng(1)
        X = sample_instances(domains, 20_000, 5, rng)
        domain = domains[0]
        counts = np.array([(X[:, 0] == v).sum() for v in domain])
        expected = 20_000 / len(domain)
        assert np.all(np.abs(counts - expected) < 6 * np.sqrt(expected))

    def test_n_samples_validation(self, domains):
        with pytest.raises(ValueError):
            sample_instances(domains, 0, 5, np.random.default_rng(0))


class TestGenerateDataset:
    def test_labels_are_forest_predictions(self, small_forest, domains):
        ds = generate_dataset(small_forest, domains, 400, random_state=0)
        np.testing.assert_allclose(
            ds.y_train, small_forest.predict_raw(ds.X_train)
        )
        np.testing.assert_allclose(ds.y_test, small_forest.predict_raw(ds.X_test))

    def test_split_sizes(self, small_forest, domains):
        ds = generate_dataset(
            small_forest, domains, 1000, test_fraction=0.25, random_state=0
        )
        assert len(ds.X_test) == 250
        assert len(ds.X_train) == 750
        assert ds.n_samples == 1000

    def test_deterministic(self, small_forest, domains):
        a = generate_dataset(small_forest, domains, 200, random_state=5)
        b = generate_dataset(small_forest, domains, 200, random_state=5)
        np.testing.assert_array_equal(a.X_train, b.X_train)

    def test_classifier_probability_labels(self, small_classifier):
        domains = build_sampling_domains(
            feature_thresholds(small_classifier), "k-quantile", k=10
        )
        ds = generate_dataset(
            small_classifier, domains, 300, label="probability", random_state=0
        )
        assert np.all((ds.y_train >= 0) & (ds.y_train <= 1))

    def test_classifier_raw_labels(self, small_classifier):
        domains = build_sampling_domains(
            feature_thresholds(small_classifier), "k-quantile", k=10
        )
        ds = generate_dataset(
            small_classifier, domains, 300, label="raw", random_state=0
        )
        # Raw scores are log-odds: values outside [0, 1] are expected.
        assert ds.y_train.min() < 0 or ds.y_train.max() > 1

    def test_probability_labels_need_classifier(self, small_forest, domains):
        with pytest.raises(ValueError, match="classifier"):
            generate_dataset(small_forest, domains, 100, label="probability")

    def test_test_fraction_validation(self, small_forest, domains):
        with pytest.raises(ValueError):
            generate_dataset(small_forest, domains, 100, test_fraction=0.0)


class TestSamplingByCode:
    """D* is drawn as codes into the domains, on the same RNG stream."""

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_choice_of_values_is_choice_of_codes(self, seed):
        for size in range(2, 201):
            domain = np.sort(np.random.default_rng(size).standard_normal(size))
            by_value = np.random.default_rng(seed).choice(domain, 257)
            codes = np.random.default_rng(seed).choice(len(domain), 257)
            assert by_value.tobytes() == domain[codes].tobytes(), size

    def test_codes_decode_to_the_instances(self, small_forest, domains):
        ds = generate_dataset(small_forest, domains, 600, random_state=3)
        for split, X in (("train", ds.X_train), ("test", ds.X_test)):
            doms, codes = ds.coding(split)
            assert doms is ds.domains
            assert set(codes) == set(domains)
            for f, c in codes.items():
                assert c.dtype == np.uint8  # k = 12 codes fit one byte
                assert X[:, f].tobytes() == domains[f][c].tobytes()

    def test_code_dtype_widens_with_the_domain(self, small_forest):
        domains = {0: np.linspace(0.0, 1.0, 300), 1: np.linspace(0.0, 1.0, 3)}
        ds = generate_dataset(small_forest, domains, 50, random_state=0)
        assert ds.codes_train[0].dtype == np.uint16
        assert ds.codes_train[1].dtype == np.uint8
        X = np.concatenate([ds.X_test, ds.X_train])
        ref = np.random.default_rng(0)
        np.testing.assert_array_equal(X[:, 0], ref.choice(domains[0], 50))
        np.testing.assert_array_equal(X[:, 1], ref.choice(domains[1], 50))

    def test_coded_labels_equal_value_labels(self, small_forest, small_classifier):
        for forest, label in ((small_forest, "raw"), (small_classifier, "probability")):
            domains = build_sampling_domains(
                feature_thresholds(forest), "equi-size", k=40
            )
            ds = generate_dataset(forest, domains, 900, label=label, random_state=1)
            query = forest.predict_proba if label == "probability" else forest.predict_raw
            assert ds.y_train.tobytes() == query(ds.X_train).tobytes()
            assert ds.y_test.tobytes() == query(ds.X_test).tobytes()
