"""Tests for the five sampling-domain strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    all_thresholds_domain,
    build_domain,
    build_sampling_domains,
    equi_size_domain,
    equi_width_domain,
    feature_thresholds,
    k_means_domain,
    k_quantile_domain,
)


@pytest.fixture
def skewed_thresholds():
    """Thresholds concentrated around 0.5 like a sigmoid-fitted forest."""
    rng = np.random.default_rng(0)
    return np.sort(np.clip(rng.normal(0.5, 0.08, 400), 0, 1))


class TestAllThresholds:
    def test_midpoints_plus_extremes(self):
        thresholds = np.array([1.0, 2.0, 4.0])
        domain = all_thresholds_domain(thresholds, epsilon_fraction=0.05)
        eps = 0.05 * 3.0
        np.testing.assert_allclose(domain, [1.0 - eps, 1.5, 3.0, 4.0 + eps])

    def test_never_contains_a_threshold(self, skewed_thresholds):
        domain = all_thresholds_domain(skewed_thresholds)
        assert len(np.intersect1d(domain, np.unique(skewed_thresholds))) == 0

    def test_duplicates_collapsed(self):
        domain = all_thresholds_domain(np.array([1.0, 1.0, 2.0]))
        eps = 0.05 * 1.0
        np.testing.assert_allclose(domain, [1.0 - eps, 1.5, 2.0 + eps])

    def test_single_threshold(self):
        domain = all_thresholds_domain(np.array([3.0]))
        assert len(domain) == 2
        assert domain[0] < 3.0 < domain[1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            all_thresholds_domain(np.array([]))


class TestKQuantile:
    def test_size_at_most_k(self, skewed_thresholds):
        domain = k_quantile_domain(skewed_thresholds, 20)
        assert len(domain) <= 20

    def test_follows_density(self, skewed_thresholds):
        """More domain points where thresholds are denser (near 0.5)."""
        domain = k_quantile_domain(skewed_thresholds, 30)
        central = np.sum((domain > 0.4) & (domain < 0.6))
        assert central > len(domain) / 2

    def test_reuses_extreme_values(self, skewed_thresholds):
        domain = k_quantile_domain(skewed_thresholds, 10)
        assert domain[0] == pytest.approx(skewed_thresholds[0])
        assert domain[-1] == pytest.approx(skewed_thresholds[-1])

    def test_k_validation(self, skewed_thresholds):
        with pytest.raises(ValueError):
            k_quantile_domain(skewed_thresholds, 1)


class TestEquiWidth:
    def test_evenly_spaced(self, skewed_thresholds):
        domain = equi_width_domain(skewed_thresholds, 15)
        np.testing.assert_allclose(np.diff(domain), np.diff(domain)[0])

    def test_extends_beyond_range(self, skewed_thresholds):
        domain = equi_width_domain(skewed_thresholds, 10, epsilon_fraction=0.05)
        assert domain[0] < skewed_thresholds[0]
        assert domain[-1] > skewed_thresholds[-1]

    def test_ignores_density(self, skewed_thresholds):
        domain = equi_width_domain(skewed_thresholds, 40)
        central = np.sum((domain > 0.4) & (domain < 0.6))
        # Equi-width places points uniformly regardless of density.
        assert central < len(domain) / 2


class TestKMeans:
    def test_size(self, skewed_thresholds):
        domain = k_means_domain(skewed_thresholds, 12, random_state=0)
        assert len(domain) <= 12
        assert np.all(np.diff(domain) > 0)

    def test_few_distinct_values_shrinks_k(self):
        thresholds = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
        domain = k_means_domain(thresholds, 10)
        np.testing.assert_allclose(domain, [1.0, 2.0, 3.0])

    def test_centroids_inside_range(self, skewed_thresholds):
        domain = k_means_domain(skewed_thresholds, 8, random_state=0)
        assert domain.min() >= skewed_thresholds.min()
        assert domain.max() <= skewed_thresholds.max()


class TestEquiSize:
    def test_chunk_averages(self):
        thresholds = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        domain = equi_size_domain(thresholds, 3)
        np.testing.assert_allclose(domain, [1.5, 3.5, 5.5])

    def test_follows_density(self, skewed_thresholds):
        domain = equi_size_domain(skewed_thresholds, 30)
        central = np.sum((domain > 0.4) & (domain < 0.6))
        assert central > len(domain) / 2

    def test_k_larger_than_values(self):
        thresholds = np.array([1.0, 2.0, 3.0])
        domain = equi_size_domain(thresholds, 50)
        np.testing.assert_allclose(domain, [1.0, 2.0, 3.0])

    @staticmethod
    def _per_run_reference(thresholds, k):
        """One ``np.mean`` per ``np.array_split`` run (the reference)."""
        thresholds = np.sort(np.asarray(thresholds, dtype=np.float64))
        runs = np.array_split(thresholds, min(k, thresholds.size))
        return np.unique([float(np.mean(run)) for run in runs])

    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal_to_per_run_means(self, seed):
        # Run lengths straddle numpy's pairwise-sum blocks (8 and 128).
        rng = np.random.default_rng(seed)
        sizes = [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 130, 257, 300, 1031, 2600]
        for n in sizes:
            for k in {1, 2, 3, 7, 10, 20, 64, 200, n - 1, n, n + 1, 10 * n}:
                if k < 1:
                    continue
                values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
                if rng.random() < 0.3:
                    values = np.round(values, 1)  # repeated thresholds
                got = equi_size_domain(values, k)
                expected = self._per_run_reference(values, k)
                assert got.dtype == expected.dtype, (n, k)
                assert got.tobytes() == expected.tobytes(), (n, k)

    def test_bitwise_equal_on_forest_thresholds(self, small_forest):
        for thresholds in feature_thresholds(small_forest):
            if thresholds.size:
                for k in (1, 5, 64, 200):
                    assert (
                        equi_size_domain(thresholds, k).tobytes()
                        == self._per_run_reference(thresholds, k).tobytes()
                    )


class TestBuildDomain:
    def test_dispatch(self, skewed_thresholds):
        for strategy in (
            "all-thresholds",
            "k-quantile",
            "equi-width",
            "k-means",
            "equi-size",
        ):
            domain = build_domain(skewed_thresholds, strategy, k=10)
            assert len(domain) >= 2
            assert np.all(np.diff(domain) > 0)

    def test_unknown_strategy(self, skewed_thresholds):
        with pytest.raises(ValueError):
            build_domain(skewed_thresholds, "halton")

    def test_degenerate_single_threshold_straddles_split(self):
        """A one-hot-style feature (single distinct threshold) must get a
        two-point domain straddling the split, whatever the strategy —
        otherwise the forest's right branch is never sampled."""
        thresholds = np.array([0.5, 0.5, 0.5])
        for strategy in ("k-quantile", "k-means", "equi-size"):
            domain = build_domain(thresholds, strategy, k=10)
            assert len(domain) >= 2
            assert domain[0] < 0.5 < domain[-1]

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=50),
        st.sampled_from(["k-quantile", "equi-width", "k-means", "equi-size"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_domains_always_valid(self, values, strategy):
        """Any threshold list yields a finite, sorted, distinct domain."""
        thresholds = np.asarray(values)
        domain = build_domain(thresholds, strategy, k=8)
        assert np.all(np.isfinite(domain))
        assert np.all(np.diff(domain) > 0)
        assert len(domain) >= 1


class TestBuildSamplingDomains:
    def test_covers_used_features(self, small_forest):
        domains = build_sampling_domains(
            feature_thresholds(small_forest), "equi-size", k=16
        )
        used = set()
        for tree in small_forest.trees_:
            used |= tree.used_features()
        assert set(domains) == used

    def test_unfitted_forest(self):
        from repro.forest import GradientBoostingRegressor

        with pytest.raises(ValueError):
            build_sampling_domains(
                feature_thresholds(GradientBoostingRegressor()), "equi-size"
            )

    def test_no_thresholds_rejected(self):
        from repro.core import SamplingError

        with pytest.raises(SamplingError, match="no splits"):
            build_sampling_domains([np.empty(0)] * 3, "equi-size")


class TestCollapsedDomainRescue:
    """A one-hot-style feature (single distinct threshold) must yield a
    usable two-point domain instead of collapsing or raising."""

    def test_single_threshold_widened(self):
        thresholds = np.full(8, 0.5)
        for strategy in ("k-quantile", "equi-size", "k-means"):
            domain = build_domain(thresholds, strategy, k=4)
            assert len(domain) >= 2
            assert np.all(np.diff(domain) > 0)
            assert domain.min() < 0.5 < domain.max()

    def test_zero_epsilon_still_two_points(self):
        domain = build_domain(np.full(8, 0.5), "all-thresholds",
                              epsilon_fraction=0.0)
        assert len(domain) >= 2
        assert np.all(np.diff(domain) > 0)

    def test_kmeans_k1_collapse_rescued(self):
        domain = build_domain(np.array([0.3, 0.5, 0.7]), "k-means", k=1)
        assert len(domain) >= 2

    def test_widen_prefers_neighbour_midpoints(self):
        from repro.core.sampling import _widen_collapsed

        widened = _widen_collapsed(
            np.array([0.5]), np.array([0.3, 0.5, 0.8]), 0.05
        )
        assert np.allclose(widened, [0.4, 0.5, 0.65])

    def test_widen_epsilon_floor_without_neighbours(self):
        from repro.core.sampling import _widen_collapsed

        widened = _widen_collapsed(np.array([0.5]), np.array([0.5]), 0.0)
        assert len(widened) == 2
        assert widened[0] < 0.5 < widened[1]
