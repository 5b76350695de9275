"""Tests for univariate selection and threshold extraction."""

import numpy as np
import pytest

from repro.core import feature_thresholds, forest_feature_gains, select_univariate
from repro.forest import GradientBoostingRegressor, RandomForestRegressor


class TestFeatureGains:
    def test_gains_shape_and_nonnegative(self, small_forest):
        gains = forest_feature_gains(small_forest)
        assert gains.shape == (5,)
        assert np.all(gains >= 0)

    def test_gains_sum_matches_trees(self, small_forest):
        gains = forest_feature_gains(small_forest)
        manual = np.zeros(5)
        for tree in small_forest.trees_:
            internal = tree.feature != -1
            manual += np.bincount(
                tree.feature[internal], weights=tree.gain[internal], minlength=5
            )
        assert np.array_equal(gains, manual)

    def test_feature_importance_is_the_selection_statistic(
        self, small_forest, bench_forests
    ):
        """``feature_importance("gain")`` returns the exact sums F' ranks by."""
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (600, 4))
        y = np.sin(6 * X[:, 0]) + X[:, 1] * X[:, 2]
        X1 = X[:, :1]
        forests = [
            small_forest,
            RandomForestRegressor(n_estimators=30, random_state=0).fit(X, y),
            GradientBoostingRegressor(n_estimators=60, random_state=0).fit(X1, y),
            *bench_forests.values(),
        ]
        for forest in forests:
            gains = forest_feature_gains(forest)
            assert np.array_equal(forest.feature_importance("gain"), gains)

    def test_unfitted_forest_rejected(self):
        with pytest.raises(ValueError):
            forest_feature_gains(GradientBoostingRegressor())


class TestSelectUnivariate:
    def test_signal_feature_outranks_noise(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (800, 4))
        y = 5 * X[:, 2] + rng.normal(0, 0.01, 800)
        forest = GradientBoostingRegressor(n_estimators=20, random_state=0)
        forest.fit(X, y)
        assert select_univariate(forest)[0] == 2

    def test_top_k_truncation(self, small_forest):
        top2 = select_univariate(small_forest, n_features=2)
        full = select_univariate(small_forest)
        assert top2 == full[:2]
        assert len(top2) == 2

    def test_ranking_consistent_with_gains(self, small_forest):
        gains = forest_feature_gains(small_forest)
        ranked = select_univariate(small_forest)
        ranked_gains = gains[ranked]
        assert np.all(np.diff(ranked_gains) <= 1e-12)

    def test_invalid_k(self, small_forest):
        with pytest.raises(ValueError):
            select_univariate(small_forest, n_features=0)

    def test_split_importance_fallback(self, small_forest):
        """Gain-less ranking still surfaces the load-bearing features."""
        from repro.core import forest_split_counts

        by_split = select_univariate(small_forest, importance="split")
        counts = forest_split_counts(small_forest)
        assert by_split[0] == int(np.argmax(counts))
        # Gain and split rankings agree on the dominant feature of D'.
        assert by_split[0] == select_univariate(small_forest)[0]

    def test_unknown_importance_rejected(self, small_forest):
        with pytest.raises(ValueError, match="importance"):
            select_univariate(small_forest, importance="cover")

    def test_unused_features_excluded(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (500, 3))
        X[:, 2] = 0.0  # constant, cannot be split
        y = X[:, 0]
        forest = GradientBoostingRegressor(n_estimators=10, random_state=0)
        forest.fit(X, y)
        assert 2 not in select_univariate(forest)


class TestFeatureThresholds:
    def test_sorted_and_complete(self, small_forest):
        per_feature = feature_thresholds(small_forest)
        assert len(per_feature) == 5
        total_nodes = sum(
            len(list(t.internal_nodes())) for t in small_forest.trees_
        )
        assert sum(len(v) for v in per_feature) == total_nodes
        for values in per_feature:
            assert np.all(np.diff(values) >= 0)

    def test_multiplicity_preserved(self):
        """Repeated splits on the same threshold must appear repeatedly."""
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, (500, 1))
        y = (X[:, 0] > 0.5).astype(float) * 10
        forest = GradientBoostingRegressor(
            n_estimators=5, num_leaves=2, learning_rate=0.5, random_state=0
        )
        forest.fit(X, y)
        thresholds = feature_thresholds(forest)[0]
        assert len(thresholds) == 5  # one per tree, same location
        assert len(np.unique(thresholds)) == 1


class TestClampWarning:
    def test_overlong_request_warns_and_clamps(self, small_forest):
        import warnings as _warnings

        gains = forest_feature_gains(small_forest)
        n_used = int(np.count_nonzero(gains > 0))
        with pytest.warns(UserWarning, match="clamping"):
            selected = select_univariate(small_forest, n_used + 10)
        assert len(selected) == n_used

    def test_exact_request_does_not_warn(self, small_forest):
        import warnings as _warnings

        gains = forest_feature_gains(small_forest)
        n_used = int(np.count_nonzero(gains > 0))
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            selected = select_univariate(small_forest, n_used)
        assert len(selected) == n_used
