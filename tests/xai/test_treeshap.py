"""Tests for exact path-dependent TreeSHAP."""

from itertools import combinations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.forest import GradientBoostingRegressor, RandomForestRegressor
from repro.xai import TreeShapExplainer, expected_tree_value, tree_shap_values
from tests.forest.test_tree import make_descending_chain


def conditional_expectation(tree, x, subset):
    """Path-dependent E[f(x) | features in subset] via cover-weighted walk."""

    def recurse(node):
        if tree.is_leaf(node):
            return tree.value[node]
        f = tree.feature[node]
        if f in subset:
            child = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
            return recurse(int(child))
        wl = tree.n_samples[tree.left[node]]
        wr = tree.n_samples[tree.right[node]]
        total = wl + wr
        return (
            wl * recurse(int(tree.left[node]))
            + wr * recurse(int(tree.right[node]))
        ) / total

    return recurse(0)


def brute_force_shap(tree, x, n_features):
    """Textbook Shapley values over the conditional-expectation game."""
    phi = np.zeros(n_features)
    for i in range(n_features):
        others = [f for f in range(n_features) if f != i]
        for size in range(len(others) + 1):
            for subset in combinations(others, size):
                weight = (
                    factorial(len(subset))
                    * factorial(n_features - len(subset) - 1)
                    / factorial(n_features)
                )
                with_i = conditional_expectation(tree, x, set(subset) | {i})
                without_i = conditional_expectation(tree, x, set(subset))
                phi[i] += weight * (with_i - without_i)
    return phi


@pytest.fixture(scope="module")
def shap_setup():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (600, 4))
    y = 2 * X[:, 0] + X[:, 1] * X[:, 2] + np.sin(4 * X[:, 3]) + rng.normal(0, 0.05, 600)
    forest = GradientBoostingRegressor(
        n_estimators=12, num_leaves=8, min_samples_leaf=5, random_state=0
    )
    forest.fit(X, y)
    return forest, X


class TestExactness:
    def test_matches_brute_force(self, shap_setup):
        forest, X = shap_setup
        explainer = TreeShapExplainer(forest)
        for row in (0, 17, 99):
            fast = explainer.shap_values(X[row][None, :])[0]
            brute = sum(brute_force_shap(t, X[row], 4) for t in forest.trees_)
            np.testing.assert_allclose(fast, brute, atol=1e-10)

    def test_single_tree_matches_brute_force(self, shap_setup):
        forest, X = shap_setup
        tree = forest.trees_[0]
        fast = tree_shap_values(tree, X[3], 4)
        np.testing.assert_allclose(fast, brute_force_shap(tree, X[3], 4), atol=1e-10)


class TestLocalAccuracy:
    def test_sum_equals_prediction_minus_base(self, shap_setup):
        forest, X = shap_setup
        explainer = TreeShapExplainer(forest)
        rows = X[:25]
        phi = explainer.shap_values(rows)
        preds = forest.predict(rows)
        np.testing.assert_allclose(
            explainer.expected_value + phi.sum(axis=1), preds, atol=1e-9
        )

    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_local_accuracy_anywhere(self, coords):
        # hypothesis doesn't combine with fixtures; rebuild a small forest.
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, (300, 4))
        y = X[:, 0] - X[:, 2]
        forest = GradientBoostingRegressor(n_estimators=4, num_leaves=4, random_state=0)
        forest.fit(X, y)
        explainer = TreeShapExplainer(forest)
        x = np.asarray(coords)
        phi = explainer.shap_values(x[None, :])[0]
        assert explainer.expected_value + phi.sum() == pytest.approx(
            forest.predict(x[None, :])[0], abs=1e-8
        )


    @pytest.mark.parametrize("x0", [0.0, 1.0])
    def test_tree_with_children_before_parents(self, x0):
        """Node ids need not grow with depth: 0 -> 5 -> 4 -> 3 -> 2."""
        tree = make_descending_chain()
        for x in (np.array([x0, 0.5, 0.0, 0.0, 0.0]), np.full(5, x0)):
            phi = tree_shap_values(tree, x, 5)
            assert phi.sum() + expected_tree_value(tree) == pytest.approx(
                tree.predict(x[None, :])[0], abs=1e-12
            )
            np.testing.assert_allclose(phi, brute_force_shap(tree, x, 5), atol=1e-12)


class TestStructuralProperties:
    def test_unused_feature_gets_zero(self, shap_setup):
        forest, X = shap_setup
        explainer = TreeShapExplainer(forest)
        padded = np.column_stack([X[:5], np.ones(5)])
        forest_padded = GradientBoostingRegressor(n_estimators=3, random_state=0)
        rng = np.random.default_rng(2)
        Xp = np.column_stack([X, rng.uniform(0, 1, len(X))])
        # Retrain with a pure-noise feature that carries no signal: any
        # residual attribution should be tiny relative to the real features.
        yp = 3 * X[:, 0]
        forest_padded.fit(Xp, yp)
        phi = TreeShapExplainer(forest_padded).shap_values(Xp[:20])
        assert np.abs(phi[:, 4]).max() < 0.25 * np.abs(phi[:, 0]).max()

    def test_expected_value_is_cover_weighted_mean(self, shap_setup):
        forest, X = shap_setup
        explainer = TreeShapExplainer(forest)
        # The cover-weighted mean equals the training-set mean prediction
        # because covers are the actual training routing counts.
        train_mean = forest.predict(X).mean()
        assert explainer.expected_value == pytest.approx(train_mean, abs=0.05)

    def test_works_on_random_forest(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (400, 3))
        y = X[:, 0] * 2
        rf = RandomForestRegressor(n_estimators=5, max_features="all", random_state=0)
        rf.fit(X, y)
        explainer = TreeShapExplainer(rf)
        phi = explainer.shap_values(X[:10])
        np.testing.assert_allclose(
            explainer.expected_value + phi.sum(axis=1),
            rf.predict(X[:10]),
            atol=1e-9,
        )

    def test_explain_dict(self, shap_setup):
        forest, X = shap_setup
        result = TreeShapExplainer(forest).explain(X[0])
        assert result["prediction"] == pytest.approx(
            forest.predict(X[0][None, :])[0], abs=1e-9
        )
        assert len(result["ranking"]) == 4
        # Ranking is by decreasing |phi|.
        mags = np.abs(result["shap_values"])[result["ranking"]]
        assert np.all(np.diff(mags) <= 1e-12)


class TestValidation:
    def test_unfitted_forest_rejected(self):
        with pytest.raises(ValueError):
            TreeShapExplainer(GradientBoostingRegressor())

    def test_wrong_width_rejected(self, shap_setup):
        forest, _ = shap_setup
        explainer = TreeShapExplainer(forest)
        with pytest.raises(ValueError):
            explainer.shap_values(np.zeros((2, 7)))

    def test_expected_tree_value_stump(self):
        from tests.forest.test_tree import make_stump

        tree = make_stump(left_value=-1.0, right_value=1.0)
        # 6 of 10 samples go left.
        assert expected_tree_value(tree) == pytest.approx(-0.2)


def make_repeated_feature_tree():
    """x0 splits the root AND the left-left subtree: descending the cold
    side of the root carries a zero one-fraction for x0 down the path, so
    re-encountering x0 exercises the exact ``one == 0.0`` unwind branch."""
    from repro.forest.tree import LEAF, Tree

    return Tree(
        feature=np.array([0, 1, LEAF, 0, LEAF, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([0.5, 0.5, 0.0, 0.25, 0.0, 0.0, 0.0]),
        left=np.array([1, 3, -1, 5, -1, -1, -1], dtype=np.int32),
        right=np.array([2, 4, -1, 6, -1, -1, -1], dtype=np.int32),
        value=np.array([0.0, 0.0, 5.0, 0.0, 1.0, 2.0, 3.0]),
        gain=np.array([4.0, 2.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        n_samples=np.array([16, 10, 6, 7, 3, 4, 3], dtype=np.int64),
    )


class TestFloatSentinelRegressions:
    """Pinned behavior of the exact float comparisons waived in
    ``src/repro/xai/treeshap.py`` (``# repro: allow(float-eq)``)."""

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0.1, 0.1]),
            np.array([0.1, 0.9]),
            np.array([0.4, 0.1]),
            np.array([0.9, 0.9]),
        ],
    )
    def test_zero_cover_branch(self, x):
        """The zero one-fraction unwind branch still yields exact Shapley
        values (matches the brute-force conditional-expectation game)."""
        tree = make_repeated_feature_tree()
        phi = tree_shap_values(tree, x, 2)
        expected = brute_force_shap(tree, x, 2)
        np.testing.assert_allclose(phi, expected, atol=1e-12)
        total = phi.sum() + expected_tree_value(tree)
        np.testing.assert_allclose(
            total, conditional_expectation(tree, x, {0, 1}), atol=1e-12
        )

    def test_conditioned_zero_fraction(self):
        """The ``condition_fraction == 0.0`` dead-path prune keeps the
        interaction matrix consistent: symmetric, rows summing to the
        SHAP values, total equal to f(x) - E[f]."""
        from repro.xai import tree_shap_interaction_values

        tree = make_repeated_feature_tree()
        x = np.array([0.3, 0.2])
        inter = tree_shap_interaction_values(tree, x, 2)
        phi = tree_shap_values(tree, x, 2)
        np.testing.assert_allclose(inter, inter.T, atol=1e-12)
        np.testing.assert_allclose(inter.sum(axis=1), phi, atol=1e-12)
        np.testing.assert_allclose(
            inter.sum(),
            conditional_expectation(tree, x, {0, 1}) - expected_tree_value(tree),
            atol=1e-12,
        )
