"""Tests for exact path-dependent TreeSHAP."""

from itertools import combinations
from math import factorial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.node_table import node_table
from repro.datasets import load_census, make_d_prime
from repro.forest import GradientBoostingRegressor, RandomForestRegressor, Tree
from repro.xai import TreeShapExplainer, expected_tree_value
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


def reference_tree_shap(tree, x, n_features):
    """Lundberg et al.'s Algorithm 2 as a recursion, one tree and one row.

    The reference the path form in ``repro.xai.treeshap`` is pinned
    against: a unique path of (feature, zero fraction, one fraction,
    weight) elements is extended on the way down and unwound when a
    feature repeats.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    phi = np.zeros(n_features)
    size = tree.max_depth + 2

    def extend(m, depth, pz, po, pi):
        d, z, o, w = m
        d[depth], z[depth], o[depth] = pi, pz, po
        w[depth] = 1.0 if depth == 0 else 0.0
        for i in range(depth - 1, -1, -1):
            w[i + 1] += po * w[i] * (i + 1) / (depth + 1)
            w[i] = pz * w[i] * (depth - i) / (depth + 1)

    def unwind(m, depth, index):
        d, z, o, w = m
        one, zero, next_one = o[index], z[index], w[depth]
        for i in range(depth - 1, -1, -1):
            if one != 0.0:
                tmp = w[i]
                w[i] = next_one * (depth + 1) / ((i + 1) * one)
                next_one = tmp - w[i] * zero * (depth - i) / (depth + 1)
            else:
                w[i] = w[i] * (depth + 1) / (zero * (depth - i))
        for a in (d, z, o):
            a[index:depth] = a[index + 1:depth + 1]

    def unwound_sum(m, depth, index):
        _, z, o, w = m
        one, zero, total = o[index], z[index], 0.0
        if one != 0.0:
            next_one = w[depth]
            for i in range(depth - 1, -1, -1):
                tmp = next_one / ((i + 1) * one)
                total += tmp
                next_one = w[i] - tmp * zero * (depth - i)
        else:
            for i in range(depth - 1, -1, -1):
                total += w[i] / (zero * (depth - i))
        return total * (depth + 1)

    def recurse(node, depth, parent, pz, po, pi):
        m = tuple(a.copy() for a in parent)
        extend(m, depth, pz, po, pi)
        d, z, o, _ = m
        if tree.is_leaf(node):
            for i in range(1, depth + 1):
                phi[d[i]] += unwound_sum(m, depth, i) * (o[i] - z[i]) * tree.value[node]
            return
        feature = int(tree.feature[node])
        hot, cold = int(tree.left[node]), int(tree.right[node])
        if not x[feature] <= tree.threshold[node]:
            hot, cold = cold, hot
        weight = float(tree.n_samples[node])
        incoming_zero = incoming_one = 1.0
        hits = np.flatnonzero(d[:depth + 1] == feature)
        if hits.size:
            incoming_zero, incoming_one = float(z[hits[0]]), float(o[hits[0]])
            unwind(m, depth, hits[0])
            depth -= 1
        recurse(hot, depth + 1, m, tree.n_samples[hot] / weight * incoming_zero,
                incoming_one, feature)
        recurse(cold, depth + 1, m, tree.n_samples[cold] / weight * incoming_zero,
                0.0, feature)

    empty = (np.zeros(size, np.int64),) + tuple(np.zeros(size) for _ in range(3))
    recurse(0, 0, empty, 1.0, 1.0, -1)
    return phi


def one_tree_shap(tree, x, n_features):
    """``TreeShapExplainer.shap_values`` of one row on a one-tree forest."""
    forest = SimpleNamespace(trees_=[tree], init_score_=0.0, n_features_=n_features)
    x = np.asarray(x, dtype=np.float64)
    return TreeShapExplainer(forest).shap_values(x[None, :])[0]


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
        fast = one_tree_shap(tree, X[3], 4)
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
            phi = one_tree_shap(tree, x, 5)
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
    """The zero one-fraction branch of UNWOUND-SUM, which the path form
    picks with a boolean mask instead of an exact float comparison."""

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
        phi = one_tree_shap(tree, x, 2)
        expected = brute_force_shap(tree, x, 2)
        np.testing.assert_allclose(phi, expected, atol=1e-12)
        total = phi.sum() + expected_tree_value(tree)
        np.testing.assert_allclose(
            total, conditional_expectation(tree, x, {0, 1}), atol=1e-12
        )


def _bench_rows(model, name):
    """Test rows of a bench forest's data, then rows on its thresholds and
    with NaN and +-inf (NaN and values above a threshold go right)."""
    if name == "spline":
        X = make_d_prime(n=10_000, seed=0).X_test[:2]
    elif name == "census":
        X = load_census(n=12_000, seed=0).X_test[:2]
    else:
        X = np.random.default_rng(1).standard_normal((2, 12))
    table = node_table(model.trees_)
    split = table.internal
    d = model.n_features_
    on_threshold = X[0].copy()
    for f in np.unique(table.feature[split]):
        thresholds = table.threshold[split & (table.feature == f)]
        on_threshold[f] = thresholds[len(thresholds) // 2]
    special = np.resize([np.nan, np.inf, -np.inf], d)
    mixed = np.where(np.arange(d) % 2 == 0, on_threshold, special)
    return np.vstack([X, on_threshold, np.where(np.arange(d) % 4 == 1, X[1], special), mixed])


class TestAgainstReference:
    """The path form against the per-row recursion on the benchmark's
    forests: equal to rounding, not bitwise, since the two sum in a
    different order."""

    @pytest.mark.parametrize("name", ["spline", "census", "serve"])
    def test_bench_forests(self, bench_forests, name):
        model = bench_forests[name]
        X = _bench_rows(model, name)
        phi = TreeShapExplainer(model).shap_values(X)
        reference = np.zeros_like(phi)
        for tree in model.trees_:
            for row, x in enumerate(X):
                reference[row] += reference_tree_shap(tree, x, model.n_features_)
        assert np.abs(phi - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("name", ["spline", "census", "serve"])
    def test_batch_independent_bitwise(self, bench_forests, name):
        """A row's values do not depend on the rows it is batched with,
        whether it shares a chunk with them or is a chunk's only row."""
        model = bench_forests[name]
        explainer = TreeShapExplainer(model)
        chunk = explainer._chunk
        rng = np.random.default_rng(2)
        base = _bench_rows(model, name)
        X = base[rng.integers(0, len(base), chunk + 1)]
        X = X + np.where(np.isfinite(X), rng.normal(0, 0.01, X.shape), 0.0)
        single = np.vstack([explainer.shap_values(x[None, :]) for x in X])
        for n in (1, 2, chunk - 1, chunk, chunk + 1):
            assert np.array_equal(explainer.shap_values(X[:n]), single[:n]), n
        assert np.array_equal(explainer.shap_values(X[::-1]), single[::-1])

    def test_forest_with_single_leaf_tree(self, shap_setup):
        forest, X = shap_setup
        trees = [forest.trees_[0], Tree.single_leaf(0.7, n_samples=10), forest.trees_[1]]
        stub = SimpleNamespace(trees_=trees, init_score_=0.25, n_features_=4)
        explainer = TreeShapExplainer(stub)
        phi = explainer.shap_values(X[:5])
        reference = [sum(reference_tree_shap(t, x, 4) for t in trees) for x in X[:5]]
        np.testing.assert_allclose(phi, reference, atol=1e-12)
        prediction = 0.25 + sum(t.predict(X[:5]) for t in trees)
        np.testing.assert_allclose(explainer.expected_value + phi.sum(axis=1), prediction, atol=1e-12)

    def test_only_single_leaf_trees(self):
        stub = SimpleNamespace(
            trees_=[Tree.single_leaf(0.5), Tree.single_leaf(-2.0, n_samples=4)],
            init_score_=1.0,
            n_features_=3,
        )
        explainer = TreeShapExplainer(stub)
        assert explainer.expected_value == pytest.approx(-0.5)
        assert np.array_equal(explainer.shap_values(np.ones((2, 3))), np.zeros((2, 3)))
