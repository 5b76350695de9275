"""Tests for the four interaction-detection heuristics."""

import numpy as np
import pytest

from repro.core import (
    candidate_pairs,
    count_path_scores,
    gain_path_scores,
    pair_gain_scores,
    rank_interactions,
    select_interactions,
)
from repro.core.validate import validate_forest
from repro.forest import LEAF, RandomForestRegressor, Tree
from tests.forest.test_bitvector import random_tree, shuffle_node_ids


def reference_path_scores(forest, features, want_gain):
    """Count-/Gain-Path by the recursive per-tree walk (the reference).

    A postorder walk propagates, per subtree, the multiset of split
    features (as counts or lists of gains); at each internal node the
    node's feature is paired with every split in its subtree.
    """
    wanted = set(candidate_pairs(features))
    totals = {pair: 0.0 for pair in wanted}
    for tree in forest.trees_:
        scores = {}

        def recurse(node):
            if tree.is_leaf(node):
                return {}
            merged = {}
            for child in (int(tree.left[node]), int(tree.right[node])):
                for f, payload in recurse(child).items():
                    if want_gain:
                        merged.setdefault(f, []).extend(payload)
                    else:
                        merged[f] = merged.get(f, 0) + payload
            f_node, g_node = int(tree.feature[node]), float(tree.gain[node])
            for f, payload in merged.items():
                if f == f_node:
                    continue
                key = (min(f_node, f), max(f_node, f))
                if want_gain:
                    contrib = float(sum(min(g_node, g) for g in payload))
                else:
                    contrib = float(payload)
                scores[key] = scores.get(key, 0.0) + contrib
            if want_gain:
                merged.setdefault(f_node, []).append(g_node)
            else:
                merged[f_node] = merged.get(f_node, 0) + 1
            return merged

        recurse(0)
        for pair, value in scores.items():
            if pair in totals:
                totals[pair] += value
    return totals


def chain_tree():
    """Root on f0, left child on f1, that child's left on f2; gains 5/3/1."""
    return Tree(
        feature=np.array([0, 1, LEAF, 2, LEAF, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([0.5, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0]),
        left=np.array([1, 3, -1, 5, -1, -1, -1], dtype=np.int32),
        right=np.array([2, 4, -1, 6, -1, -1, -1], dtype=np.int32),
        value=np.zeros(7),
        gain=np.array([5.0, 3.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        n_samples=np.array([8, 6, 2, 4, 2, 2, 2], dtype=np.int64),
    )


class FakeForest:
    """Minimal forest protocol wrapper for handcrafted trees."""

    def __init__(self, trees, n_features):
        self.trees_ = trees
        self.n_features_ = n_features
        self.init_score_ = 0.0

    def predict_raw(self, X):
        X = np.atleast_2d(X)
        out = np.zeros(len(X))
        for tree in self.trees_:
            out += tree.predict(X)
        return out


class TestCandidatePairs:
    def test_all_unordered_pairs(self):
        assert candidate_pairs([0, 1, 2]) == [(0, 1), (0, 2), (1, 2)]

    def test_heredity_restriction(self):
        # Only features in F' can appear in a pair.
        pairs = candidate_pairs([3, 1])
        assert pairs == [(1, 3)]

    def test_degenerate(self):
        assert candidate_pairs([2]) == []
        assert candidate_pairs([]) == []

    def test_duplicates_ignored(self):
        assert candidate_pairs([1, 1, 2]) == [(1, 2)]


class TestCountPath:
    def test_chain_tree_counts(self):
        """f0 is ancestor of f1 and f2; f1 is ancestor of f2."""
        forest = FakeForest([chain_tree()], 3)
        scores = count_path_scores(forest, [0, 1, 2])
        assert scores[(0, 1)] == 1.0
        assert scores[(0, 2)] == 1.0
        assert scores[(1, 2)] == 1.0

    def test_repeated_descendant_counted_twice(self):
        """A feature appearing twice below the root counts twice."""
        tree = Tree(
            feature=np.array([0, 1, 1, LEAF, LEAF, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.5, 0.3, 0.7, 0.0, 0.0, 0.0, 0.0]),
            left=np.array([1, 3, 5, -1, -1, -1, -1], dtype=np.int32),
            right=np.array([2, 4, 6, -1, -1, -1, -1], dtype=np.int32),
            value=np.zeros(7),
            gain=np.array([4.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
            n_samples=np.array([8, 4, 4, 2, 2, 2, 2], dtype=np.int64),
        )
        forest = FakeForest([tree], 2)
        scores = count_path_scores(forest, [0, 1])
        assert scores[(0, 1)] == 2.0

    def test_same_feature_pairs_skipped(self):
        """(f, f) is not an interaction even when f repeats on a path."""
        tree = Tree(
            feature=np.array([0, 0, LEAF, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.5, 0.25, 0.0, 0.0, 0.0]),
            left=np.array([1, 3, -1, -1, -1], dtype=np.int32),
            right=np.array([2, 4, -1, -1, -1], dtype=np.int32),
            value=np.zeros(5),
            gain=np.array([4.0, 2.0, 0.0, 0.0, 0.0]),
            n_samples=np.array([8, 4, 4, 2, 2], dtype=np.int64),
        )
        forest = FakeForest([tree], 2)
        scores = count_path_scores(forest, [0, 1])
        assert scores[(0, 1)] == 0.0

    def test_sums_over_trees(self):
        forest = FakeForest([chain_tree(), chain_tree()], 3)
        scores = count_path_scores(forest, [0, 1, 2])
        assert scores[(0, 1)] == 2.0


class TestGainPath:
    def test_min_gain_accumulated(self):
        """Each ancestor/descendant pair contributes min of the two gains."""
        forest = FakeForest([chain_tree()], 3)
        scores = gain_path_scores(forest, [0, 1, 2])
        assert scores[(0, 1)] == pytest.approx(3.0)  # min(5, 3)
        assert scores[(0, 2)] == pytest.approx(1.0)  # min(5, 1)
        assert scores[(1, 2)] == pytest.approx(1.0)  # min(3, 1)

    def test_gain_path_weighted_version_of_count(self):
        """With unit gains, Gain-Path reduces exactly to Count-Path."""
        tree = chain_tree()
        tree.gain = np.where(tree.feature != LEAF, 1.0, 0.0)
        forest = FakeForest([tree], 3)
        counts = count_path_scores(forest, [0, 1, 2])
        gains = gain_path_scores(forest, [0, 1, 2])
        assert counts == gains


class TestPairGain:
    def test_additive_in_feature_importances(self):
        forest = FakeForest([chain_tree()], 3)
        scores = pair_gain_scores(forest, [0, 1, 2])
        # I(f0)=5, I(f1)=3, I(f2)=1.
        assert scores[(0, 1)] == pytest.approx(8.0)
        assert scores[(0, 2)] == pytest.approx(6.0)
        assert scores[(1, 2)] == pytest.approx(4.0)


class TestRankAndSelect:
    def test_ranking_on_real_forest(self, interaction_forest):
        """The injected pairs of D'' should rank well under gain-path."""
        true_pairs = {(0, 1), (0, 4), (1, 4)}
        ranked = rank_interactions(
            interaction_forest, [0, 1, 2, 3, 4], "gain-path"
        )
        top4 = {pair for pair, _ in ranked[:4]}
        assert len(top4 & true_pairs) >= 2

    def test_scores_sorted_descending(self, interaction_forest):
        ranked = rank_interactions(interaction_forest, [0, 1, 2, 3, 4], "count-path")
        values = [score for _, score in ranked]
        assert values == sorted(values, reverse=True)

    def test_select_interactions_count(self, interaction_forest):
        pairs = select_interactions(interaction_forest, [0, 1, 2, 3, 4], 3)
        assert len(pairs) == 3

    def test_select_zero_interactions(self, interaction_forest):
        assert select_interactions(interaction_forest, [0, 1], 0) == []

    def test_hstat_requires_sample(self, interaction_forest):
        with pytest.raises(ValueError, match="sample"):
            rank_interactions(interaction_forest, [0, 1], "h-stat")

    def test_unknown_strategy(self, interaction_forest):
        with pytest.raises(ValueError):
            rank_interactions(interaction_forest, [0, 1], "anova")

    def test_negative_selection_rejected(self, interaction_forest):
        with pytest.raises(ValueError):
            select_interactions(interaction_forest, [0, 1], -1)

    def test_hstat_on_real_forest(self, interaction_forest, d_double_prime_small):
        sample = d_double_prime_small.X_train[:40]
        ranked = rank_interactions(
            interaction_forest, [0, 1, 2, 3, 4], "h-stat", sample=sample
        )
        assert len(ranked) == 10
        top4 = {pair for pair, _ in ranked[:4]}
        assert len(top4 & {(0, 1), (0, 4), (1, 4)}) >= 2


def _ranking(scores):
    return [pair for pair, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


class TestMatchesRecursiveReference:
    """The node-table walk against the recursive walk it replaced.

    Count-Path is exactly equal; Gain-Path adds the same terms in another
    order, so it is pinned to 1e-12 relative with identical rankings.
    """

    def _assert_matches(self, forest, features):
        counts = count_path_scores(forest, features)
        assert counts == reference_path_scores(forest, features, want_gain=False)
        gains = gain_path_scores(forest, features)
        reference = reference_path_scores(forest, features, want_gain=True)
        assert gains.keys() == reference.keys()
        for pair, expected in reference.items():
            assert gains[pair] == pytest.approx(expected, rel=1e-12, abs=0.0), pair
        assert _ranking(gains) == _ranking(reference)

    @pytest.mark.parametrize("name", ["spline", "census", "serve"])
    def test_bench_forests(self, bench_forests, name):
        forest = bench_forests[name]
        self._assert_matches(forest, list(range(forest.n_features_)))
        self._assert_matches(forest, [0, 3, 4])

    def test_random_forest(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((600, 6))
        y = X[:, 0] * X[:, 1] + np.sin(X[:, 2]) + X[:, 3] * X[:, 4]
        forest = RandomForestRegressor(
            n_estimators=15, num_leaves=40, random_state=0
        ).fit(X, y)
        self._assert_matches(forest, list(range(6)))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_with_shuffled_ids(self, seed):
        rng = np.random.default_rng(seed)
        trees = []
        for _ in range(9):
            tree = random_tree(int(rng.integers(1, 60)), rng, n_features=5)
            tree.gain = rng.exponential(size=tree.n_nodes) * (tree.feature != LEAF)
            trees.append(shuffle_node_ids(tree, rng))
        forest = FakeForest(trees, 5)
        validate_forest(forest)
        self._assert_matches(forest, [0, 1, 2, 3, 4])
        self._assert_matches(forest, [1, 3, 4])

    def test_deep_chain_has_closed_form_counts(self):
        """1,200 test nodes on one path, features alternating 0/1.

        Every (ancestor, descendant) pair an odd distance apart tests
        two different features: (1200 / 2) ** 2 of them.  A recursive
        walk overflows the interpreter stack on this tree.
        """
        depth = 1200
        n = 2 * depth + 1
        feature = np.full(n, LEAF, np.int32)
        left = np.full(n, -1, np.int32)
        right = np.full(n, -1, np.int32)
        feature[:depth] = np.arange(depth) % 2
        left[:depth] = np.arange(1, depth + 1)
        right[:depth] = np.arange(depth + 1, n)
        tree = Tree(
            feature=feature, threshold=np.arange(n, dtype=np.float64),
            left=left, right=right, value=np.zeros(n),
            gain=np.where(feature != LEAF, 1.0, 0.0),
            n_samples=np.ones(n, np.int64),
        )
        forest = FakeForest([shuffle_node_ids(tree, np.random.default_rng(0))], 2)
        validate_forest(forest)
        assert count_path_scores(forest, [0, 1]) == {(0, 1): (depth / 2) ** 2}
        assert gain_path_scores(forest, [0, 1]) == {(0, 1): (depth / 2) ** 2}
