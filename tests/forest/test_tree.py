"""Tests for the array-based Tree structure."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.feature_selection import feature_thresholds
from repro.core.validate import validate_forest
from repro.forest import LEAF, Tree
from repro.forest.tree import accumulate_importance


def make_stump(feature=0, threshold=0.5, left_value=-1.0, right_value=1.0):
    """A single split with two leaves."""
    return Tree(
        feature=np.array([feature, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([threshold, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.0, left_value, right_value]),
        gain=np.array([2.5, 0.0, 0.0]),
        n_samples=np.array([10, 6, 4], dtype=np.int64),
    )


def make_two_level():
    """Root splits on x0, left child splits on x1."""
    return Tree(
        feature=np.array([0, 1, LEAF, LEAF, LEAF], dtype=np.int32),
        threshold=np.array([0.5, 0.25, 0.0, 0.0, 0.0]),
        left=np.array([1, 3, -1, -1, -1], dtype=np.int32),
        right=np.array([2, 4, -1, -1, -1], dtype=np.int32),
        value=np.array([0.0, 0.0, 3.0, 1.0, 2.0]),
        gain=np.array([4.0, 1.5, 0.0, 0.0, 0.0]),
        n_samples=np.array([12, 8, 4, 5, 3], dtype=np.int64),
    )


def make_descending_chain():
    """A chain 0 -> 5 -> 4 -> 3 -> 2 of tests on features 0..4.

    Every child below the root has a *smaller* id than its parent, which
    is a valid tree: nothing may assume children come after parents.
    """
    feature = np.full(11, LEAF, np.int32)
    left = np.full(11, -1, np.int32)
    right = np.full(11, -1, np.int32)
    for f, (node, child, leaf) in enumerate(
        [(0, 5, 1), (5, 4, 6), (4, 3, 7), (3, 2, 8), (2, 9, 10)]
    ):
        feature[node], left[node], right[node] = f, child, leaf
    # Training rows per node: each leaf holds its own count, tests sum.
    n_samples = np.array([0, 3, 0, 0, 0, 0, 5, 2, 4, 6, 1], np.int64)
    for node, child, leaf in [(2, 9, 10), (3, 2, 8), (4, 3, 7), (5, 4, 6), (0, 5, 1)]:
        n_samples[node] = n_samples[child] + n_samples[leaf]
    return Tree(
        feature=feature,
        threshold=np.array([0.5, 0, 0.1, 0.3, 0.7, 0.2, 0, 0, 0, 0, 0]),
        left=left,
        right=right,
        value=np.array([0, -1.0, 0, 0, 0, 0, 2.0, 0.5, -3.0, 4.0, 1.5]),
        gain=np.where(feature != LEAF, 1.0, 0.0),
        n_samples=n_samples,
    )


class TestTreeStructure:
    def test_counts(self):
        tree = make_two_level()
        assert tree.n_nodes == 5
        assert tree.n_leaves == 3
        assert tree.max_depth == 2

    def test_max_depth_with_children_before_parents(self):
        tree = make_descending_chain()
        validate_forest(SimpleNamespace(trees_=[tree], n_features_=5, init_score_=0.0))
        assert tree.max_depth == 5
        assert Tree.single_leaf(1.0).max_depth == 0

    def test_single_leaf(self):
        tree = Tree.single_leaf(7.0, n_samples=3)
        assert tree.n_leaves == 1
        assert tree.predict(np.zeros((4, 2))).tolist() == [7.0] * 4

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Tree(
                feature=np.array([LEAF], dtype=np.int32),
                threshold=np.array([0.0, 1.0]),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                value=np.array([0.0]),
                gain=np.array([0.0]),
                n_samples=np.array([1], dtype=np.int64),
            )

    def test_cover_defaults_to_n_samples(self):
        tree = make_stump()
        np.testing.assert_array_equal(tree.cover, tree.n_samples.astype(float))

    def test_used_features(self):
        assert make_two_level().used_features() == {0, 1}


class TestTreePrediction:
    def test_stump_routing(self):
        tree = make_stump(threshold=0.5)
        X = np.array([[0.4], [0.5], [0.6]])
        # x <= threshold goes left (including equality).
        np.testing.assert_array_equal(tree.predict(X), [-1.0, -1.0, 1.0])

    def test_two_level_routing(self):
        tree = make_two_level()
        X = np.array(
            [[0.4, 0.2], [0.4, 0.3], [0.6, 0.0]]
        )
        np.testing.assert_array_equal(tree.predict(X), [1.0, 2.0, 3.0])

    def test_apply_returns_leaf_ids(self):
        tree = make_two_level()
        leaves = tree.apply(np.array([[0.4, 0.2], [0.9, 0.9]]))
        assert leaves.tolist() == [3, 2]

    def test_decision_path(self):
        tree = make_two_level()
        assert tree.decision_path(np.array([0.4, 0.2])) == [0, 1, 3]
        assert tree.decision_path(np.array([0.9, 0.9])) == [0, 2]

    def test_predict_1d_input(self):
        tree = make_stump()
        assert tree.predict(np.array([0.1])) == -1.0


class TestTreeIntrospection:
    def test_split_thresholds(self):
        forest = SimpleNamespace(trees_=[make_two_level()], n_features_=3)
        per_feature = feature_thresholds(forest)
        assert per_feature[0].tolist() == [0.5]
        assert per_feature[1].tolist() == [0.25]
        assert per_feature[2].size == 0

    def test_feature_gains(self):
        gains = accumulate_importance([make_two_level()], 3, "gain")
        np.testing.assert_allclose(gains, [4.0, 1.5, 0.0])

    def test_internal_nodes(self):
        assert list(make_two_level().internal_nodes()) == [0, 1]


class TestTreeSerialization:
    def test_round_trip(self):
        tree = make_two_level()
        clone = Tree.from_dict(tree.to_dict())
        X = np.random.default_rng(0).uniform(0, 1, (50, 2))
        np.testing.assert_array_equal(tree.predict(X), clone.predict(X))
        np.testing.assert_array_equal(tree.gain, clone.gain)
        np.testing.assert_array_equal(tree.n_samples, clone.n_samples)

    def test_dict_is_json_safe(self):
        import json

        payload = json.dumps(make_two_level().to_dict())
        clone = Tree.from_dict(json.loads(payload))
        assert clone.n_nodes == 5

    def test_from_dict_rejects_a_mismatched_cover(self):
        data = Tree.single_leaf(1.0).to_dict()
        data["cover"] = [1.0, 2.0, 3.0]
        with pytest.raises(ValueError, match="'cover' has length 3, expected 1"):
            Tree.from_dict(data)
