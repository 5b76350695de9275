"""Tests for the forest's flat node table and its level sweep."""

import numpy as np
import pytest

from repro.core.node_table import node_table
from repro.forest import LEAF, Tree
from tests.forest.test_bitvector import random_tree, shuffle_node_ids
from tests.forest.test_tree import make_descending_chain


def _depths(tree):
    """Per-node depth by an explicit stack walk (the reference)."""
    depth = np.full(tree.n_nodes, -1)
    stack = [(0, 0)]
    while stack:
        node, d = stack.pop()
        depth[node] = d
        if tree.feature[node] != LEAF:
            stack += [(int(tree.left[node]), d + 1), (int(tree.right[node]), d + 1)]
    return depth


class TestNodeTable:
    def test_levels_and_parents_on_shuffled_ids(self):
        rng = np.random.default_rng(0)
        trees = [shuffle_node_ids(random_tree(n, rng), rng) for n in (1, 7, 40, 3)]
        trees.append(make_descending_chain())
        table = node_table(trees)
        offsets = np.cumsum([0] + [t.n_nodes for t in trees])
        assert np.array_equal(table.levels[0], offsets[:-1])
        depth = np.concatenate([_depths(t) for t in trees])
        for d, level in enumerate(table.levels):
            assert np.array_equal(np.sort(level), np.flatnonzero(depth == d))
        for k, tree in enumerate(trees):
            parents = table.parent[offsets[k] : offsets[k + 1]]
            assert parents[0] == -1
            for node in np.flatnonzero(tree.feature != LEAF):
                for child in (tree.left[node], tree.right[node]):
                    assert parents[child] == offsets[k] + node
                assert table.left[offsets[k] + node] == offsets[k] + tree.left[node]

    def test_cycle_raises_instead_of_looping(self):
        # Node 1's left child is the root: the sweep would never end.
        tree = Tree(
            feature=np.array([0, 1, LEAF, LEAF], np.int32),
            threshold=np.zeros(4),
            left=np.array([1, 0, -1, -1], np.int32),
            right=np.array([3, 2, -1, -1], np.int32),
            value=np.zeros(4),
            gain=np.ones(4),
            n_samples=np.ones(4, np.int64),
        )
        with pytest.raises(ValueError, match="root is referenced"):
            node_table([tree])

    def test_leaf_only_tree_with_extra_nodes_has_an_orphan(self):
        # A stub whose one tree is two leaves: the root reaches node 0 only.
        stub = Tree(
            feature=np.array([LEAF, LEAF], np.int32),
            threshold=np.zeros(2),
            left=np.array([-1, -1], np.int32),
            right=np.array([-1, -1], np.int32),
            value=np.zeros(2),
            gain=np.zeros(2),
            n_samples=np.ones(2, np.int64),
        )
        with pytest.raises(
            ValueError, match="tree 0: orphan node 1 is unreachable from the root"
        ):
            node_table([stub])
