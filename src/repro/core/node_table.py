"""The forest as one flat node table: the one structural pass over a forest.

Validation, F' and V_i, Count-/Gain-Path, bitvector packing, tree depths
and TreeSHAP's leaf paths read one concatenation of every tree's nodes,
swept level by level from all roots in a fixed number of numpy calls per
level; a fitted forest keeps its table in its frozen state.  The build is
GEF's structural contract: it never indexes out of range or loops, and a
forest it cannot walk raises
:class:`~repro.core.errors.ForestValidationError`.  Nothing assumes that
a child's id is larger than its parent's, and no forest code is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.trace import span as obs_span
from .errors import ForestValidationError

__all__ = ["NodeTable", "accumulate_importance", "forest_table", "node_table"]

#: Sentinel marking leaves in ``Tree.feature`` (``forest.tree.LEAF``).
_LEAF = -1

#: Per-node arrays of a tree, ``feature`` first (the others match its length).
_ARRAYS = ("feature", "threshold", "left", "right", "value", "gain")


@dataclass(frozen=True)
class NodeTable:
    """Every tree's nodes concatenated, with global ids and the level sweep.

    ``left``/``right`` hold global child ids on test nodes and ``-1`` on
    leaves, ``tree`` each node's tree index; ``levels[d]`` lists the
    depth-``d`` nodes of every tree, so ``levels[0]`` are the roots.
    ``n_samples`` is ``None`` unless every tree has one per node, and
    ``defect`` names the first non-finite threshold, gain or leaf value.
    """

    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray | None
    internal: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tree: np.ndarray
    parent: np.ndarray
    levels: list[np.ndarray]
    defect: str | None

    @property
    def n_trees(self) -> int:
        """Number of trees (one root each)."""
        return len(self.levels[0])


def node_table(trees, n_features: int | None = None) -> NodeTable:
    """Build the :class:`NodeTable` of ``trees`` (objects with node arrays).

    Split features are range-checked against ``[0, n_features)`` when it
    is given.  A forest it cannot walk raises
    :class:`~repro.core.errors.ForestValidationError` (stage ``validate``)
    with the first defect of the lowest defective tree, in check order.
    """
    with obs_span("forest.table", n_trees=len(trees)):
        return _build(list(trees), None if n_features is None else int(n_features))


def _build(trees, n_features) -> NodeTable:
    # Array lengths are compared for all trees at once and the lowest bad
    # tree is named; the trees before it are concatenated and checked as
    # one forest.
    defect = shape_defect = None
    lens = np.array([[len(getattr(t, a)) for a in _ARRAYS] for t in trees], np.int64)
    lens = lens.reshape(-1, len(_ARRAYS))
    bad_shape = (lens[:, 0] == 0) | (lens != lens[:, :1]).any(axis=1)
    if bad_shape.any():
        index = int(np.argmax(bad_shape))
        n = lens[index, 0]
        bad = [f"array '{a}' has length {k}, expected {n}"
               for a, k in zip(_ARRAYS, lens[index]) if k != n]
        bad = bad if n else ["empty node arrays"]
        defect = shape_defect = f"tree {index}: {bad[0]}"
        trees, lens = trees[:index], lens[:index]
    if not trees:
        raise ForestValidationError(defect or "forest has no trees", stage="validate")
    sizes = lens[:, 0]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    starts, n = offsets[:-1], int(offsets[-1])
    tree = np.repeat(np.arange(len(trees)), sizes)
    local, size = np.arange(n) - offsets[tree], sizes[tree]
    feature, threshold, left, right, value, gain = (
        np.concatenate([getattr(t, a) for t in trees]) for a in _ARRAYS
    )
    counts = [getattr(t, "n_samples", ()) for t in trees]
    n_samples = None
    if all(len(c) == k for c, k in zip(counts, sizes.tolist())):
        n_samples = np.concatenate(counts)
    internal = feature != _LEAF
    tree_any = np.logical_or.reduceat  # per-tree "any" over node masks

    # Children are range-checked in tree-local ids; only the children of
    # trees that pass are re-based to global ids and counted.  The root is
    # nobody's child, every other node the child of exactly one test node:
    # one bincount excludes back-edges to the root and shared subtrees.
    bad_left, bad_right = (internal & ((c < 0) | (c >= size)) for c in (left, right))
    sound = internal & ~tree_any(bad_left | bad_right, starts)[tree]
    left_g, right_g = (np.where(sound, c + offsets[tree], -1) for c in (left, right))
    children = np.concatenate([left_g[sound], right_g[sound]])
    in_degree = np.bincount(children, minlength=n)
    root_cycle = (local == 0) & (in_degree > 0)
    # Level-synchronous sweep from the roots of every walkable tree: with
    # in-degree <= 1 it reaches each node once, and an unreached node of
    # a walkable tree, leaf-only or not, is an orphan.
    walkable = ~tree_any(bad_left | bad_right | root_cycle | (in_degree > 1), starts)
    reached = ~walkable[tree]
    parent = np.full(n, -1, dtype=np.int64)
    levels = []
    frontier = starts[walkable]
    while frontier.size:
        levels.append(frontier)
        reached[frontier] = True
        inner = frontier[internal[frontier]]
        frontier = np.concatenate([left_g[inner], right_g[inner]])
        parent[frontier] = np.concatenate([inner, inner])

    limit = np.inf if n_features is None else n_features
    # (mask, message, whether the forest can still be walked), in check order.
    checks = [
        (internal & ((feature < 0) | (feature >= limit)),
         "split feature index {feature} outside [0, {n_features})", False),
        (internal & ~np.isfinite(threshold), "non-finite split threshold", True),
        (internal & ~np.isfinite(gain), "non-finite split gain", True),
        (~internal & ~np.isfinite(value), "non-finite leaf value", True),
        (bad_left, "dangling child index {left} (tree has {size} nodes)", False),
        (bad_right, "dangling child index {right} (tree has {size} nodes)", False),
        (root_cycle, "cyclic structure: the root is referenced as a child", False),
        (in_degree > 1, "node {node} is referenced as a child {degree} times "
         "(cycle or shared subtree)", False),
        (~reached, "orphan node {node} is unreachable from the root", False),
    ]
    # Node ids grow with tree ids: a check's first node lies in its lowest
    # tree, so min() picks the lowest tree, then the earliest check.
    hits = [np.flatnonzero(mask) for mask, _, _ in checks]
    firsts = [(tree[h[0]], k, h[0]) for k, h in enumerate(hits) if h.size]
    if firsts:
        t, k, i = min(firsts)
        defect = f"tree {t}: " + checks[k][1].format(
            feature=feature[i], n_features=n_features, left=left[i], right=right[i],
            size=size[i], node=local[i], degree=in_degree[i],
        )
    if shape_defect or not all(checks[k][2] for _, k, _ in firsts):
        raise ForestValidationError(defect, stage="validate")
    return NodeTable(
        feature, threshold, gain, value, n_samples, internal, left_g, right_g,
        tree, parent, levels, defect,
    )


def forest_table(forest) -> NodeTable:
    """The node table of a forest-protocol object: a fitted forest's own,
    kept in its frozen state (``node_table()``), else a fresh one."""
    own = getattr(forest, "node_table", None)
    if own is not None:
        return own()
    return node_table(forest.trees_, getattr(forest, "n_features_", None))


def accumulate_importance(
    table: NodeTable | list, n_features: int, importance_type: str
) -> np.ndarray:
    """Per-feature gain sum or split count over a node table (or trees).

    The one implementation of the statistic: GEF's F' and Pair-Gain
    (``forest_feature_gains``), ``feature_importance`` and the forest
    summary all read it.  Gains are bincounted per (tree, feature) and
    then summed over trees in tree order; ``cumsum`` is sequential for
    every shape, where ``sum`` would add a contiguous axis pairwise.
    """
    if importance_type not in ("gain", "split"):
        raise ValueError("importance_type must be 'gain' or 'split'")
    if not isinstance(table, NodeTable):
        table = node_table(table, n_features)
    internal = table.internal
    feats = table.feature[internal]
    if importance_type == "split":
        return np.bincount(feats, minlength=n_features).astype(np.float64)
    per_tree = np.bincount(
        table.tree[internal] * n_features + feats,
        weights=table.gain[internal],
        minlength=table.n_trees * n_features,
    ).reshape(table.n_trees, n_features)
    return np.cumsum(per_tree, axis=0)[-1]
