"""The forest as one flat node table, swept level by level from all roots.

Structure-only passes (Count-/Gain-Path, bitvector packing, tree depth,
TreeSHAP's leaf paths) run over one concatenation of every tree's nodes
in a fixed number of numpy calls per tree level.  Nothing assumes that a child's id is larger
than its parent's.  The input must be a forest (``core/validate.py``
checks malformed input): unreached nodes keep ``parent == -1``, and a
cycle raises ``ValueError`` instead of looping.  Only numpy is imported,
so ``repro.forest`` can import this module at load time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["NodeTable", "node_table"]


@dataclass(frozen=True)
class NodeTable:
    """Every tree's nodes concatenated, with global ids and the level sweep.

    ``left``/``right`` hold global child ids on test nodes and ``-1`` on
    leaves, ``tree`` each node's tree index; ``levels[d]`` lists the
    depth-``d`` nodes of every tree, so ``levels[0]`` are the roots.
    """

    feature: np.ndarray
    threshold: np.ndarray
    gain: np.ndarray
    value: np.ndarray
    internal: np.ndarray
    left: np.ndarray
    right: np.ndarray
    tree: np.ndarray
    parent: np.ndarray
    levels: list[np.ndarray]


def node_table(trees) -> NodeTable:
    """Build the :class:`NodeTable` of ``trees`` (objects with node arrays)."""
    sizes = np.array([len(t.feature) for t in trees], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    tree = np.repeat(np.arange(len(trees)), sizes)
    feature, threshold, gain, value, left, right = (
        np.concatenate([np.asarray(getattr(t, a)) for t in trees])
        for a in ("feature", "threshold", "gain", "value", "left", "right")
    )
    internal = feature != -1  # forest.tree.LEAF
    left = np.where(internal, left + offsets[tree], -1)
    right = np.where(internal, right + offsets[tree], -1)
    n = int(offsets[-1])
    parent = np.full(n, -1, dtype=np.int64)
    levels = []
    frontier = offsets[:-1]
    while frontier.size:
        # A forest has at most n levels of at most n distinct nodes each.
        if frontier.size > n or len(levels) > n:
            raise ValueError("not a forest: the level sweep found a cycle")
        levels.append(frontier)
        inner = frontier[internal[frontier]]
        frontier = np.concatenate([left[inner], right[inner]])
        parent[frontier] = np.concatenate([inner, inner])
    return NodeTable(
        feature, threshold, gain, value, internal, left, right, tree, parent, levels
    )
