"""Human-readable forest dumps (the analyst's raw view of the white box).

GEF's premise is that the forest structure is fully visible to the
explainer.  These helpers render that structure: an indented per-tree view
with features, thresholds, gains and covers, and a compact per-forest
summary (tree sizes, depth distribution, threshold counts per feature).
"""

from __future__ import annotations

import numpy as np

from ..core.node_table import accumulate_importance, forest_table
from .tree import Tree

__all__ = ["dump_tree", "forest_summary"]


def dump_tree(
    tree: Tree,
    feature_names: list[str] | None = None,
    max_depth: int | None = None,
    precision: int = 4,
) -> str:
    """Indented text rendering of one tree.

    Internal nodes show ``feature <= threshold (gain, cover)``; leaves show
    their value and cover.  ``max_depth`` truncates deep branches with an
    ellipsis line.
    """

    def name(feature: int) -> str:
        if feature_names:
            return feature_names[feature]
        return f"x{feature}"

    lines: list[str] = []

    def recurse(node: int, depth: int) -> None:
        pad = "  " * depth
        if tree.is_leaf(node):
            lines.append(
                f"{pad}leaf: value={tree.value[node]:.{precision}g} "
                f"(n={tree.n_samples[node]})"
            )
            return
        if max_depth is not None and depth >= max_depth:
            lines.append(f"{pad}... ({tree.n_samples[node]} rows below)")
            return
        lines.append(
            f"{pad}{name(int(tree.feature[node]))} <= "
            f"{tree.threshold[node]:.{precision}g} "
            f"(gain={tree.gain[node]:.{precision}g}, n={tree.n_samples[node]})"
        )
        recurse(int(tree.left[node]), depth + 1)
        recurse(int(tree.right[node]), depth + 1)

    recurse(0, 0)
    return "\n".join(lines)


def forest_summary(forest, feature_names: list[str] | None = None) -> str:
    """Aggregate structural statistics of a fitted forest."""
    trees = getattr(forest, "trees_", None)
    if not trees:
        raise ValueError("forest is not fitted")
    n_features = int(forest.n_features_)

    table = forest_table(forest)
    leaves = np.bincount(table.tree[~table.internal], minlength=len(trees))
    depths = np.zeros(len(trees), dtype=np.int64)
    for depth, level in enumerate(table.levels):
        depths[table.tree[level]] = depth  # the last level a tree reaches
    split_counts = accumulate_importance(table, n_features, "split").astype(np.int64)
    gain_totals = accumulate_importance(table, n_features, "gain")

    def name(feature: int) -> str:
        if feature_names:
            return feature_names[feature]
        return f"x{feature}"

    lines = [
        f"{type(forest).__name__}: {len(trees)} trees, "
        f"init_score={forest.init_score_:.6g}",
        f"  leaves per tree: min={leaves.min()} median={int(np.median(leaves))} "
        f"max={leaves.max()}",
        f"  depth per tree:  min={depths.min()} median={int(np.median(depths))} "
        f"max={depths.max()}",
        f"  total splits: {int(split_counts.sum())}",
        "  per-feature splits / accumulated gain:",
    ]
    order = np.argsort(-gain_totals, kind="stable")
    for feature in order:
        if split_counts[feature] == 0:
            continue
        lines.append(
            f"    {name(int(feature)):<28s} {split_counts[feature]:>7d}   "
            f"{gain_totals[feature]:.6g}"
        )
    unused = int(np.sum(split_counts == 0))
    if unused:
        lines.append(f"    ({unused} features never used)")
    return "\n".join(lines)
