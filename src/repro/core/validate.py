"""Forest and sampling-domain validation: GEF's input contract, enforced.

GEF is *data-free*: the trained forest structure is the only trusted
input, so before any sampling or fitting work is spent the pipeline
checks that the structure actually is a forest — child indices in range,
every node reachable from the root exactly once (no orphans, no cycles,
no diamond sharing), finite thresholds/gains on test nodes, finite leaf
values, and feature indices inside ``[0, n_features_)``.  The trees are
concatenated once and every check is one forest-wide pass (a bincount
over child references plus one level-synchronous reachability sweep from
all roots), so validation is O(total nodes) in a fixed number of numpy
calls, negligible next to a single D* labelling pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ForestValidationError, SamplingError

__all__ = ["ForestValidationReport", "validate_forest", "validate_domains"]

#: Sentinel marking leaves in ``Tree.feature`` (mirrors ``forest.tree.LEAF``;
#: duplicated here so ``core`` does not import ``forest`` at module load).
_LEAF = -1

#: Per-node arrays of a tree, ``feature`` first (the others match its length).
_ARRAYS = ("feature", "threshold", "left", "right", "value", "gain")


@dataclass
class ForestValidationReport:
    """Summary of a successful forest validation."""

    n_trees: int
    n_nodes: int
    n_leaves: int
    n_features: int

    def __str__(self) -> str:
        return (
            f"{self.n_trees} trees, {self.n_nodes} nodes "
            f"({self.n_leaves} leaves), {self.n_features} features: OK"
        )


def _invalid(message: str) -> ForestValidationError:
    return ForestValidationError(message, stage="validate")


def _scan_trees(trees, n_features: int) -> tuple[str | None, int]:
    """``(defect, n_leaves)``; ``defect`` is the lowest bad tree's message.

    Node array lengths are checked tree by tree, then the trees before the
    first ill-shaped one are concatenated and every other check runs over
    the whole forest at once.  The first of ``checks`` it fails names it.
    """
    defect = None
    for index, tree in enumerate(trees):
        n = len(tree.feature)
        lens = [(a, len(getattr(tree, a))) for a in _ARRAYS]
        bad = [f"array '{a}' has length {k}, expected {n}" for a, k in lens if k != n]
        if n == 0 or bad:
            defect = f"tree {index}: " + (bad[0] if n else "empty node arrays")
            trees = trees[:index]
            break
    if not trees:
        return defect, 0
    sizes = np.array([len(t.feature) for t in trees])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    tree_id = np.repeat(np.arange(len(trees)), sizes)
    local, size = np.arange(offsets[-1]) - offsets[tree_id], sizes[tree_id]
    starts, tree_any = offsets[:-1], np.logical_or.reduceat  # per-tree "any"
    feature, threshold, left, right, value, gain = (
        np.concatenate([np.asarray(getattr(t, a)) for t in trees]) for a in _ARRAYS
    )
    internal = feature != _LEAF
    # Children are range-checked in tree-local ids; only the children of
    # trees that pass are re-based to global ids and counted.
    bad_left, bad_right = (internal & ((c < 0) | (c >= size)) for c in (left, right))
    sound = internal & ~tree_any(bad_left | bad_right, starts)[tree_id]
    left_g, right_g = left + offsets[tree_id], right + offsets[tree_id]
    # Tree shape: the root is nobody's child, every other node is the
    # child of exactly one internal node.  This excludes back-edges to
    # the root and shared subtrees in one bincount.
    children = np.concatenate([left_g[sound], right_g[sound]])
    in_degree = np.bincount(children, minlength=offsets[-1])
    root_cycle = (local == 0) & (in_degree > 0)
    # Level-synchronous reachability from all roots at once, over trees
    # with a test node that pass the checks above: with in-degree <= 1
    # the sweep reaches each node once, and an unreached node is an orphan.
    swept = tree_any(sound, starts) & ~tree_any(root_cycle | (in_degree > 1), starts)
    reached = ~swept[tree_id]
    frontier = starts[swept]
    while frontier.size:
        reached[frontier] = True
        inner = frontier[internal[frontier]]
        frontier = np.concatenate([left_g[inner], right_g[inner]])
    bad_feature = internal & ((feature < 0) | (feature >= n_features))
    checks = [
        (bad_feature, "split feature index {feature} outside [0, {n_features})"),
        (internal & ~np.isfinite(threshold), "non-finite split threshold"),
        (internal & ~np.isfinite(gain), "non-finite split gain"),
        (~internal & ~np.isfinite(value), "non-finite leaf value"),
        (bad_left, "dangling child index {left} (tree has {size} nodes)"),
        (bad_right, "dangling child index {right} (tree has {size} nodes)"),
        (root_cycle, "cyclic structure: the root is referenced as a child"),
        (in_degree > 1, "node {node} is referenced as a child {degree} times "
         "(cycle or shared subtree)"),
        (~reached, "orphan node {node} is unreachable from the root"),
    ]
    # Node ids grow with tree ids: a check's first node lies in its lowest
    # tree, so min() picks the lowest tree, then the earliest check.
    hits = [(np.flatnonzero(mask), message) for mask, message in checks]
    firsts = [(tree_id[h[0]], k, h[0]) for k, (h, _) in enumerate(hits) if h.size]
    if firsts:
        tree, k, i = min(firsts)
        defect = f"tree {tree}: " + checks[k][1].format(
            feature=feature[i], n_features=n_features, left=left[i], right=right[i],
            size=size[i], node=local[i], degree=in_degree[i],
        )
    return defect, int(offsets[-1] - np.count_nonzero(internal))


def validate_forest(forest) -> ForestValidationReport:
    """Check the forest structure against the GEF input contract.

    Verifies that the forest is fitted, reports a positive
    ``n_features_``, and that every tree is a well-formed binary tree
    with in-range child/feature indices and finite thresholds, gains and
    leaf values.  Raises :class:`~repro.core.errors.ForestValidationError`
    (naming the first offending tree and node) on any violation; returns
    a :class:`ForestValidationReport` on success.
    """
    trees = getattr(forest, "trees_", None)
    if not trees:
        raise _invalid("forest is not fitted (empty trees_)")
    n_features = getattr(forest, "n_features_", None)
    if n_features is None:
        raise _invalid("forest does not report n_features_")
    n_features = int(n_features)
    if n_features < 1:
        raise _invalid(f"forest reports n_features_ = {n_features}; need >= 1")
    init = getattr(forest, "init_score_", 0.0)
    if init is not None and not np.isfinite(float(init)):
        raise _invalid("forest init_score_ is not finite")
    defect, n_leaves = _scan_trees(trees, n_features)
    if defect is not None:
        raise _invalid(defect)
    return ForestValidationReport(
        n_trees=len(trees),
        n_nodes=sum(len(t.feature) for t in trees),
        n_leaves=n_leaves,
        n_features=n_features,
    )


def validate_domains(domains: dict[int, np.ndarray], n_features: int) -> None:
    """Sanity-check sampling domains before D* generation.

    Every domain must belong to a feature in ``[0, n_features)`` and be a
    non-empty, finite, strictly increasing 1-D array.  Raises
    :class:`~repro.core.errors.SamplingError` on the first violation.
    """
    if not domains:
        raise SamplingError("no sampling domains to draw from", stage="domains")
    for feature, domain in domains.items():
        if not 0 <= int(feature) < n_features:
            raise SamplingError(
                f"domain feature {feature} outside [0, {n_features})",
                stage="domains",
            )
        arr = np.asarray(domain, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise SamplingError(
                f"feature {feature}: sampling domain must be a non-empty "
                f"1-D array",
                stage="domains",
            )
        if not np.all(np.isfinite(arr)):
            raise SamplingError(
                f"feature {feature}: sampling domain contains non-finite "
                f"values",
                stage="domains",
            )
        if arr.size >= 2 and not np.all(np.diff(arr) > 0):
            raise SamplingError(
                f"feature {feature}: sampling domain is not strictly "
                f"increasing",
                stage="domains",
            )
