"""Exact path-dependent TreeSHAP for the reproduction's forests.

This is the polynomial-time SHAP-value algorithm of Lundberg et al.,
*Consistent Individualized Feature Attribution for Tree Ensembles* — the
engine behind ``shap.TreeExplainer``, which the paper compares GEF
against.  It computes exact Shapley values of the conditional expectation
defined by the tree's own cover statistics (the "tree_path_dependent"
feature perturbation).

It runs in the path form of GPUTreeShap (Mitchell et al.): every leaf's
root path is read once from the forest's node table, with a repeated
feature merged into one element, and the algorithm's EXTEND and
UNWOUND-SUM steps then run for all paths of the forest at once,
vectorized over (rows x paths).  The test suite pins the result against
the per-row recursion of the original algorithm and against brute-force
Shapley enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.node_table import NodeTable, forest_table, node_table
from ..forest.tree import Tree

__all__ = ["TreeShapExplainer", "forest_expected_value"]

#: Most (row, path, element) lanes evaluated in one row chunk.  SHAP values
#: of 400 rows (one CPU of a 2-vCPU host, best of 5) with 2**17 / 2**18 /
#: 2**19 / 2**20 / 2**21 lanes took 471 / 518 / 529 / 556 / 484 ms on a
#: 200-tree, 6,400-leaf forest and 667 / 611 / 488 / 421 / 485 ms on a
#: 120-tree forest of depth up to 21, with traced peaks of 2.0 to 68.5 MB.
#: 2**19 is near the best of both at a 17 MB peak.
_LANES = 2**19


@dataclass(frozen=True)
class _PathGroup:
    """The leaf paths that share one count ``k`` of unique features.

    Arrays are ``(k, paths, 1)``: the feature of each element, its zero
    fraction ``z`` (the product of the cover ratios of its splits) and the
    bounds that make its one fraction 1: ``x <= hi`` (or ``free``, where no
    split went left) and ``not x <= lo`` (``lo`` is NaN where no split went
    right).  ``on`` and ``off`` scale an element's unwound sum into its
    contribution, ``(o - z) * leaf value * (k + 1)``, for o = 1 and o = 0.
    ``grow``, ``keep`` and ``unwind`` are the coefficients of EXTEND and
    UNWOUND-SUM, fixed by ``z`` alone (see :func:`_coefficients`).
    """

    feature: np.ndarray
    z: np.ndarray
    hi: np.ndarray
    free: np.ndarray
    lo: np.ndarray
    on: np.ndarray
    off: np.ndarray
    grow: tuple[np.ndarray, ...]
    keep: tuple[np.ndarray, ...]
    unwind: np.ndarray


def _coefficients(z: np.ndarray) -> dict:
    """EXTEND's and UNWOUND-SUM's row-independent factors for zero
    fractions ``z`` of shape ``(k, paths, 1)``.

    EXTEND step ``d`` (1..k) scales the weights it carries up by
    ``grow[d - 1] = j / (d + 1)`` (j = 1..d) and the weights it keeps by
    ``keep[d - 1] = z[d - 1] * (d - j) / (d + 1)`` (j = 0..d); step ``j``
    of UNWOUND-SUM multiplies by ``unwind[j] = z * (k - j)``.  Each is the
    expression the algorithm evaluates, so the results keep their bits.
    """
    k = z.shape[0]
    grow, keep = [], []
    for d in range(1, k + 1):
        j = np.arange(d + 1)[:, None, None]
        grow.append(j[1:] / (d + 1))
        keep.append(z[d - 1] * ((d - j) / (d + 1)))
    unwind = z[None] * (k - np.arange(k))[:, None, None, None]
    return {"grow": tuple(grow), "keep": tuple(keep), "unwind": unwind}


def _leaf_paths(table: NodeTable) -> list[_PathGroup]:
    """Every leaf's root path with repeated features merged, grouped by length.

    Paths are read bottom-up from the node table's parents in a fixed
    number of numpy calls per tree level.  A split sends ``x <= t`` left
    and everything else, NaN included, right, as :meth:`Tree.apply` does.
    """
    if table.n_samples is None:
        raise ValueError("TreeSHAP needs every tree's per-node n_samples")
    cover = table.n_samples.astype(np.float64)
    reached = np.concatenate(table.levels)
    leaves = reached[~table.internal[reached]]
    steps = []
    node, owner = leaves, np.arange(leaves.size)
    while node.size:
        parent = table.parent[node]
        up = parent >= 0
        node, owner, parent = node[up], owner[up], parent[up]
        steps.append((owner, table.feature[parent], cover[node] / cover[parent],
                      table.left[parent] == node, table.threshold[parent]))
        node = parent
    owner, feature, ratio, left, threshold = (
        np.concatenate(column) for column in zip(*steps)
    )
    order = np.lexsort((feature, owner))
    owner, feature, ratio, left, threshold = (
        a[order] for a in (owner, feature, ratio, left, threshold)
    )
    new = np.ones(owner.size, dtype=bool)
    new[1:] = (owner[1:] != owner[:-1]) | (feature[1:] != feature[:-1])
    starts = np.flatnonzero(new)
    merged = {
        "feature": feature[starts],
        "z": np.multiply.reduceat(ratio, starts),
        "hi": np.minimum.reduceat(np.where(left, threshold, np.inf), starts),
        "free": ~np.logical_or.reduceat(left, starts),
        "lo": np.fmax.reduceat(np.where(left, np.nan, threshold), starts),
    }
    # Elements are sorted by leaf, so leaf i owns a run of k[i] of them.
    k = np.bincount(owner[starts], minlength=leaves.size)
    first = np.cumsum(k) - k
    groups = []
    for length in np.unique(k[k > 0]):
        paths = np.flatnonzero(k == length)
        idx = (first[paths][None, :] + np.arange(length)[:, None])[:, :, None]
        scale = table.value[leaves[paths]][:, None] * (length + 1)
        element = {name: a[idx] for name, a in merged.items()}
        z = element["z"]
        # With o = 0 the unwound sum carries a factor 1 / z, cancelled here;
        # an element with z = 0 and o = 0 contributes nothing.
        groups.append(_PathGroup(
            **element, on=(1.0 - z) * scale, off=np.where(z > 0, -scale, 0.0),
            **_coefficients(z),
        ))
    return groups


def _group_shap(group: _PathGroup, Xt: np.ndarray) -> np.ndarray:
    """Per-element SHAP contributions of one path group, ``(k, paths, rows)``.

    ``Xt`` is the row chunk transposed, ``(n_features, rows)``.  Each
    (element, path, row) lane is computed independently of the others.
    """
    k = group.z.shape[0]
    x = Xt[group.feature[:, :, 0]]
    one = (x <= group.hi) | group.free
    one &= ~(x <= group.lo)
    # EXTEND: the root's dummy element (z = o = 1), then each element.
    w = np.zeros((k + 1,) + x.shape[1:])
    w[0] = 1.0
    for d, (grow, keep) in enumerate(zip(group.grow, group.keep), start=1):
        up = w[:d] * grow
        up *= one[d - 1]
        w[:d + 1] *= keep
        w[1:d + 1] += up
    # UNWOUND-SUM of every element at once, for a one fraction of 1 ...
    total_one = np.zeros_like(x)
    next_one = np.broadcast_to(w[k], x.shape).copy()
    for j in range(k - 1, -1, -1):
        next_one /= j + 1  # the reference's tmp, until the subtract below
        total_one += next_one
        next_one *= group.unwind[j]
        np.subtract(w[j], next_one, out=next_one)
    # ... and of 0, where the sum is z times one shared by all elements.
    total_zero = 0.0
    for j in range(k - 1, -1, -1):
        total_zero = total_zero + w[j] / (k - j)
    return np.where(one, total_one * group.on, total_zero * group.off)


def expected_tree_value(tree: Tree) -> float:
    """Cover-weighted mean leaf value (the tree's base prediction)."""
    return forest_expected_value([tree])


def forest_expected_value(table: NodeTable | list, init_score: float = 0.0) -> float:
    """Base prediction of a whole forest (node table or trees): init plus
    the per-tree cover-weighted leaf means, from three ``np.bincount``."""
    if not isinstance(table, NodeTable):
        table = node_table(table)
    leaves = ~table.internal
    ids, v, n = table.tree[leaves], table.value[leaves], table.n_trees
    w = table.n_samples[leaves].astype(np.float64)
    counts = np.bincount(ids, minlength=n)
    w_sum = np.bincount(ids, weights=w, minlength=n)
    wv_sum = np.bincount(ids, weights=w * v, minlength=n)
    v_sum = np.bincount(ids, weights=v, minlength=n)
    # Trees with no recorded cover fall back to the plain leaf mean.
    means = np.where(
        w_sum > 0,
        wv_sum / np.where(w_sum > 0, w_sum, 1.0),
        v_sum / np.maximum(counts, 1),
    )
    return float(init_score) + float(means.sum())


class TreeShapExplainer:
    """SHAP explainer for any model following the forest protocol.

    Parameters
    ----------
    forest:
        A fitted model with ``trees_``, ``init_score_`` and ``n_features_``
        (GBDTs and RFs from :mod:`repro.forest`).

    Notes
    -----
    Values explain the *raw* additive output (log-odds for classifiers),
    matching ``shap.TreeExplainer``'s default for LightGBM models.
    """

    def __init__(self, forest):
        if not getattr(forest, "trees_", None):
            raise ValueError("forest is not fitted")
        self.forest = forest
        self.n_features = int(forest.n_features_)
        table = forest_table(forest)
        self._groups = _leaf_paths(table)
        self.expected_value = forest_expected_value(table, forest.init_score_)
        elements = sum(g.z.size for g in self._groups)
        self._chunk = max(1, _LANES // max(elements, 1))

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """SHAP values for each row of ``X``; shape ``(n, n_features)``.

        A row's values do not depend on the other rows of ``X``: every
        lane is computed on its own and each row's contributions are
        added in one fixed order.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, forest expects {self.n_features}"
            )
        out = np.zeros((X.shape[0], self.n_features))
        for lo in range(0, X.shape[0], self._chunk):
            Xt = np.ascontiguousarray(X[lo:lo + self._chunk].T)
            rows = Xt.shape[1]
            cells = np.arange(rows) * self.n_features
            for group in self._groups:
                contrib = _group_shap(group, Xt)
                # bincount adds in input order: per row, element-major
                # then path, whatever the chunk holds.
                out[lo:lo + rows] += np.bincount(
                    (group.feature + cells).ravel(),
                    weights=contrib.ravel(),
                    minlength=rows * self.n_features,
                ).reshape(rows, self.n_features)
        return out

    def explain(self, x: np.ndarray) -> dict:
        """Waterfall-style local explanation of a single instance.

        Returns the base value, per-feature SHAP values sorted by magnitude,
        and the reconstructed model output.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        phi = self.shap_values(x[None, :])[0]
        order = np.argsort(-np.abs(phi))
        return {
            "base_value": self.expected_value,
            "shap_values": phi,
            "ranking": order,
            "prediction": self.expected_value + float(phi.sum()),
        }
