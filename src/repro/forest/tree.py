"""Array-based binary decision tree with white-box structural access.

GEF requires *full* knowledge of the forest structure: every test node's
feature and threshold, the loss reduction (gain) recorded when the node was
added, and the training cover of each node.  The :class:`Tree` here stores
all of that in flat numpy arrays, which makes prediction vectorizable and
the structure trivially serializable.

Conventions
-----------
* Node 0 is the root.
* Internal nodes test ``x[feature] <= threshold``; true goes left.
* ``feature[i] == -1`` marks node ``i`` as a leaf; its prediction is
  ``value[i]``.
* ``gain[i]`` is the training-loss reduction achieved by the split at node
  ``i`` (0 for leaves) and ``n_samples[i]`` / ``cover[i]`` are the number of
  training rows / the summed hessian reaching the node.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

__all__ = ["LEAF", "Tree", "accumulate_importance", "forest_fingerprint"]

#: Sentinel stored in ``Tree.feature`` for leaf nodes.
LEAF = -1


def accumulate_importance(
    trees: list["Tree"], n_features: int, importance_type: str
) -> np.ndarray:
    """Per-feature gain sum or split count over ``trees`` in one bincount.

    Shared by the GBDT and RF ``feature_importance`` methods; a single
    concatenation plus ``np.bincount`` replaces the per-node Python loops.
    """
    if importance_type not in ("gain", "split"):
        raise ValueError("importance_type must be 'gain' or 'split'")
    feats = np.concatenate([t.feature[t.feature != LEAF] for t in trees])
    if importance_type == "gain":
        weights = np.concatenate([t.gain[t.feature != LEAF] for t in trees])
    else:
        weights = None
    return np.bincount(feats, weights=weights, minlength=n_features).astype(
        np.float64
    )


@dataclass
class Tree:
    """A single binary decision tree over raw (unbinned) feature values."""

    feature: np.ndarray  # int32, LEAF for leaves
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32, child ids (undefined for leaves)
    right: np.ndarray  # int32
    value: np.ndarray  # float64, leaf predictions
    gain: np.ndarray  # float64, split gain (0 for leaves)
    n_samples: np.ndarray  # int64, training rows reaching the node
    cover: np.ndarray = field(default=None)  # float64, summed hessians

    def __post_init__(self):
        n = len(self.feature)
        for name in ("threshold", "left", "right", "value", "gain", "n_samples"):
            arr = getattr(self, name)
            if len(arr) != n:
                raise ValueError(f"array '{name}' has length {len(arr)}, expected {n}")
        if self.cover is None:
            self.cover = self.n_samples.astype(np.float64)
        if self.n_nodes == 0:
            raise ValueError("a tree must have at least one node")

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of nodes, internal plus leaves."""
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        return int(np.sum(self.feature == LEAF))

    def is_leaf(self, node: int) -> bool:
        """Whether node ``node`` is a leaf."""
        return self.feature[node] == LEAF

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root has depth 0)."""
        depth = np.zeros(self.n_nodes, dtype=np.int32)
        for node in range(self.n_nodes):
            if not self.is_leaf(node):
                depth[self.left[node]] = depth[node] + 1
                depth[self.right[node]] = depth[node] + 1
        return int(depth.max())

    @classmethod
    def single_leaf(cls, value: float, n_samples: int = 0) -> "Tree":
        """A degenerate tree that predicts a constant."""
        return cls(
            feature=np.array([LEAF], dtype=np.int32),
            threshold=np.array([0.0]),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            value=np.array([float(value)]),
            gain=np.array([0.0]),
            n_samples=np.array([n_samples], dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index reached by every row of ``X`` (vectorized descent).

        The active set is kept as compacted parallel arrays (``rows``,
        ``cur``) that shrink as rows hit leaves, so each level touches only
        the rows still descending instead of re-deriving masks over the
        full batch.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        node = np.zeros(X.shape[0], dtype=np.int32)
        if self.feature[0] == LEAF:
            return node
        rows = np.arange(X.shape[0])
        cur = node[rows]
        while rows.size:
            feats = self.feature[cur]
            go_left = X[rows, feats] <= self.threshold[cur]
            cur = np.where(go_left, self.left[cur], self.right[cur])
            at_leaf = self.feature[cur] == LEAF
            if at_leaf.any():
                node[rows[at_leaf]] = cur[at_leaf]
                keep = ~at_leaf
                rows = rows[keep]
                cur = cur[keep]
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Raw tree output for every row of ``X``."""
        return self.value[self.apply(X)]

    def decision_path(self, x: np.ndarray) -> list[int]:
        """Sequence of node ids visited by the single instance ``x``."""
        x = np.asarray(x, dtype=np.float64).ravel()
        path = [0]
        node = 0
        while not self.is_leaf(node):
            if x[self.feature[node]] <= self.threshold[node]:
                node = int(self.left[node])
            else:
                node = int(self.right[node])
            path.append(node)
        return path

    # ------------------------------------------------------------------
    # structural iteration (the information GEF consumes)
    # ------------------------------------------------------------------
    def internal_nodes(self) -> Iterator[int]:
        """Yield ids of all internal (split) nodes."""
        for node in range(self.n_nodes):
            if self.feature[node] != LEAF:
                yield node

    def split_thresholds(self, n_features: int) -> list[np.ndarray]:
        """Per-feature array of thresholds used by this tree (with repeats)."""
        out: list[list[float]] = [[] for _ in range(n_features)]
        for node in self.internal_nodes():
            out[self.feature[node]].append(float(self.threshold[node]))
        return [np.asarray(v, dtype=np.float64) for v in out]

    def feature_gains(self, n_features: int) -> np.ndarray:
        """Per-feature accumulated split gain within this tree."""
        internal = self.feature != LEAF
        return np.bincount(
            self.feature[internal], weights=self.gain[internal], minlength=n_features
        )

    def used_features(self) -> set[int]:
        """Set of feature indices appearing in any split of this tree."""
        return {int(self.feature[n]) for n in self.internal_nodes()}

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-python representation (JSON-serializable)."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "gain": self.gain.tolist(),
            "n_samples": self.n_samples.tolist(),
            "cover": self.cover.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Tree":
        """Inverse of :meth:`to_dict`."""
        return cls(
            feature=np.asarray(data["feature"], dtype=np.int32),
            threshold=np.asarray(data["threshold"], dtype=np.float64),
            left=np.asarray(data["left"], dtype=np.int32),
            right=np.asarray(data["right"], dtype=np.int32),
            value=np.asarray(data["value"], dtype=np.float64),
            gain=np.asarray(data["gain"], dtype=np.float64),
            n_samples=np.asarray(data["n_samples"], dtype=np.int64),
            cover=np.asarray(data["cover"], dtype=np.float64),
        )


def _forest_fingerprint(trees: list[Tree], init_score: float) -> int:
    """Cheap structural checksum covering everything prediction depends on."""
    h = zlib.crc32(np.float64(init_score).tobytes())
    h = zlib.crc32(np.int64(len(trees)).tobytes(), h)
    for tree in trees:
        for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.value):
            h = zlib.crc32(np.ascontiguousarray(arr), h)
    return h


def forest_fingerprint(model) -> int:
    """The structural fingerprint (crc32) of a fitted forest.

    Covers everything prediction depends on (tree structure, thresholds,
    leaf values, init score), so two forests with equal fingerprints are
    interchangeable for serving.  The bitvector encoding cache, the model
    registry, the surrogate cache and the ledger all key on this value.
    """
    trees = getattr(model, "trees_", None)
    if not trees:
        raise ValueError("model is not fitted")
    return _forest_fingerprint(trees, model.init_score_)
