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

import operator
import zlib
from dataclasses import FrozenInstanceError, dataclass, field, fields
from typing import Iterator, NamedTuple

import numpy as np

from ..core.node_table import accumulate_importance, node_table

__all__ = ["LEAF", "Tree", "accumulate_importance", "forest_fingerprint"]

#: Sentinel stored in ``Tree.feature`` for leaf nodes.
LEAF = -1


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
        if self.cover is None:
            self.cover = self.n_samples.astype(np.float64)
        n = len(self.feature)
        for f in fields(self):
            arr = getattr(self, f.name)
            if len(arr) != n:
                raise ValueError(f"array '{f.name}' has length {len(arr)}, expected {n}")
        if self.n_nodes == 0:
            raise ValueError("a tree must have at least one node")

    def __setstate__(self, state):
        # Pickle protocol 5 gives a frozen array back read-only: copy it.
        self.__dict__.update(
            (k, v if v.flags.writeable else v.copy()) for k, v in state.items()
        )

    def __setattr__(self, name, value):
        # Rebinding a frozen tree's array (see frozen_state) is a write too.
        if self.__dict__.get(name) is not None and not self.feature.flags.writeable:
            raise FrozenInstanceError(f"cannot rebind {name!r} of a frozen Tree")
        super().__setattr__(name, value)

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
        """Depth of the deepest leaf (root has depth 0), from the level sweep."""
        return len(node_table([self]).levels) - 1

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


def _forest_fingerprint(trees, init_score: float) -> int:
    """Structural checksum covering everything prediction depends on."""
    # One crc32 of the joined bytes equals the chained crc32s ledgers key on.
    arrays = [np.float64(init_score), np.int64(len(trees))] + [
        np.ascontiguousarray(arr)
        for tree in trees
        for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    ]
    return zlib.crc32(b"".join(arrays))


#: The ``model.__dict__`` key of a fitted forest's :class:`FrozenForest`.
STATE_KEY = "_bitvector_state"
#: A :class:`FrozenForest` field not computed yet.
PENDING = object()


class FrozenForest(NamedTuple):
    """``(init_score_, n_features_, *trees_)`` frozen, with the encoding
    (``None``: declined), fingerprint and node table filled on first
    request, with no lock: racing writers store equal values, and a lost
    fill is redone."""

    identity: tuple
    encoded: object = PENDING
    fingerprint: object = PENDING
    table: object = PENDING


def frozen_state(model, name: str, compute):
    """Field ``name`` of the model's :class:`FrozenForest`, computed once
    by ``compute(init_score, n_features, *trees)``.

    The state holds while ``trees_`` has the same :class:`Tree` objects in
    order and ``init_score_``/``n_features_`` are the same objects, an O(T)
    check a refit and new, appended or deleted trees fail.  Freezing makes
    every node array read-only, so a write into a used tree raises.  A
    ``compute`` may fill other fields first (packing reads the table)."""
    identity = (model.init_score_, getattr(model, "n_features_", None), *model.trees_)
    state = model.__dict__.get(STATE_KEY)
    if state is None or len(state.identity) != len(identity) or not all(
        map(operator.is_, state.identity, identity)
    ):
        for tree in identity[2:]:
            for f in fields(tree):
                getattr(tree, f.name).setflags(write=False)
        state = model.__dict__[STATE_KEY] = FrozenForest(identity)
    value = getattr(state, name)
    if value is PENDING:
        value = compute(*state.identity)
        current = model.__dict__.get(STATE_KEY)
        if current is not None and current.identity is state.identity:
            state = current
        model.__dict__[STATE_KEY] = state._replace(**{name: value})
    return value


def forest_fingerprint(model) -> int:
    """The structural fingerprint (crc32) of a fitted forest.

    Covers everything prediction depends on (tree structure, thresholds,
    leaf values, init score), so two forests with equal fingerprints are
    interchangeable for serving.  The model registry, the surrogate cache
    and the ledger key on it; it is computed once per :func:`frozen_state`.
    """
    if not getattr(model, "trees_", None):
        raise ValueError("model is not fitted")
    return frozen_state(model, "fingerprint", lambda i, _, *t: _forest_fingerprint(t, i))
