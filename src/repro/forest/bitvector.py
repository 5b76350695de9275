"""Traversal-free bitvector forest evaluation (QuickScorer-style).

The per-tree loop *walks* every tree — one gather per level per row.
This module removes the walk entirely by re-encoding each tree as
threshold-sorted **false-node bitmasks** (Lucchese et al.'s QuickScorer
family, the same authors as the source paper): prediction becomes
branch-free columnar numpy work with no level-by-level descent and no
per-node branching.

Encoding
--------
Number each tree's leaves left-to-right (in-order), so every subtree's
leaves form one contiguous bit range.  For an internal node testing
``x[f] <= t``, a *false* outcome sends the row right, making the left
subtree's leaves unreachable — so the node's mask is all-ones except the
left-subtree bit range.  Evaluating a row against a tree is then:

1. start from the tree's init vector (low ``n_leaves`` bits set),
2. AND in the mask of every condition that evaluates false,
3. the lowest surviving set bit *is* the exit leaf (QuickScorer's
   theorem), found with ``v & -v`` plus ``frexp``.

Conditions are organized per feature and sorted by threshold.  Because
``x[f] <= t`` is false exactly when ``t < x[f]``, the false conditions of
feature ``f`` for a row are a *prefix* of that sorted order, located with
one ``np.searchsorted`` per feature.  NaN and ``+inf`` sort past every
threshold (every condition false — always right) and ``-inf`` before all
of them (always left), matching IEEE comparison semantics bit-for-bit.

To turn the per-row prefix into one AND per feature, packing
precomputes, for every feature, a **prefix-mask table**: row ``p`` holds,
for every tree, the AND of that tree's masks among the first ``p``
sorted conditions (built with a scatter plus one
``np.bitwise_and.accumulate``).  Evaluation per feature is then a single
contiguous row gather (``np.take(table, pos, axis=0)``) and one AND into
the (row, tree) accumulator — the whole forest evaluates in
``n_features`` passes regardless of depth.

Mask words adapt to the forest: ``uint32`` for trees up to 32 leaves
(halving table traffic — the paper's ``num_leaves=31`` shape), one
``uint64`` word up to 64 leaves, and multi-word ``uint64`` lanes above
that (up to :data:`MAX_LEAF_WORDS` words).  Forests that exceed the word
budget or whose prefix tables would exceed :data:`MAX_TABLE_BYTES`
decline encoding and run through the per-tree loop (see
:mod:`repro.forest.engines`).

The reduction replays the exact sequential accumulation order of the
per-tree loop via a cumulative sum, so bitvector and loop outputs are
bit-for-bit equal.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.numerics import NumericsError, assert_all_finite, strict_enabled
from ..obs.metrics import get_metrics, inc as metric_inc, observe as metric_observe
from ..obs.trace import monotonic as obs_monotonic, span as obs_span
from .tree import LEAF, Tree, _forest_fingerprint

__all__ = [
    "MAX_LEAF_WORDS",
    "MAX_TABLE_BYTES",
    "BitvectorForest",
    "bitvector_for",
    "invalidate_bitvector",
]

# Per-model bitvector caches (model.__dict__["_bitvector_state"]) are
# guarded by _pack_lock; the module holds no other mutable state.
_pack_lock = threading.Lock()

#: Trees wider than ``64 * MAX_LEAF_WORDS`` leaves decline packing.
MAX_LEAF_WORDS = 8

#: Prefix-mask tables above this many bytes decline packing (the
#: per-tree loop then takes over).
MAX_TABLE_BYTES = 256 * 1024 * 1024


def _leaf_order(tree: Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left-to-right leaf numbering and per-node subtree leaf ranges.

    Returns ``(leaf_nodes, lo, hi)``: node ids of the leaves in
    left-to-right order, and for every node the half-open range
    ``[lo, hi)`` of leaf numbers its subtree covers.
    """
    n = tree.n_nodes
    feat, left, right = tree.feature, tree.left, tree.right
    lo = np.zeros(n, dtype=np.int64)
    hi = np.zeros(n, dtype=np.int64)
    leaf_nodes: list[int] = []
    # Iterative DFS: first visit assigns ``lo``, the post-visit (after
    # both children) assigns ``hi``; leaves get numbered on sight.
    stack: list[tuple[int, bool]] = [(0, False)]
    while stack:
        node, done = stack.pop()
        if done:
            hi[node] = len(leaf_nodes)
            continue
        lo[node] = len(leaf_nodes)
        if feat[node] == LEAF:
            leaf_nodes.append(node)
            hi[node] = len(leaf_nodes)
            continue
        stack.append((node, True))
        stack.append((int(right[node]), False))
        stack.append((int(left[node]), False))
    return np.asarray(leaf_nodes, dtype=np.int64), lo, hi


def _range_mask_words(lb: int, le: int, n_words: int, width: int) -> list[int]:
    """All-ones words with bits ``[lb, le)`` cleared, low word first."""
    full = (1 << (width * n_words)) - 1
    mask = full ^ (((1 << (le - lb)) - 1) << lb)
    word_max = (1 << width) - 1
    return [(mask >> (width * w)) & word_max for w in range(n_words)]


class BitvectorForest:
    """One forest encoded as per-feature threshold-sorted prefix masks.

    Build with :meth:`pack`; it returns ``None`` when the forest cannot
    be encoded (non-finite thresholds, too many leaves per tree, or
    prefix tables over the byte budget), in which case dispatch falls
    back to the per-tree loop.
    """

    def __init__(self):
        self.n_trees = 0
        self.n_features = 0
        self.init_score = 0.0
        self.fingerprint = 0
        self.n_words = 1
        self.word_bits = 64
        self.feat_thr: list[np.ndarray] = []
        self.tables: list[np.ndarray | None] = []
        self.table_bytes = 0

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls, trees: list[Tree], init_score: float, n_features: int
    ) -> "BitvectorForest | None":
        """Encode ``trees`` into a :class:`BitvectorForest`; ``None`` if unsupported."""
        if not trees or n_features < 1:
            return None
        max_leaves = 0
        for tree in trees:
            internal = tree.feature != LEAF
            if internal.any() and not np.all(np.isfinite(tree.threshold[internal])):
                return None
            max_leaves = max(max_leaves, tree.n_leaves)
        if max_leaves > 64 * MAX_LEAF_WORDS:
            return None

        self = cls()
        self.n_trees = len(trees)
        self.n_features = int(n_features)
        self.init_score = float(init_score)
        self.fingerprint = _forest_fingerprint(trees, init_score)
        if max_leaves <= 32:
            self.word_bits, self.n_words, dtype = 32, 1, np.uint32
        elif max_leaves <= 64:
            self.word_bits, self.n_words, dtype = 64, 1, np.uint64
        else:
            self.word_bits, dtype = 64, np.uint64
            self.n_words = -(-max_leaves // 64)
        width, n_words = self.word_bits, self.n_words

        # Walk every tree once: leaf order, leaf values, conditions.
        per_feat_thr: list[list[float]] = [[] for _ in range(n_features)]
        per_feat_tree: list[list[int]] = [[] for _ in range(n_features)]
        per_feat_mask: list[list[list[int]]] = [[] for _ in range(n_features)]
        init_words = np.empty((self.n_trees, n_words), dtype)
        leaf_parts: list[np.ndarray] = []
        leaf_off = np.empty(self.n_trees, np.int64)
        offset = 0
        n_conditions = 0
        for ti, tree in enumerate(trees):
            leaf_nodes, lo, hi = _leaf_order(tree)
            leaf_parts.append(tree.value[leaf_nodes])
            leaf_off[ti] = offset
            offset += leaf_nodes.size
            n_leaves = leaf_nodes.size
            init_words[ti] = [
                (1 << min(max(n_leaves - width * w, 0), width)) - 1
                for w in range(n_words)
            ]
            for node in np.flatnonzero(tree.feature != LEAF):
                f = int(tree.feature[node])
                lchild = int(tree.left[node])
                per_feat_thr[f].append(float(tree.threshold[node]))
                per_feat_tree[f].append(ti)
                per_feat_mask[f].append(
                    _range_mask_words(int(lo[lchild]), int(hi[lchild]), n_words, width)
                )
                n_conditions += 1
        self.leaf_values = np.concatenate(leaf_parts)
        self.leaf_offsets = leaf_off
        self.init_vec = init_words

        # Byte budget: every feature's prefix table is (C_f + 1, T, W).
        itemsize = np.dtype(dtype).itemsize
        table_bytes = sum(
            (len(v) + 1) * self.n_trees * n_words * itemsize
            for v in per_feat_thr
            if v
        )
        if table_bytes > MAX_TABLE_BYTES:
            return None
        self.table_bytes = int(table_bytes)

        # Per-feature prefix-mask tables: scatter each condition's mask at
        # its sorted position, then one bitwise-AND prefix scan.
        self.feat_thr = []
        self.tables = []
        for f in range(n_features):
            thr = np.asarray(per_feat_thr[f], dtype=np.float64)
            if thr.size == 0:
                self.feat_thr.append(thr)
                self.tables.append(None)
                continue
            order = np.argsort(thr, kind="stable")
            self.feat_thr.append(thr[order])
            table = np.full(
                (thr.size + 1, self.n_trees, n_words),
                (1 << width) - 1,
                dtype=dtype,
            )
            tree_idx = np.asarray(per_feat_tree[f], dtype=np.int64)[order]
            masks = np.asarray(per_feat_mask[f], dtype=np.uint64)[order].astype(dtype)
            table[1 + np.arange(thr.size), tree_idx, :] = masks
            np.bitwise_and.accumulate(table, axis=0, out=table)
            if n_words == 1:
                table = np.ascontiguousarray(table[:, :, 0])
            self.tables.append(table)
        self.n_conditions = int(n_conditions)
        return self

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def digitize(self, X: np.ndarray) -> np.ndarray:
        """False-condition prefix lengths per (row, feature).

        One ``searchsorted`` per feature with conditions: the result
        counts thresholds strictly below the row value — exactly the
        conditions that evaluate false (ties are true, matching
        ``x <= t``; NaN sorts past everything and goes all-right).
        """
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self.n_features:
            raise ValueError(  # repro: allow(raise-outside-taxonomy) harness misuse, not a pipeline failure
                f"X has {X.shape[1]} features, forest expects {self.n_features}"
            )
        pos = np.zeros(X.shape, np.int64)
        searched = 0
        for f in range(self.n_features):
            if self.feat_thr[f].size:
                pos[:, f] = np.searchsorted(self.feat_thr[f], X[:, f], side="left")
                searched += 1
        metric_inc("bitvector.searchsorted", searched)
        return pos

    def _eval_rows(
        self,
        pos: np.ndarray,
        out: np.ndarray | None,
        out_values: np.ndarray | None,
        chunk: int,
    ) -> None:
        """Evaluate every row; write reduced scores and/or leaf values."""
        T, W = self.n_trees, self.n_words
        dtype = self.init_vec.dtype
        features = [f for f in range(self.n_features) if self.tables[f] is not None]
        single = W == 1
        if single:
            acc = np.empty((chunk, T), dtype)
            buf = np.empty((chunk, T), dtype)
        else:
            acc = np.empty((chunk, T, W), dtype)
            buf = np.empty((chunk, T, W), dtype)
        low = np.empty((chunk, T), dtype)
        mant = np.empty((chunk, T), np.float64)
        expo = np.empty((chunk, T), np.int32)
        flat = np.empty((chunk, T), np.int64)
        vals = np.empty((chunk, T))
        red = np.empty((chunk, T + 1))
        init_row = self.init_vec[:, 0] if single else self.init_vec
        leaf_off = self.leaf_offsets
        pv = self.leaf_values
        n_rows = pos.shape[0]
        for clo in range(0, n_rows, chunk):
            chi = min(clo + chunk, n_rows)
            R = chi - clo
            a = acc[:R]
            a[:] = init_row
            for f in features:
                b = buf[:R]
                np.take(self.tables[f], pos[clo:chi, f], axis=0, out=b)
                np.bitwise_and(a, b, out=a)
            if single:
                word = a
            else:
                # First non-empty word per (row, tree); the surviving
                # exit-leaf bit makes at least one word non-zero.  (buf is
                # free after the AND loop, so borrow its word-0 plane.)
                word = buf[:R, :, 0]
                word[:] = a[:, :, 0]
                base = np.zeros((R, T), np.int64)
                remaining = word == 0
                for w in range(1, W):
                    if not remaining.any():
                        break
                    nxt = a[:, :, w]
                    take = remaining & (nxt != 0)
                    word[take] = nxt[take]
                    base[take] = 64 * w
                    remaining &= ~take
            lb = low[:R]
            np.negative(word, out=lb)
            np.bitwise_and(word, lb, out=lb)
            if strict_enabled() and not lb.all():
                raise NumericsError(
                    "bitvector exit-leaf invariant violated: a (row, tree) "
                    "pair retained no candidate leaf"
                )
            m, e = mant[:R], expo[:R]
            np.frexp(lb.astype(np.float64), m, e)
            fl = flat[:R]
            np.subtract(e, 1, out=e)
            np.add(e, leaf_off[None, :], out=fl, casting="unsafe")
            if not single:
                np.add(fl, base, out=fl)
            v = vals[:R]
            np.take(pv, fl, out=v)
            if out_values is not None:
                out_values[:, clo:chi] = v.T
            if out is not None:
                r = red[:R]
                r[:, 0] = self.init_score
                r[:, 1:] = v
                np.cumsum(r, axis=1, out=r)
                out[clo:chi] = r[:, -1]

    def _auto_chunk(self) -> int:
        """Largest power-of-two chunk keeping ~256k (row, tree, word) lanes.

        Big forests get small chunks (the accumulator stays cache
        resident while the prefix tables stream); small forests get big
        chunks (fewer per-chunk setups and reductions).
        """
        lanes = max(self.n_trees * self.n_words, 1)
        chunk = 64
        while chunk < 4096 and chunk * 2 * lanes <= 262144:
            chunk *= 2
        return chunk

    def _evaluate(
        self,
        X: np.ndarray,
        out_values: np.ndarray | None = None,
        chunk: int | None = None,
    ) -> np.ndarray | None:
        if chunk is None:
            chunk = self._auto_chunk()
        if chunk < 1 or chunk & (chunk - 1):
            raise ValueError(  # repro: allow(raise-outside-taxonomy) harness misuse, not a pipeline failure
                "chunk must be a positive power of two"
            )
        pos = self.digitize(X)
        N = pos.shape[0]
        out = None if out_values is not None else np.empty(N)
        if N:
            self._eval_rows(pos, out, out_values, chunk)
        if out is not None:
            assert_all_finite(out, "bitvector predict reduction")
        if out_values is not None:
            assert_all_finite(out_values, "bitvector leaf-value matrix")
        return out

    def predict_raw(self, X: np.ndarray, chunk: int | None = None) -> np.ndarray:
        """``init + sum of trees`` for every row, bitwise equal to the loop."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        metric_inc("predict.rows", X.shape[0])
        with obs_span(
            "bitvector.predict", rows=int(X.shape[0]), trees=int(self.n_trees)
        ):
            metric_inc("bitvector.mask_words", self.n_words)
            return self._evaluate(X, chunk=chunk)

    def leaf_value_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf values, shape ``(n_trees, n_rows)`` (staged helper)."""
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        values = np.empty((self.n_trees, X.shape[0]))
        self._evaluate(X, out_values=values)
        return values

    def staged_predict_raw(self, X: np.ndarray):
        """Yield the raw score after each tree, bitwise equal to the loop."""
        values = self.leaf_value_matrix(X)
        raw = np.full(values.shape[1], self.init_score)
        for t in range(self.n_trees):
            raw = raw + values[t]
            yield raw.copy()

    # ------------------------------------------------------------------
    # flat-buffer export (shared-memory serving fleet)
    # ------------------------------------------------------------------
    def export_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """The bitvector forest as flat buffers plus scalar metadata.

        Every buffer evaluation reads is returned under a stable key (the
        ragged per-feature threshold lists and prefix tables use
        ``"feat_thr:<f>"`` / ``"table:<f>"`` keys; features without
        conditions simply have no entry), and :meth:`from_state` rebuilds
        an equivalent engine from views over those buffers — typically
        shared-memory views placed by :mod:`repro.serve.shm`.
        """
        arrays: dict[str, np.ndarray] = {
            "leaf_values": self.leaf_values,
            "leaf_offsets": self.leaf_offsets,
            "init_vec": self.init_vec,
        }
        for f in range(self.n_features):
            if self.tables[f] is not None:
                arrays[f"feat_thr:{f}"] = self.feat_thr[f]
                arrays[f"table:{f}"] = self.tables[f]
        meta = {
            "n_trees": self.n_trees,
            "n_features": self.n_features,
            "init_score": self.init_score,
            "fingerprint": self.fingerprint,
            "n_words": self.n_words,
            "word_bits": self.word_bits,
            "table_bytes": self.table_bytes,
            "n_conditions": self.n_conditions,
        }
        return arrays, meta

    @classmethod
    def from_state(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "BitvectorForest":
        """Rebuild a :class:`BitvectorForest` from :meth:`export_state` output.

        The arrays are adopted as-is (typically read-only shared-memory
        views); evaluation never writes into them, so the rebuilt engine
        is bitwise identical to the exporting one.
        """
        self = cls()
        self.n_trees = int(meta["n_trees"])
        self.n_features = int(meta["n_features"])
        self.init_score = float(meta["init_score"])
        self.fingerprint = int(meta["fingerprint"])
        self.n_words = int(meta["n_words"])
        self.word_bits = int(meta["word_bits"])
        self.table_bytes = int(meta["table_bytes"])
        self.n_conditions = int(meta["n_conditions"])
        self.leaf_values = arrays["leaf_values"]
        self.leaf_offsets = arrays["leaf_offsets"]
        self.init_vec = arrays["init_vec"]
        self.feat_thr = []
        self.tables = []
        for f in range(self.n_features):
            table = arrays.get(f"table:{f}")
            if table is None:
                self.feat_thr.append(np.empty(0, dtype=np.float64))
                self.tables.append(None)
            else:
                self.feat_thr.append(arrays[f"feat_thr:{f}"])
                self.tables.append(table)
        return self


# ----------------------------------------------------------------------
# model integration: cached encoding and invalidation
# ----------------------------------------------------------------------
def invalidate_bitvector(model) -> None:
    """Drop a model's cached :class:`BitvectorForest` (after mutating it)."""
    with _pack_lock:
        model.__dict__.pop("_bitvector_state", None)


def bitvector_for(model) -> BitvectorForest | None:
    """The up-to-date :class:`BitvectorForest` of a fitted forest model.

    Re-encodes when the model's structural fingerprint changed since the
    last call; returns ``None`` when the forest cannot be encoded.
    """
    trees = getattr(model, "trees_", None)
    if not trees:
        return None
    fingerprint = _forest_fingerprint(trees, model.init_score_)
    with _pack_lock:
        state = model.__dict__.get("_bitvector_state")
        if state is not None and state[0] == fingerprint:
            return state[1]
    # Pack outside the lock (it is the expensive part); a concurrent
    # packer may race us, but both produce equivalent objects and the
    # last write simply wins.
    registry = get_metrics()
    t0 = obs_monotonic() if registry is not None else 0.0
    with obs_span("bitvector.pack", n_trees=len(trees)):
        encoded = BitvectorForest.pack(
            trees, model.init_score_, int(model.n_features_)
        )
    if registry is not None:
        metric_inc("pack.count")
        metric_observe("pack.seconds", obs_monotonic() - t0)
        if encoded is not None:
            metric_observe("bitvector.table_bytes", encoded.table_bytes)
        else:
            metric_inc("bitvector.declined")
    with _pack_lock:
        model.__dict__["_bitvector_state"] = (fingerprint, encoded)
    return encoded

