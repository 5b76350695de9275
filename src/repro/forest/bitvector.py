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
leaves form one contiguous bit range.  The numbering comes from the
level sweep of the forest's node table (:mod:`repro.core.node_table`):
subtree leaf counts bottom-up, then each subtree's first leaf number
top-down, a fixed number of numpy calls per level for the whole forest.
For an internal node testing ``x[f] <= t``, a *false* outcome sends the
row right, making the left subtree's leaves unreachable — so the node's
mask is all-ones except the left-subtree bit range.  Evaluating a row
against a tree is then:

1. start from the tree's init vector (low ``n_leaves`` bits set),
2. AND in the mask of every condition that evaluates false,
3. the lowest surviving set bit *is* the exit leaf (QuickScorer's
   theorem), isolated with ``v & -v``; its index is the float64
   exponent of that power of two (see Evaluation).

Conditions are organized per feature and sorted by threshold.  Because
``x[f] <= t`` is false exactly when ``t < x[f]``, the false conditions of
feature ``f`` for a row are a *prefix* of that sorted order, located with
one ``np.searchsorted`` per feature.  NaN and ``+inf`` sort past every
threshold (every condition false — always right) and ``-inf`` before all
of them (always left), matching IEEE comparison semantics bit-for-bit.
On D*, whose columns are codes into sampling domains of at most ``k``
values, :meth:`BitvectorForest.digitize` searches each domain value once
and gathers the positions by code.

To turn the per-row prefix into one AND per feature, packing
precomputes, for every feature, a **prefix-mask table**: row ``p`` holds,
for every tree, the AND of that tree's masks among the first ``p``
sorted conditions (built with a scatter plus one
``np.bitwise_and.accumulate``).  Evaluation per feature is then a single
contiguous row gather (``np.take(table, pos, axis=0)``) and one AND into
the (row, tree) accumulator — the whole forest evaluates in at most
``n_features`` passes regardless of depth.

**Joint tables.**  A gather costs one table row of ``T`` lanes however
few rows the table has, and many features of a wide tabular forest have
tables of a few dozen rows (census: 50 features with conditions, most
with 2-35 rows).  So features are packed in **groups**, each with one
joint table: the AND-product of its features' tables, row-major in the
group's feature order, indexed by ``Σ pos_f · stride_f``.  AND is exact
and associative, so one gather + AND per group gives the bits of the
per-feature passes.  Groups form greedily, smallest table first, while
the product of a group's row counts stays within :data:`JOINT_ROWS` and
all tables within :data:`MAX_TABLE_BYTES`; a feature with a large table
is a group of one, whose joint table is its own table.  The bench census
forest packs 50 features into 31 groups (tables 1.8 → 3.9 MB); the
spline and serve forests, whose tables all have over 500 and 200 rows,
form only groups of one.

Mask words adapt to the forest: ``uint32`` for trees up to 32 leaves
(halving table traffic — the paper's ``num_leaves=31`` shape), one
``uint64`` word up to 64 leaves, and multi-word ``uint64`` lanes above
that (up to :data:`MAX_LEAF_WORDS` words).  Forests that exceed the word
budget or whose prefix tables would exceed :data:`MAX_TABLE_BYTES`
decline encoding and run through the per-tree loop (see
:mod:`repro.forest.engines`).

Evaluation
----------
Rows run in chunks sized by :meth:`BitvectorForest._auto_chunk` to about
64k (row, tree, word) lanes, so the accumulators stay cache resident
while the prefix tables stream; working buffers are sized to
``min(chunk, n_rows)``, so a one-row call allocates one row.  First,
every group of several features turns its features' positions into
joint-table rows (one small integer matvec per group, none for groups of
one).  Then per chunk one gather + AND per group, and:

* **Exit leaf.**  The isolated bit ``2**k`` is copied once from
  ``(R, T)`` to tree-major ``(T, R)``, converting to float64 in the same
  copy (exact for a power of two).  Its biased exponent ``k + 1023``
  sits in bits 52..62: view the float64 as int64 and shift right by 52.
  The ``-1023`` is folded into the per-tree leaf offsets, added in
  place, so after the copy every step runs in one dtype on contiguous
  memory.  ``np.copyto`` converts a transposed view with numpy's strided
  cast loops; a ufunc whose operands need a cast, such as an int32 +
  int64 transposing add, runs through casting buffers instead (82-91 µs
  per 256-row × 200-tree chunk, against 37-55 µs for the converting
  copy).
* **Unbuffered gathers.**  numpy buffers the ``out`` of a ``take`` in
  its default ``mode="raise"``: it gathers into a temporary and copies
  it over.  The table and leaf-value takes pass ``mode="clip"``, since
  their indices are in range by construction: ``searchsorted``
  positions are at most ``C_f``, joint rows are smaller than their
  table, and a leaf index stays inside its tree whenever the exit-leaf
  invariant holds (checked under strict numerics).  Unpickling rejects
  a state whose shapes would break this.
* **Reduction.**  Leaf values are gathered into one tree-major
  ``(T + 1, R)`` buffer whose row 0 is the init score, and
  ``np.add.reduce(axis=0)`` sums it: the buffer is C-contiguous, so the
  reduced axis is the outer loop and every row adds
  ``((init + v_0) + v_1) + ...``, the loop's own order — bitvector and
  loop outputs are bit-for-bit equal.  The one exception is a one-row
  chunk (``R == 1``): its reduced axis is contiguous, and numpy sums a
  contiguous axis pairwise, which changes the low bits, so that chunk
  keeps ``np.cumsum(axis=0)`` (sequential for any shape).

Staged (per-tree running) scores are not computed here: staged
prediction runs the per-tree loop, the reference this engine matches.

The ``bitvector.eval`` span carries ``gather_s`` (gather + AND) and
``reduce_s`` (exit leaf, leaf values and reduction), summed over chunks.

:func:`bitvector_for` encodes a model once, into the frozen state that
also holds its fingerprint (:func:`repro.forest.tree.frozen_state`).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import ForestValidationError
from ..core.node_table import NodeTable, forest_table, node_table
from ..core.numerics import NumericsError, assert_all_finite, strict_enabled
from ..obs.metrics import inc as metric_inc, observe as metric_observe
from ..obs.trace import monotonic as obs_monotonic, span as obs_span
from .tree import STATE_KEY, Tree, frozen_state

__all__ = [
    "JOINT_ROWS",
    "MAX_LEAF_WORDS",
    "MAX_TABLE_BYTES",
    "BitvectorForest",
    "bitvector_for",
    "invalidate_model_caches",
]

#: Trees wider than ``64 * MAX_LEAF_WORDS`` leaves decline packing.
MAX_LEAF_WORDS = 8

#: Prefix-mask tables above this many bytes decline packing (the
#: per-tree loop then takes over).
MAX_TABLE_BYTES = 256 * 1024 * 1024

#: Largest joint prefix table, in rows, that a group of features shares.
#: Labelling 5,000 coded rows with the bench census forest (120 trees,
#: 50 features with conditions, one CPU of a 2-vCPU host, best of 15):
#: caps of 1 (no groups) / 256 / 1024 / 4096 / 16384 rows gave 50 / 37 /
#: 31 / 25 / 21 gathers, 31.7 / 25.8 / 24.8 / 22.7 / 20.3 ms and
#: 1.8 / 2.4 / 3.9 / 12.3 / 38.0 MB of tables.  1024 takes most of the
#: gain while the tables stay about twice the per-feature ones.
JOINT_ROWS = 1024


#: ``_LOW_BITS[n] == (1 << n) - 1`` for ``0 <= n <= 64``: a lookup, because
#: numpy shifts a ``uint64`` modulo 64 and ``1 << 64`` would wrap to ``1``.
_LOW_BITS = np.array([(1 << n) - 1 for n in range(65)], dtype=np.uint64)


def _init_vec(n_leaves: np.ndarray, width: int, n_words: int) -> np.ndarray:
    """Per-tree init words: the low ``n_leaves[t]`` bits set, ``(T, W)``."""
    shift = width * np.arange(n_words)
    dtype = np.uint32 if width == 32 else np.uint64
    return _LOW_BITS[np.clip(n_leaves[:, None] - shift, 0, width)].astype(dtype)


def _group_features(rows: dict[int, int], row_bytes: int) -> list[list[int]]:
    """Greedy feature groups for the joint prefix tables.

    ``rows`` maps every feature with conditions to its prefix-table row
    count.  Features join the open group smallest table first (ties by
    feature index) while the product of the group's row counts stays
    within :data:`JOINT_ROWS` and all tables together within
    :data:`MAX_TABLE_BYTES`; otherwise they open a new group.  A forest
    whose per-feature tables fit the budget therefore always encodes.
    """
    total = sum(rows.values())
    groups: list[list[int]] = []
    product = 0
    for n, f in sorted((n, f) for f, n in rows.items()):
        grown = total + product * n - product - n
        if (
            groups
            and product * n <= JOINT_ROWS
            and grown * row_bytes <= MAX_TABLE_BYTES
        ):
            groups[-1].append(int(f))
            product *= n
            total = grown
        else:
            groups.append([int(f)])
            product = n
    return groups


class BitvectorForest:
    """One forest encoded as threshold-sorted prefix masks.

    ``feat_thr[f]`` holds feature ``f``'s sorted thresholds, and
    ``tables[g]`` the joint prefix table of the features ``groups[g]``.
    Build with :meth:`pack`; it returns ``None`` when the forest cannot
    be encoded (non-finite thresholds, too many leaves per tree, or
    prefix tables over the byte budget), in which case dispatch falls
    back to the per-tree loop.  :meth:`pack` sets every attribute.

    An engine pickles as its attributes minus the derived joint strides.
    The serving fleet pickles it with protocol 5 and ships its arrays out
    of band in shared memory (:mod:`repro.serve.shm`); unpickling adopts
    them as they are, checks the state and re-derives the strides.
    """

    # ------------------------------------------------------------------
    # packing
    # ------------------------------------------------------------------
    @classmethod
    def pack(
        cls, trees: list[Tree], init_score: float, n_features: int,
        table: NodeTable | None = None,
    ) -> "BitvectorForest | None":
        """Encode ``trees`` (node table ``table``, built when not given) into
        a :class:`BitvectorForest`; ``None`` if unsupported."""
        if not trees or n_features < 1:
            return None
        if table is None:
            table = node_table(trees, n_features)
        internal = table.internal
        if not np.all(np.isfinite(table.threshold[internal])):
            return None
        # Number every tree's leaves left to right over the level sweep:
        # subtree leaf counts bottom-up, then each subtree's first leaf
        # number ``lo`` top-down.
        left, right = table.left, table.right
        count = np.zeros(table.feature.size, np.int64)
        for level in reversed(table.levels):
            inner = level[internal[level]]
            count[level[~internal[level]]] = 1
            count[inner] = count[left[inner]] + count[right[inner]]
        lo = np.zeros_like(count)
        for level in table.levels:
            inner = level[internal[level]]
            lo[left[inner]] = lo[inner]
            lo[right[inner]] = lo[inner] + count[left[inner]]
        n_leaves = count[table.levels[0]]
        max_leaves = int(n_leaves.max())
        if max_leaves > 64 * MAX_LEAF_WORDS:
            return None

        self = cls()
        self.n_trees = len(trees)
        self.n_features = int(n_features)
        self.init_score = float(init_score)
        # uint32 up to 32 leaves, then as many uint64 words as needed.
        self.word_bits = width = 32 if max_leaves <= 32 else 64
        self.n_words = n_words = -(-max_leaves // 64)
        dtype = np.uint32 if width == 32 else np.uint64

        self.leaf_offsets = leaf_off = np.concatenate([[0], np.cumsum(n_leaves)[:-1]])
        leaves = np.flatnonzero(~internal & (count > 0))
        self.leaf_values = np.empty(int(n_leaves.sum()))
        self.leaf_values[leaf_off[table.tree[leaves]] + lo[leaves]] = table.value[leaves]
        self.init_vec = _init_vec(n_leaves, width, n_words)

        # A condition's mask clears its left subtree's leaf range; word w
        # of a leaf range [lb, le) covers bits [lb - w*width, le - w*width).
        shift = width * np.arange(n_words)
        cond = np.flatnonzero(internal)
        lchild = left[cond]
        lb = np.clip(lo[lchild][:, None] - shift, 0, width)
        le = np.clip((lo[lchild] + count[lchild])[:, None] - shift, 0, width)
        word_max = (1 << width) - 1
        masks = ~(_LOW_BITS[le] ^ _LOW_BITS[lb]) & np.uint64(word_max)

        # Byte budget: every feature's prefix table is (C_f + 1, T, W).
        per_feature = np.bincount(table.feature[cond], minlength=n_features)
        row_bytes = self.n_trees * n_words * np.dtype(dtype).itemsize
        rows = cond.size + np.count_nonzero(per_feature)
        if int(rows) * row_bytes > MAX_TABLE_BYTES:
            return None

        # Per-feature prefix-mask tables: conditions grouped by feature and
        # sorted by threshold (ties keep (tree, node) order), each mask
        # scattered at its sorted position, then one bitwise-AND prefix scan.
        order = np.lexsort((table.threshold[cond], table.feature[cond]))
        thr = table.threshold[cond][order]
        tree_idx = table.tree[cond][order]
        masks = masks[order].astype(dtype)
        bounds = np.concatenate([[0], np.cumsum(per_feature)])
        self.feat_thr = []
        prefix_tables = {}
        for f in range(n_features):
            a, b = bounds[f], bounds[f + 1]
            self.feat_thr.append(thr[a:b])
            if a == b:
                continue
            prefix = np.full((b - a + 1, self.n_trees, n_words), word_max, dtype)
            prefix[1 + np.arange(b - a), tree_idx[a:b], :] = masks[a:b]
            np.bitwise_and.accumulate(prefix, axis=0, out=prefix)
            if n_words == 1:
                prefix = np.ascontiguousarray(prefix[:, :, 0])
            prefix_tables[f] = prefix

        # Joint tables: each group's table is the AND-product of its
        # features' tables, row-major in the group's feature order.
        self.groups = _group_features(
            {f: t.shape[0] for f, t in prefix_tables.items()}, row_bytes
        )
        self.tables = []
        for group in self.groups:
            joint = prefix_tables[group[0]]
            for f in group[1:]:
                nxt = prefix_tables[f]
                joint = (joint[:, None] & nxt[None, :]).reshape(-1, *nxt.shape[1:])
            self.tables.append(joint)
        self.table_bytes = sum(t.nbytes for t in self.tables)
        self._set_strides()
        return self

    def _set_strides(self) -> None:
        """Joint-row strides of every group of several features, with its
        lead (first) feature: row ``Σ pos_f · stride_f``, the last stride 1."""
        self._joint = []
        for group in self.groups:
            if len(group) > 1:
                sizes = [self.feat_thr[f].size + 1 for f in group]
                strides = np.cumprod([1] + sizes[:0:-1])[::-1]
                self._joint.append((group[0], np.array(group), strides))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def digitize(self, X: np.ndarray, coding=None) -> np.ndarray:
        """False-condition prefix lengths per (row, feature).

        One ``searchsorted`` per feature with conditions: the result
        counts thresholds strictly below the row value — exactly the
        conditions that evaluate false (ties are true, matching
        ``x <= t``; NaN sorts past everything and goes all-right).
        ``coding`` is ``None`` or a ``(domains, codes)`` pair of
        per-feature dicts with ``X[:, f] == domains[f][codes[f]]`` (D*):
        a coded feature searches its domain values once and gathers
        their positions by code, with the same result.
        """
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        if X.shape[1] != self.n_features:
            raise ValueError(  # repro: allow(raise-outside-taxonomy) harness misuse, not a pipeline failure
                f"X has {X.shape[1]} features, forest expects {self.n_features}"
            )
        domains, codes = coding if coding is not None else ({}, {})
        pos = np.zeros(X.shape, np.int64)
        with obs_span("bitvector.digitize", rows=int(X.shape[0])):
            for f in range(self.n_features):
                thr = self.feat_thr[f]
                if not thr.size:
                    continue
                if f in codes:
                    pos[:, f] = thr.searchsorted(domains[f], side="left")[codes[f]]
                else:
                    pos[:, f] = thr.searchsorted(X[:, f], side="left")
        return pos

    def _eval_rows(
        self, pos: np.ndarray, out: np.ndarray, chunk: int
    ) -> tuple[float, float]:
        """Evaluate every row into ``out``: ``init + sum of trees``.

        ``pos`` holds :meth:`digitize` positions and is overwritten: each
        group of several features gets its joint-table rows in its lead
        feature's column.  Returns the seconds spent in gather + AND and
        in exit leaf + reduction.
        """
        T, W = self.n_trees, self.n_words
        dtype = self.init_vec.dtype
        for lead, features, strides in self._joint:
            pos[:, lead] = pos[:, features] @ strides
        groups = [(group[0], table) for group, table in zip(self.groups, self.tables)]
        single = W == 1
        n_rows = pos.shape[0]
        chunk = min(chunk, n_rows)
        lanes = (chunk, T) if single else (chunk, T, W)
        acc = np.empty(lanes, dtype)
        buf = np.empty(lanes, dtype)
        low = np.empty((chunk, T), dtype)
        # Tree-major from the exit-leaf bit on: flat buffers reshaped per
        # chunk to (T, R) and (T + 1, R), so a short last chunk stays
        # contiguous too.
        leaf = np.empty(T * chunk)
        red = np.empty((T + 1) * chunk)
        init_row = self.init_vec[:, 0] if single else self.init_vec
        # 2**k as float64 has biased exponent k + 1023 in bits 52..62.
        leaf_off = (self.leaf_offsets - 1023)[:, None]
        pv = self.leaf_values
        gather_s = reduce_s = 0.0
        for clo in range(0, n_rows, chunk):
            t0 = obs_monotonic()
            chi = min(clo + chunk, n_rows)
            R = chi - clo
            a = acc[:R]
            a[:] = init_row
            for lead, table in groups:
                b = buf[:R]
                table.take(pos[clo:chi, lead], axis=0, out=b, mode="clip")
                np.bitwise_and(a, b, out=a)
            t1 = obs_monotonic()
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
            # One transposing copy that also converts (exact: lb is a power
            # of two); after it, every step is in place in one dtype.
            lf = leaf[: T * R].reshape(T, R)
            np.copyto(lf, lb.T)
            fl = lf.view(np.int64)
            np.right_shift(fl, 52, out=fl)
            np.add(fl, leaf_off, out=fl)
            if not single:
                np.add(fl, base.T, out=fl)
            r = red[: (T + 1) * R].reshape(T + 1, R)
            r[0] = self.init_score
            pv.take(fl, out=r[1:], mode="clip")
            if R > 1:
                # The reduced axis is the outer loop of this C-contiguous
                # buffer: every row adds its trees in loop order.
                np.add.reduce(r, axis=0, out=out[clo:chi])
            else:
                # One row makes the reduced axis contiguous, and numpy
                # would sum it pairwise; cumsum keeps the loop order.
                np.cumsum(r, axis=0, out=r)
                out[clo:chi] = r[-1]
            t2 = obs_monotonic()
            gather_s += t1 - t0
            reduce_s += t2 - t1
        return gather_s, reduce_s

    def _auto_chunk(self) -> int:
        """Largest power-of-two chunk keeping ~64k (row, tree, word) lanes.

        65,536 lanes keep the accumulators in cache while the prefix
        tables stream: 256 rows at 200 trees, 512 at 120.  Small forests
        get big chunks (fewer per-chunk setups), up to 4096 rows.
        Labelling 20k coded rows with the bench spline forest (200
        trees) over chunks of 64-4096 rows (one CPU of a 2-vCPU host,
        median of 15, two sweeps) was fastest at 256 (33.9-36.8 ms;
        128-512 within 3 ms, 64 and 1024 40-44 ms, 2048 and up 53-70 ms),
        and 5k census rows (120 trees) at 512 (14.7-17.1 ms; 256 and 1024
        within 4 ms, 64 and 4096 22-38 ms).  The chunk never
        changes a bit: rows are independent, and the reduction adds each
        row's trees in loop order whatever ``R`` is (see the module
        docstring for the one-row case).
        """
        lanes = max(self.n_trees * self.n_words, 1)
        chunk = 64
        while chunk < 4096 and chunk * 2 * lanes <= 65536:
            chunk *= 2
        return chunk

    def predict_raw(self, X: np.ndarray, coding=None) -> np.ndarray:
        """``init + sum of trees`` for every row, bitwise equal to the loop.

        ``coding`` codes ``X`` by domain value (see :meth:`digitize`).
        """
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        N = X.shape[0]
        metric_inc("predict.rows", N)
        with obs_span("bitvector.predict", rows=N, trees=self.n_trees):
            pos = self.digitize(X, coding)
            out = np.empty(N)
            if N:
                with obs_span("bitvector.eval", rows=N) as eval_span:
                    chunk = self._auto_chunk()
                    gather_s, reduce_s = self._eval_rows(pos, out, chunk)
                    eval_span.set(gather_s=gather_s, reduce_s=reduce_s)
            assert_all_finite(out, "bitvector predict reduction")
            return out

    # ------------------------------------------------------------------
    # pickling (shared-memory serving fleet)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_joint"}

    def __setstate__(self, state: dict) -> None:
        # The arrays are adopted as they are (read-only shared-memory views
        # in a fleet worker); evaluation never writes into them.
        self.__dict__.update(state)
        self._check_state()
        self._set_strides()

    def _check_state(self) -> None:
        """Reject an unpickled state whose gathers could leave their arrays.

        Evaluation gathers with ``mode="clip"``, which clamps an index
        past the end instead of raising, so a malformed state would read
        wrong rows silently.  Every index stays in range when the groups
        partition the features with conditions, every joint table has one
        row per position combination and ``(T, W)`` lanes, and the leaf
        offsets tile ``leaf_values`` with the leaf counts of ``init_vec``.
        """
        T, W = self.n_trees, self.n_words
        dtype = np.uint32 if self.word_bits == 32 else np.uint64
        lanes = (T,) if W == 1 else (T, W)
        if len(self.tables) != len(self.groups):
            raise ForestValidationError(
                f"bitvector state: {len(self.tables)} tables for "
                f"{len(self.groups)} groups"
            )
        conditioned = [f for f, thr in enumerate(self.feat_thr) if thr.size]
        if sorted(f for group in self.groups for f in group) != conditioned:
            raise ForestValidationError(
                "bitvector state: groups do not partition the features "
                "with conditions"
            )
        for g, (group, table) in enumerate(zip(self.groups, self.tables)):
            rows = int(np.prod([self.feat_thr[f].size + 1 for f in group]))
            if table.dtype != dtype or table.shape != (rows, *lanes):
                raise ForestValidationError(
                    f"bitvector state: table {g} is {table.dtype} "
                    f"{table.shape}, expected {np.dtype(dtype)} {(rows, *lanes)}"
                )
        off = self.leaf_offsets
        tiled = off.shape == (T,) and T > 0 and off[0] == 0
        if tiled:
            counts = np.diff(off, append=self.leaf_values.size)
            tiled = (
                bool(np.all(counts >= 1))
                and self.init_vec.dtype == dtype
                and np.array_equal(self.init_vec, _init_vec(counts, self.word_bits, W))
            )
        if not tiled:
            raise ForestValidationError(
                "bitvector state: leaf_offsets are not n_trees increasing "
                "offsets tiling leaf_values with init_vec's leaf counts"
            )


# ----------------------------------------------------------------------
# model integration: the encoding in the frozen-forest state
# ----------------------------------------------------------------------
def invalidate_model_caches(model) -> None:
    """Drop a model's frozen state (encoding and fingerprint): for cold
    set-ups or a changed encoding budget; a refit or new trees need none."""
    model.__dict__.pop(STATE_KEY, None)


def bitvector_for(model) -> BitvectorForest | None:
    """A fitted forest's :class:`BitvectorForest`, encoded on first use;
    ``None`` when the forest cannot be encoded."""
    if not getattr(model, "trees_", None):
        return None
    return frozen_state(model, "encoded", lambda *_: _pack(model))


def _pack(model) -> BitvectorForest | None:
    """Encode a frozen forest, with its ``bitvector.pack`` span and metrics."""
    table = forest_table(model)
    t0 = obs_monotonic()
    with obs_span("bitvector.pack", n_trees=len(model.trees_)):
        encoded = BitvectorForest.pack(
            model.trees_, model.init_score_, int(model.n_features_), table
        )
    metric_inc("pack.count")
    metric_observe("pack.seconds", obs_monotonic() - t0)
    if encoded is not None:
        metric_observe("bitvector.table_bytes", encoded.table_bytes)
    else:
        metric_inc("bitvector.declined")
    return encoded
