"""Equivalence tests for the traversal-free bitvector evaluation engine.

The bitvector engine must be *bitwise identical* to the per-tree loop on
every forest shape: that is the contract that lets it be the
``predict_raw`` path, with :func:`repro.forest.engines.loop_predict_raw`
as the reference.  These tests sweep
model families, mask widths (uint32, single-word uint64, multi-word),
degenerate trees, edge thresholds and special float inputs — all under
``REPRO_NUMERICS=strict`` (the suite-wide default from conftest) —
always comparing with ``np.array_equal`` (no tolerances).
"""

import copy
import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.errors import ForestValidationError
from repro.core.numerics import NumericsError, strict_enabled
from repro.forest import (
    BitvectorForest,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    OneVsRestGBDTClassifier,
    RandomForestClassifier,
    RandomForestRegressor,
    Tree,
    bitvector_for,
)
from repro.forest import bitvector as bitvector_mod
from repro.forest.engines import (
    invalidate_model_caches,
    loop_predict_raw,
)
from repro.forest.tree import LEAF
from repro.serve.shm import attach_model, export_model


def chain_tree(depth, n_features=3):
    """A left-spine chain: ``depth`` internal nodes, ``depth + 1`` leaves."""
    n = 2 * depth + 1
    feature = np.full(n, LEAF, np.int32)
    threshold = np.zeros(n)
    left = np.full(n, -1, np.int32)
    right = np.full(n, -1, np.int32)
    value = np.zeros(n)
    node = 0
    for d in range(depth):
        feature[node] = d % n_features
        threshold[node] = 0.1 * d - 0.2
        left[node] = node + 1
        right[node] = node + 2
        value[node + 1] = float(d) - 1.5
        node += 2
    value[node] = 99.0
    return Tree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        value=value,
        gain=np.zeros(n),
        n_samples=np.ones(n, np.int64),
    )


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(42)
    X = rng.standard_normal((800, 5))
    y = X[:, 0] * 2 + np.sin(3 * X[:, 1]) + X[:, 2] * X[:, 3]
    y = y + 0.1 * rng.standard_normal(800)
    X_test = rng.standard_normal((700, 5))
    return X, y, X_test


class TestEquivalence:
    @pytest.mark.parametrize("max_depth", [1, 2, 4, -1])
    def test_gbdt_regressor_bitwise_identical(self, data, max_depth):
        X, y, X_test = data
        model = GradientBoostingRegressor(
            n_estimators=30, num_leaves=15, max_depth=max_depth, random_state=0
        )
        model.fit(X, y)
        assert np.array_equal(model.predict_raw(X_test), loop_predict_raw(model, X_test))

    def test_gbdt_classifier_bitwise_identical(self, data):
        X, y, X_test = data
        model = GradientBoostingClassifier(
            n_estimators=25, num_leaves=15, random_state=0
        )
        model.fit(X, (y > 0).astype(float))
        assert np.array_equal(model.predict_raw(X_test), loop_predict_raw(model, X_test))

    @pytest.mark.parametrize("num_leaves", [2, 31])
    def test_random_forests_bitwise_identical(self, data, num_leaves):
        X, y, X_test = data
        reg = RandomForestRegressor(
            n_estimators=15, num_leaves=num_leaves, random_state=0
        )
        reg.fit(X, y)
        assert np.array_equal(reg.predict_raw(X_test), loop_predict_raw(reg, X_test))
        clf = RandomForestClassifier(
            n_estimators=15, num_leaves=num_leaves, random_state=0
        )
        clf.fit(X, (y > 0).astype(float))
        assert np.array_equal(clf.predict_raw(X_test), loop_predict_raw(clf, X_test))

    def test_multiclass_bitwise_identical(self, monkeypatch):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((400, 4))
        y = np.argmax(X[:, :3] + 0.3 * rng.standard_normal((400, 3)), axis=1)
        model = OneVsRestGBDTClassifier(n_estimators=10, num_leaves=7, random_state=0)
        model.fit(X, y)
        X_test = rng.standard_normal((150, 4))
        raw = model.predict_raw(X_test)
        assert raw.shape == (150, model.n_classes_)
        for k, forest in enumerate(model.forests_):
            assert np.array_equal(raw[:, k], loop_predict_raw(forest, X_test))
        proba = model.predict_proba(X_test)
        for forest in model.forests_:
            monkeypatch.setattr(
                forest, "predict_raw", lambda X, f=forest: loop_predict_raw(f, X)
            )
        assert np.array_equal(proba, model.predict_proba(X_test))

    def test_special_float_inputs_under_strict_numerics(self, data):
        X, y, _ = data
        assert strict_enabled(), "suite must run under REPRO_NUMERICS=strict"
        model = GradientBoostingRegressor(n_estimators=10, num_leaves=15, random_state=0)
        model.fit(X, y)
        X_test = np.zeros((4, 5))
        X_test[0, :] = np.nan
        X_test[1, :] = np.inf
        X_test[2, :] = -np.inf
        X_test[3, :] = 0.0
        out = model.predict_raw(X_test)
        assert np.array_equal(out, loop_predict_raw(model, X_test))
        assert np.all(np.isfinite(out))

    def test_staged_predict_bitwise_identical(self, data):
        # Staged prediction runs the loop; its last stage must be the
        # engine's predict_raw bit for bit, special floats included.
        X, y, X_test = data
        X_test = X_test.copy()
        X_test[0, :] = np.nan
        X_test[1, :] = np.inf
        X_test[2, :] = -np.inf
        X_test[3, ::2] = np.nan
        X_test[4, 1::2] = -np.inf
        for cls, target in (
            (GradientBoostingRegressor, y),
            (GradientBoostingClassifier, (y > 0).astype(float)),
        ):
            model = cls(n_estimators=12, num_leaves=7, random_state=0).fit(X, target)
            assert bitvector_for(model) is not None
            stages = list(model.staged_predict_raw(X_test))
            assert len(stages) == 12, cls
            assert np.array_equal(stages[-1], model.predict_raw(X_test)), cls


class TestMaskWidths:
    """The three mask layouts: uint32, single-word uint64, multi-word."""

    def _stub(self, trees, init=0.25, n_features=3):
        class Stub:
            """Minimal forest-protocol carrier for hand-built trees."""

        model = Stub()
        model.trees_ = trees
        model.init_score_ = init
        model.n_features_ = n_features
        return model

    @pytest.mark.parametrize(
        "depth, words, bits",
        [(31, 1, 32), (32, 1, 64), (63, 1, 64), (64, 2, 64), (200, 4, 64)],
    )
    def test_word_layout_and_equality(self, depth, words, bits):
        model = self._stub([chain_tree(depth), chain_tree(3)])
        encoded = bitvector_for(model)
        assert encoded is not None
        assert encoded.n_words == words
        assert encoded.word_bits == bits
        rng = np.random.default_rng(depth)
        X = rng.uniform(-1.0, 7.0, size=(257, 3))
        X[0] = np.nan
        X[1] = [0.1 * min(depth, 3) - 0.2, 0.0, 0.0]  # exact boundary
        assert np.array_equal(
            encoded.predict_raw(X), loop_predict_raw(model, X)
        )

    def test_trained_multiword_forest(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4000, 6))
        y = np.sum(np.sin(X * np.arange(1, 7)), axis=1)
        model = GradientBoostingRegressor(
            n_estimators=12, num_leaves=100, max_depth=-1, random_state=0
        )
        model.fit(X, y)
        assert max(t.n_leaves for t in model.trees_) > 64
        encoded = bitvector_for(model)
        assert encoded.n_words >= 2
        X_test = rng.standard_normal((900, 6))
        assert np.array_equal(
            model.predict_raw(X_test), loop_predict_raw(model, X_test)
        )


class TestDegenerateTrees:
    def _stub(self, trees, init=0.5, n_features=3):
        class Stub:
            """Minimal forest-protocol carrier for hand-built trees."""

        model = Stub()
        model.trees_ = trees
        model.init_score_ = init
        model.n_features_ = n_features
        return model

    def test_single_leaf_trees_only(self):
        model = self._stub([Tree.single_leaf(1.0), Tree.single_leaf(-0.25)])
        encoded = bitvector_for(model)
        assert encoded is not None
        X = np.random.default_rng(0).standard_normal((10, 3))
        assert np.array_equal(
            encoded.predict_raw(X), loop_predict_raw(model, X)
        )

    def test_mixed_single_leaf_chain_and_stump(self):
        stump = Tree(
            feature=np.array([0, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.25, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -1.0, 2.0]),
            gain=np.array([1.0, 0.0, 0.0]),
            n_samples=np.array([10, 6, 4], dtype=np.int64),
        )
        model = self._stub([Tree.single_leaf(3.0), chain_tree(70), stump])
        encoded = bitvector_for(model)
        assert encoded.n_words == 2  # chain(70) has 71 leaves
        X = np.array([[0.25, 0.0, 0.0], [0.2500001, 0.0, 0.0], [-5.0, 1.0, 1.0]])
        assert np.array_equal(
            encoded.predict_raw(X), loop_predict_raw(model, X)
        )

    def test_edge_thresholds_exact_boundary(self):
        """Rows sitting exactly on a threshold must go left, as in the loop."""
        t = np.nextafter(1.0, 0.0)
        tree = Tree(
            feature=np.array([1, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([t, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, 10.0, 20.0]),
            gain=np.array([1.0, 0.0, 0.0]),
            n_samples=np.array([4, 2, 2], dtype=np.int64),
        )
        model = self._stub([tree], init=0.0)
        encoded = bitvector_for(model)
        X = np.array([[0.0, t, 0.0], [0.0, np.nextafter(t, 2.0), 0.0]])
        out = encoded.predict_raw(X)
        assert np.array_equal(out, np.array([10.0, 20.0]))
        assert np.array_equal(out, loop_predict_raw(model, X))


class TestEligibilityAndFallback:
    def test_nan_threshold_declines_everywhere_loop_serves(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        root = int(np.flatnonzero(model.trees_[0].feature != LEAF)[0])
        model.trees_[0].threshold[root] = np.nan
        invalidate_model_caches(model)
        assert bitvector_for(model) is None
        # predict_raw still works, now through the loop.
        assert np.array_equal(model.predict_raw(X_test), loop_predict_raw(model, X_test))

    def test_too_wide_tree_declines(self):
        wide = chain_tree(64 * bitvector_mod.MAX_LEAF_WORDS)  # one leaf too many
        assert BitvectorForest.pack([wide], 0.0, 3) is None

    def test_table_budget_decline_falls_back_to_loop(self, data, monkeypatch):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=8, num_leaves=15, random_state=0)
        model.fit(X, y)
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", 0)
        invalidate_model_caches(model)
        assert bitvector_for(model) is None
        # Dispatch lands on the loop: output unchanged, decline cached.
        out = model.predict_raw(X_test)
        assert np.array_equal(out, loop_predict_raw(model, X_test))
        assert model.__dict__["_bitvector_state"][1] is None

    def test_decline_is_cached_until_invalidated(self, data, monkeypatch):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=4, num_leaves=7, random_state=0)
        model.fit(X, y)
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", 0)
        invalidate_model_caches(model)
        assert bitvector_for(model) is None
        assert model.__dict__["_bitvector_state"][1] is None
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", 256 * 1024 * 1024)
        # Same fingerprint: the cached decline persists until invalidated.
        assert bitvector_for(model) is None
        invalidate_model_caches(model)
        assert bitvector_for(model) is not None


def forest_edits(model, X, y):
    """Changes that give a used forest new trees, each as ``(name, edit)``."""
    first = model.trees_[0]
    doubled = dataclasses.replace(first, value=first.value * 2.0)
    return [
        ("replace a tree", lambda: model.trees_.__setitem__(0, doubled)),
        ("append a tree", lambda: model.trees_.append(doubled)),
        ("delete a tree", lambda: model.trees_.pop()),
        ("reassign trees_", lambda: setattr(model, "trees_", model.trees_[:6])),
        ("refit", lambda: model.fit(X, -y)),
    ]


class TestCacheAndInvalidation:
    def test_mutation_triggers_reencode(self, data):
        # A used forest is frozen: an in-place write raises at the write
        # site, and only new trees change it, each re-encoding once.
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=10, num_leaves=15, random_state=0)
        model.fit(X, y)
        before = model.predict_raw(X_test)
        encoded = bitvector_for(model)
        with pytest.raises(ValueError, match="read-only"):
            model.trees_[0].value *= 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.trees_[0].value = model.trees_[0].value * 2.0
        assert np.array_equal(model.predict_raw(X_test), before)
        assert bitvector_for(model) is encoded
        for name, edit in forest_edits(model, X, y):
            edit()
            after = model.predict_raw(X_test)
            assert bitvector_for(model) is not encoded, name
            encoded = bitvector_for(model)
            assert not np.array_equal(after, before), name
            assert np.array_equal(after, loop_predict_raw(model, X_test)), name
            before = after

    def test_invalidate_model_caches_drops_encoding(self, data):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        assert bitvector_for(model) is not None
        invalidate_model_caches(model)
        assert "_bitvector_state" not in model.__dict__


class TestChunkingAndThreads:
    def test_n_jobs_and_chunking_invariance(self, data, monkeypatch):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=20, num_leaves=31, random_state=0)
        model.fit(X, y)
        encoded = bitvector_for(model)
        reference = loop_predict_raw(model, X_test)
        for chunk in (64, 100, 256, 2048):
            monkeypatch.setattr(BitvectorForest, "_auto_chunk", lambda self: chunk)
            out = encoded.predict_raw(X_test)
            assert np.array_equal(out, reference), chunk
        # Evaluation is single-threaded: there is no n_jobs split.
        with pytest.raises(TypeError):
            encoded.predict_raw(X_test, n_jobs=4)

    def test_feature_count_mismatch_rejected(self, data):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=4, num_leaves=7, random_state=0)
        model.fit(X, y)
        encoded = bitvector_for(model)
        with pytest.raises(ValueError, match="features"):
            encoded.predict_raw(np.zeros((3, 9)))

    def test_direct_pack_roundtrip(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=8, num_leaves=15, random_state=0)
        model.fit(X, y)
        encoded = BitvectorForest.pack(
            model.trees_, model.init_score_, model.n_features_
        )
        assert encoded is not None
        assert encoded.n_trees == 8
        assert np.array_equal(
            encoded.predict_raw(X_test),
            loop_predict_raw(model, X_test),
        )

    def test_from_state_rejects_malformed_state(self, data):
        # Evaluation gathers in clip mode, so an out-of-range index would
        # read a clamped row: attaching must refuse such a state.
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=8, num_leaves=15, random_state=0)
        model.fit(X, y)
        encoded = BitvectorForest.pack(
            model.trees_, model.init_score_, model.n_features_
        )
        groups, tables = encoded.groups, encoded.tables
        assert any(len(group) > 1 for group in groups)

        def attach(**changes):
            """``encoded`` with ``changes``, exported and attached."""
            engine = copy.copy(encoded)
            vars(engine).update(changes)
            bundle, segment = export_model("m", 0, engine)
            try:
                return attach_model(bundle)
            finally:
                segment.unlink()

        rebuilt, shm = attach()
        assert np.array_equal(rebuilt.predict_raw(X_test), encoded.predict_raw(X_test))
        del rebuilt
        shm.close()

        with pytest.raises(ForestValidationError, match="table 0"):
            attach(tables=[tables[0][:-1], *tables[1:]])

        # A group of several split in two: one group more than tables.
        lead, *rest = groups[0]
        with pytest.raises(ForestValidationError, match="tables for"):
            attach(groups=[[lead], rest, *groups[1:]])

        # Two groups swapped: each table has the other's row count.
        with pytest.raises(ForestValidationError, match="table 0"):
            attach(groups=[*groups[1:], groups[0]])

        # A feature with conditions in no group.
        with pytest.raises(ForestValidationError, match="partition"):
            attach(groups=[rest, *groups[1:]])

        offsets = encoded.leaf_offsets.copy()
        offsets[[1, 2]] = offsets[[2, 1]]
        with pytest.raises(ForestValidationError, match="leaf_offsets"):
            attach(leaf_offsets=offsets)


def random_tree(n_leaves, rng, n_features=4, grid=None):
    """A random binary tree with exactly ``n_leaves`` leaves.

    Thresholds come from ``grid`` so that rows drawn from the same grid
    sit exactly on split points; leaf values span several magnitudes so
    a change of summation order shows up in the low bits.
    """
    grid = np.linspace(-2.0, 2.0, 33) if grid is None else grid
    feature, threshold, left, right = [LEAF], [0.0], [-1], [-1]
    leaves = [0]
    while len(leaves) < n_leaves:
        node = leaves.pop(int(rng.integers(len(leaves))))
        feature[node] = int(rng.integers(n_features))
        threshold[node] = float(rng.choice(grid))
        for side in (left, right):
            side[node] = len(feature)
            leaves.append(len(feature))
            feature.append(LEAF)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
    n = len(feature)
    value = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
    return Tree(
        feature=np.asarray(feature, np.int32),
        threshold=np.asarray(threshold),
        left=np.asarray(left, np.int32),
        right=np.asarray(right, np.int32),
        value=value,
        gain=np.ones(n),
        n_samples=np.ones(n, np.int64),
    )


def stub_model(trees, init_score, n_features):
    """Minimal forest-protocol carrier for hand-built trees."""

    class Stub:
        pass

    model = Stub()
    model.trees_ = trees
    model.init_score_ = init_score
    model.n_features_ = n_features
    return model


def shuffle_node_ids(tree, rng):
    """``tree`` with node ids 1.. permuted (the root stays node 0).

    Children then often have smaller ids than their parents, which no
    structural pass may assume away.
    """
    n = tree.n_nodes
    new_id = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    old_id = np.argsort(new_id)
    leaf = tree.feature == LEAF
    left = np.where(leaf, -1, new_id[tree.left])[old_id]
    right = np.where(leaf, -1, new_id[tree.right])[old_id]
    return Tree(
        feature=tree.feature[old_id],
        threshold=tree.threshold[old_id],
        left=left.astype(np.int32),
        right=right.astype(np.int32),
        value=tree.value[old_id],
        gain=tree.gain[old_id],
        n_samples=tree.n_samples[old_id],
    )


class TestKernelEquivalenceSweep:
    """Every batch shape and mask layout against the per-tree loop."""

    GRID = np.linspace(-2.0, 2.0, 33)

    @pytest.fixture(
        scope="class",
        params=[(31, 1, 32), (32, 1, 32), (60, 1, 64), (200, 4, 64)],
        ids=["uint32-31", "uint32-32", "uint64-60", "multiword-200"],
    )
    def forest(self, request):
        n_leaves, words, bits = request.param
        rng = np.random.default_rng(n_leaves)

        class Stub:
            """Minimal forest-protocol carrier for hand-built trees."""

        model = Stub()
        model.trees_ = [random_tree(n_leaves, rng) for _ in range(37)]
        model.init_score_ = 0.3125
        model.n_features_ = 4
        encoded = BitvectorForest.pack(model.trees_, model.init_score_, 4)
        assert (encoded.n_words, encoded.word_bits) == (words, bits)
        return model, encoded

    def _rows(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.choice(self.GRID, size=(n, 4))
        X += rng.choice([0.0, 0.0, 1e-9, -1e-9], size=X.shape)
        specials = [np.nan, np.inf, -np.inf]
        for i in range(0, n, 3):
            X[i, i % 4] = specials[i % 3]
        return X

    def test_every_batch_size_up_to_300(self, forest):
        model, encoded = forest
        X = self._rows(300, 0)
        reference = loop_predict_raw(model, X)  # rows are independent
        for n in range(1, 301):
            assert np.array_equal(encoded.predict_raw(X[-n:]), reference[-n:]), n

    def test_chunk_boundaries(self, forest, monkeypatch):
        model, encoded = forest
        chunk = encoded._auto_chunk()
        assert chunk * len(model.trees_) * encoded.n_words <= 65536
        for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            X = self._rows(n, n)
            reference = loop_predict_raw(model, X)
            assert np.array_equal(encoded.predict_raw(X), reference), n
            for fixed in (64, 100):
                with monkeypatch.context() as m:
                    m.setattr(BitvectorForest, "_auto_chunk", lambda self: fixed)
                    assert np.array_equal(encoded.predict_raw(X), reference), (n, fixed)

    def test_leaf_values_staged_and_rebuilt_engine(self, forest):
        model, encoded = forest
        bundle, segment = export_model("m", 0, encoded)
        try:
            rebuilt, shm = attach_model(bundle)
        finally:
            segment.unlink()
        chunk = encoded._auto_chunk()
        for n in (1, 2, 7, chunk + 1, 2 * chunk + 1):
            X = self._rows(n, 1000 + n)
            reference = loop_predict_raw(model, X)
            assert np.array_equal(encoded.predict_raw(X), reference), n
            assert np.array_equal(rebuilt.predict_raw(X), reference), n
        del rebuilt
        shm.close()


class TestExitLeafInvariant:
    @pytest.mark.parametrize("n_leaves", [31, 60, 200])
    def test_zeroed_prefix_word_raises_under_strict(self, n_leaves):
        assert strict_enabled(), "suite must run under REPRO_NUMERICS=strict"
        rng = np.random.default_rng(5)
        trees = [random_tree(n_leaves, rng) for _ in range(3)]
        encoded = BitvectorForest.pack(trees, 0.0, 4)
        X = np.full((5, 4), np.inf)  # every condition false: last table row
        encoded.predict_raw(X)
        f = next(f for f, table in enumerate(encoded.tables) if table is not None)
        encoded.tables[f][-1, 1] = 0  # tree 1 keeps no candidate leaf
        with pytest.raises(NumericsError, match="exit-leaf invariant"):
            encoded.predict_raw(X)


def reference_pack(trees, init_score, n_features):
    """The per-tree reference packer: an iterative DFS plus a mask loop.

    Returns the attributes :meth:`BitvectorForest.pack` sets, by name,
    or ``None`` for the declines.
    """
    max_leaves = max(t.n_leaves for t in trees)
    for tree in trees:
        internal = tree.feature != LEAF
        if internal.any() and not np.all(np.isfinite(tree.threshold[internal])):
            return None
    if max_leaves > 64 * bitvector_mod.MAX_LEAF_WORDS:
        return None
    if max_leaves <= 32:
        width, n_words, dtype = 32, 1, np.uint32
    else:
        width, n_words, dtype = 64, -(-max_leaves // 64), np.uint64
    word_max = (1 << width) - 1
    per_feat = [[] for _ in range(n_features)]  # (threshold, tree, words)
    leaf_values, leaf_offsets, init_vec = [], [], []
    for ti, tree in enumerate(trees):
        lo = np.zeros(tree.n_nodes, np.int64)
        hi = np.zeros(tree.n_nodes, np.int64)
        leaves = []
        stack = [(0, False)]
        while stack:
            node, done = stack.pop()
            if done:
                hi[node] = len(leaves)
                continue
            lo[node] = len(leaves)
            if tree.feature[node] == LEAF:
                leaves.append(node)
                hi[node] = len(leaves)
                continue
            stack += [(node, True), (int(tree.right[node]), False),
                      (int(tree.left[node]), False)]
        leaf_offsets.append(sum(len(v) for v in leaf_values))
        leaf_values.append(tree.value[leaves])
        init_vec.append([
            (1 << min(max(len(leaves) - width * w, 0), width)) - 1
            for w in range(n_words)
        ])
        for node in np.flatnonzero(tree.feature != LEAF):
            child = int(tree.left[node])
            full = (1 << (width * n_words)) - 1
            mask = full ^ (((1 << int(hi[child] - lo[child])) - 1) << int(lo[child]))
            words = [(mask >> (width * w)) & word_max for w in range(n_words)]
            per_feat[tree.feature[node]].append((tree.threshold[node], ti, words))
    state = {
        "n_trees": len(trees),
        "n_features": n_features,
        "init_score": float(init_score),
        "word_bits": width,
        "n_words": n_words,
        "leaf_offsets": np.asarray(leaf_offsets, np.int64),
        "leaf_values": np.concatenate(leaf_values),
        "init_vec": np.asarray(init_vec, dtype=np.uint64).astype(dtype),
        "feat_thr": [],
        "tables": [],
    }
    tables = {}  # feature -> its own prefix table, (C_f + 1, T, W)
    for f, conds in enumerate(per_feat):
        if not conds:
            state["feat_thr"].append(np.empty(0))
            continue
        order = np.argsort([c[0] for c in conds], kind="stable")
        conds = [conds[i] for i in order]
        table = np.full((len(conds) + 1, len(trees), n_words), word_max, dtype)
        for p, (_, ti, words) in enumerate(conds, start=1):
            table[p, ti] = words
        np.bitwise_and.accumulate(table, axis=0, out=table)
        state["feat_thr"].append(np.array([c[0] for c in conds], np.float64))
        tables[f] = table
    budget = bitvector_mod.MAX_TABLE_BYTES
    if sum(t.nbytes for t in tables.values()) > budget:
        return None
    row_bytes = len(trees) * n_words * np.dtype(dtype).itemsize
    groups = reference_groups(
        {f: t.shape[0] for f, t in tables.items()}, row_bytes, budget
    )
    table_bytes = 0
    for group in groups:
        # Row-major over the group's features: row Σ pos_f · stride_f
        # holds the AND of every feature's row pos_f.
        sizes = [tables[f].shape[0] for f in group]
        joint = np.empty((int(np.prod(sizes)), len(trees), n_words), dtype)
        for row, combo in enumerate(itertools.product(*map(range, sizes))):
            joint[row] = np.bitwise_and.reduce(
                [tables[f][p] for f, p in zip(group, combo)]
            )
        state["tables"].append(joint[:, :, 0].copy() if n_words == 1 else joint)
        table_bytes += joint.nbytes
    state["groups"] = groups
    state["table_bytes"] = table_bytes
    return state


def reference_groups(rows, row_bytes, budget):
    """Smallest tables first; a feature joins the last group while the
    group's row product stays within ``JOINT_ROWS`` and every table's
    total bytes within ``budget``."""
    total = sum(rows.values())
    groups = []
    for f in sorted(rows, key=lambda f: (rows[f], f)):
        if groups:
            product = int(np.prod([rows[g] for g in groups[-1]]))
            grown = total - product - rows[f] + product * rows[f]
            if (
                product * rows[f] <= bitvector_mod.JOINT_ROWS
                and grown * row_bytes <= budget
            ):
                groups[-1].append(f)
                total = grown
                continue
        groups.append([f])
    return groups


class TestPackMatchesReference:
    """Every packed attribute equal to the per-tree reference packer's,
    arrays byte for byte."""

    def _assert_packs_equal(self, trees, init_score, n_features):
        encoded = BitvectorForest.pack(trees, init_score, n_features)
        reference = reference_pack(trees, init_score, n_features)
        if reference is None:
            assert encoded is None
            return None
        # The pickled state is exactly the reference's attributes.
        assert encoded.__getstate__().keys() == reference.keys()
        for key, expected in reference.items():
            got = getattr(encoded, key)
            if key in ("feat_thr", "tables"):
                assert len(got) == len(expected), key
                for i, (ours, theirs) in enumerate(zip(got, expected)):
                    self._assert_same_array(ours, theirs, (key, i))
            elif isinstance(expected, np.ndarray):
                self._assert_same_array(got, expected, key)
            else:
                assert got == expected, key
        return encoded

    @staticmethod
    def _assert_same_array(got, expected, key):
        assert got.dtype == expected.dtype, key
        assert got.shape == expected.shape, key
        assert got.tobytes() == expected.tobytes(), key

    @pytest.mark.parametrize(
        "n_leaves, words, bits",
        [(1, 1, 32), (31, 1, 32), (32, 1, 32), (33, 1, 64), (60, 1, 64),
         (64, 1, 64), (65, 2, 64), (200, 4, 64), (512, 8, 64)],
    )
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_random_forests(self, n_leaves, words, bits, shuffled):
        rng = np.random.default_rng(n_leaves)
        trees = [
            random_tree(max(n_leaves - int(rng.integers(3)), 1), rng)
            for _ in range(13)
        ]
        trees[0] = random_tree(n_leaves, rng)
        if shuffled:
            trees = [shuffle_node_ids(tree, rng) for tree in trees]
        encoded = self._assert_packs_equal(trees, 0.125, 4)
        assert (encoded.n_words, encoded.word_bits) == (words, bits)

    @pytest.mark.parametrize("name", ["spline", "census", "serve"])
    def test_bench_forests(self, bench_forests, name):
        model = bench_forests[name]
        self._assert_packs_equal(model.trees_, model.init_score_, model.n_features_)

    def test_declines_unchanged(self, monkeypatch):
        rng = np.random.default_rng(3)
        wide = [random_tree(513, rng)]
        assert self._assert_packs_equal(wide, 0.0, 4) is None
        bad = [random_tree(20, rng), random_tree(20, rng)]
        bad[1].threshold[np.flatnonzero(bad[1].feature != LEAF)[-1]] = np.nan
        assert self._assert_packs_equal(bad, 0.0, 4) is None
        trees = [random_tree(40, rng) for _ in range(5)]
        encoded = BitvectorForest.pack(trees, 0.0, 4)
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", encoded.table_bytes)
        assert self._assert_packs_equal(trees, 0.0, 4) is not None
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", encoded.table_bytes - 1)
        assert self._assert_packs_equal(trees, 0.0, 4) is None


    @staticmethod
    def _small_table_forest(rng):
        """Stumps and shallow trees over 12 features: 2-6 row tables."""
        return [random_tree(int(rng.integers(2, 5)), rng, n_features=12)
                for _ in range(9)]

    def test_joint_groups(self):
        rng = np.random.default_rng(11)
        trees = self._small_table_forest(rng)
        encoded = self._assert_packs_equal(trees, -0.5, 12)
        assert max(len(group) for group in encoded.groups) >= 3
        assert sorted(f for g in encoded.groups for f in g) == [
            f for f, thr in enumerate(encoded.feat_thr) if thr.size
        ]
        for group, table in zip(encoded.groups, encoded.tables):
            sizes = [encoded.feat_thr[f].size + 1 for f in group]
            assert table.shape[0] == np.prod(sizes) <= bitvector_mod.JOINT_ROWS
        X = rng.choice(np.linspace(-2.0, 2.0, 33), size=(300, 12))
        assert np.array_equal(
            encoded.predict_raw(X),
            loop_predict_raw(stub_model(trees, -0.5, 12), X),
        )

    def test_table_budget_limits_groups(self, monkeypatch):
        """A merge that would take the tables past ``MAX_TABLE_BYTES``
        opens a new group instead: grouping never declines a forest whose
        per-feature tables fit."""
        trees = self._small_table_forest(np.random.default_rng(11))
        grouped = BitvectorForest.pack(trees, 0.0, 12)
        monkeypatch.setattr(bitvector_mod, "JOINT_ROWS", 1)
        single = BitvectorForest.pack(trees, 0.0, 12)
        assert all(len(group) == 1 for group in single.groups)
        assert single.table_bytes < grouped.table_bytes
        monkeypatch.undo()
        for budget in (single.table_bytes, grouped.table_bytes - 1):
            monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", budget)
            encoded = self._assert_packs_equal(trees, 0.0, 12)
            assert single.table_bytes <= encoded.table_bytes <= budget
            assert encoded.groups != grouped.groups
        monkeypatch.setattr(bitvector_mod, "MAX_TABLE_BYTES", single.table_bytes - 1)
        assert self._assert_packs_equal(trees, 0.0, 12) is None


class TestReductionOrder:
    """Every row adds its trees in loop order, ``((init + v_0) + v_1) + ...``,
    whatever the chunk holds: many rows reduce the tree-major buffer along
    its outer axis, and a one-row chunk, which numpy would sum pairwise,
    keeps the sequential order."""

    @pytest.mark.parametrize("name", ["spline", "census", "serve"])
    def test_bench_forests_every_chunk_shape(self, bench_forests, name):
        model = bench_forests[name]
        encoded, X, _ = TestCodedPositions._coded(
            model, np.random.default_rng(9), n=4_200
        )
        chunk = encoded._auto_chunk()
        assert chunk + 1 <= len(X)
        for n in (1, 2, 3, chunk - 1, chunk, chunk + 1):
            assert np.array_equal(
                encoded.predict_raw(X[:n]), loop_predict_raw(model, X[:n])
            ), n

    def test_one_row_sums_sequentially_not_pairwise(self):
        # Added one at a time to 1.0, each half-ulp rounds back to 1.0;
        # summed pairwise, the sixteen first add up to 2**-49.
        values = [2.0**-53] * 16
        trees = [Tree.single_leaf(v) for v in values]
        model = stub_model(trees, 1.0, 3)
        sequential = model.init_score_
        for v in values:
            sequential = sequential + v
        column = np.array([[model.init_score_]] + [[v] for v in values])
        assert np.add.reduce(column, axis=0)[0] != sequential  # pairwise
        encoded = BitvectorForest.pack(trees, model.init_score_, 3)
        X = np.zeros((3, 3))
        for n in (1, 2, 3):
            out = encoded.predict_raw(X[:n])
            assert out.tolist() == [sequential] * n, n
            assert np.array_equal(out, loop_predict_raw(model, X[:n]))


class TestCodedPositions:
    """Positions gathered by code equal ``digitize(X)`` on the coded rows.

    D*'s columns are codes into sampling domains; the coded path searches
    each domain value once and gathers by code.  The domains here mix the
    forest's own thresholds (a row sitting exactly on a threshold must
    count it as true, i.e. go left) with the points between and beyond
    them.
    """

    @staticmethod
    def _coded(model, rng, n=3_000):
        encoded = bitvector_for(model)
        domains, codes = {}, {}
        for f, thr in enumerate(encoded.feat_thr):
            if not thr.size:
                continue
            mids = (thr[:-1] + thr[1:]) / 2
            domain = np.unique(np.concatenate([thr, mids, [thr[0] - 1, thr[-1] + 1]]))
            domains[f] = domain
            codes[f] = rng.integers(len(domain), size=n).astype(
                np.min_scalar_type(len(domain) - 1)
            )
        X = np.zeros((n, model.n_features_))
        for f, c in codes.items():
            X[:, f] = domains[f][c]
        return encoded, X, (domains, codes)

    @pytest.mark.parametrize("name", ["spline", "census", "serve"])
    def test_bench_forests(self, bench_forests, name):
        model = bench_forests[name]
        encoded, X, coding = self._coded(model, np.random.default_rng(5))
        domains, codes = coding
        # Some rows sit exactly on a threshold: ties must go left.
        on_threshold = [
            np.isin(X[:, f], encoded.feat_thr[f]).any() for f in codes
        ]
        assert all(on_threshold)
        np.testing.assert_array_equal(
            encoded.digitize(X, coding), encoded.digitize(X)
        )
        np.testing.assert_array_equal(
            model.predict_raw(X, coding), loop_predict_raw(model, X)
        )

    def test_partial_coding_and_probabilities(self, bench_forests):
        """Uncoded features are digitized by value beside coded ones, and
        ``predict_proba`` forwards the coding bit for bit."""
        model = bench_forests["census"]
        encoded, X, (domains, codes) = self._coded(model, np.random.default_rng(6))
        half = dict(list(codes.items())[::2])
        np.testing.assert_array_equal(
            encoded.digitize(X, (domains, half)), encoded.digitize(X)
        )
        np.testing.assert_array_equal(
            model.predict_proba(X, (domains, half)), model.predict_proba(X)
        )
