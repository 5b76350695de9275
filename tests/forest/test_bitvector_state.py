"""Equivalence tests for the bitvector engine a fleet worker attaches.

A fleet worker never encodes a forest itself: the front end pickles its
:class:`~repro.forest.bitvector.BitvectorForest` into shared memory with
:func:`~repro.serve.shm.export_model`, and the worker unpickles it over
read-only views with :func:`~repro.serve.shm.attach_model`.  That
attached engine must be *bitwise identical* to the per-tree loop on
every forest shape.  These tests sweep model families, depths,
degenerate trees, edge thresholds, special float inputs and staged
prediction through that transport, always comparing with
``np.array_equal`` (no tolerances).  Alignment, read-only views and the
segment lifecycle are covered in ``tests/serve/test_shm.py``.
"""

import numpy as np
import pytest

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
from repro.forest.engines import (
    invalidate_model_caches,
    loop_predict_raw,
)
from repro.forest.tree import LEAF, forest_fingerprint
from repro.serve.shm import attach_model, export_model

from .test_bitvector import forest_edits

# Attached segments of the running test's engines; each closes after
# the test, once its engine (whose arrays are views of it) is gone.
_attached = []


@pytest.fixture(autouse=True)
def _close_attached():
    yield
    while _attached:
        _attached.pop().close()


def repack(encoded):
    """``encoded`` as a worker holds it: exported, attached, unlinked.

    POSIX keeps the unlinked segment mapped while the engine uses it.
    """
    bundle, segment = export_model("m", 0, encoded)
    try:
        engine, attached = attach_model(bundle)
    finally:
        segment.unlink()
    _attached.append(attached)
    return engine


def state_of(engine):
    """An engine's pickled attributes, arrays as (dtype, shape, bytes)."""

    def plain(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, list):
            return [plain(item) for item in value]
        return value

    return {key: plain(value) for key, value in engine.__getstate__().items()}


def packed_model(model):
    """``model``'s current bitvector engine as a worker attaches it."""
    encoded = bitvector_for(model)
    assert encoded is not None
    return repack(encoded)


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
        packed = packed_model(model)
        assert np.array_equal(packed.predict_raw(X_test), loop_predict_raw(model, X_test))

    def test_gbdt_classifier_bitwise_identical(self, data):
        X, y, X_test = data
        model = GradientBoostingClassifier(
            n_estimators=25, num_leaves=15, random_state=0
        )
        model.fit(X, (y > 0).astype(float))
        packed = packed_model(model)
        assert np.array_equal(packed.predict_raw(X_test), loop_predict_raw(model, X_test))

    @pytest.mark.parametrize("num_leaves", [2, 31])
    def test_random_forests_bitwise_identical(self, data, num_leaves):
        X, y, X_test = data
        reg = RandomForestRegressor(
            n_estimators=15, num_leaves=num_leaves, random_state=0
        )
        reg.fit(X, y)
        assert np.array_equal(
            packed_model(reg).predict_raw(X_test), loop_predict_raw(reg, X_test)
        )
        clf = RandomForestClassifier(
            n_estimators=15, num_leaves=num_leaves, random_state=0
        )
        clf.fit(X, (y > 0).astype(float))
        assert np.array_equal(
            packed_model(clf).predict_raw(X_test), loop_predict_raw(clf, X_test)
        )

    def test_multiclass_bitwise_identical(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((400, 4))
        y = np.argmax(X[:, :3] + 0.3 * rng.standard_normal((400, 3)), axis=1)
        model = OneVsRestGBDTClassifier(n_estimators=10, num_leaves=7, random_state=0)
        model.fit(X, y)
        X_test = rng.standard_normal((150, 4))
        raw = model.predict_raw(X_test)
        assert raw.shape == (150, model.n_classes_)
        for k, forest in enumerate(model.forests_):
            packed = packed_model(forest)
            assert np.array_equal(packed.predict_raw(X_test), raw[:, k])
            assert np.array_equal(raw[:, k], loop_predict_raw(forest, X_test))

    def test_special_float_inputs(self, data):
        X, y, _ = data
        model = GradientBoostingRegressor(n_estimators=10, num_leaves=15, random_state=0)
        model.fit(X, y)
        X_test = np.zeros((4, 5))
        X_test[0, :] = np.nan
        X_test[1, :] = np.inf
        X_test[2, :] = -np.inf
        X_test[3, :] = 0.0
        packed = packed_model(model)
        assert np.array_equal(packed.predict_raw(X_test), loop_predict_raw(model, X_test))

    def test_staged_predict_bitwise_identical(self, data):
        # Staged prediction runs the loop; stage k must equal the attached
        # engine of the forest's first k trees bit for bit.
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=12, num_leaves=7, random_state=0)
        model.fit(X, y)
        stages = list(model.staged_predict_raw(X_test))
        assert len(stages) == 12
        for k, stage in enumerate(stages, start=1):
            encoded = BitvectorForest.pack(
                model.trees_[:k], model.init_score_, int(model.n_features_)
            )
            assert encoded is not None
            assert np.array_equal(repack(encoded).predict_raw(X_test), stage), k
        assert np.array_equal(packed_model(model).predict_raw(X_test), stages[-1])


class TestDegenerateTrees:
    def _forest_of(self, trees, init=0.5, n_features=3):
        class Stub:
            """Minimal forest-protocol carrier for hand-built trees."""

        model = Stub()
        model.trees_ = trees
        model.init_score_ = init
        model.n_features_ = n_features
        return model

    def test_single_leaf_trees_only(self):
        model = self._forest_of([Tree.single_leaf(1.0), Tree.single_leaf(-0.25)])
        packed = packed_model(model)
        X = np.random.default_rng(0).standard_normal((10, 3))
        assert np.array_equal(packed.predict_raw(X), loop_predict_raw(model, X))

    def test_mixed_single_leaf_and_deep_trees(self):
        stump = Tree(
            feature=np.array([0, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([0.25, 0.0, 0.0]),
            left=np.array([1, -1, -1], dtype=np.int32),
            right=np.array([2, -1, -1], dtype=np.int32),
            value=np.array([0.0, -1.0, 2.0]),
            gain=np.array([1.0, 0.0, 0.0]),
            n_samples=np.array([10, 6, 4], dtype=np.int64),
        )
        model = self._forest_of([Tree.single_leaf(3.0), stump])
        packed = packed_model(model)
        X = np.array([[0.25, 0.0, 0.0], [0.2500001, 0.0, 0.0], [-5.0, 1.0, 1.0]])
        assert np.array_equal(packed.predict_raw(X), loop_predict_raw(model, X))

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
        model = self._forest_of([tree], init=0.0)
        packed = packed_model(model)
        X = np.array([[0.0, t, 0.0], [0.0, np.nextafter(t, 2.0), 0.0]])
        out = packed.predict_raw(X)
        assert np.array_equal(out, np.array([10.0, 20.0]))
        assert np.array_equal(out, loop_predict_raw(model, X))

    def test_unpackable_forest_falls_back(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        root = int(np.flatnonzero(model.trees_[0].feature != LEAF)[0])
        model.trees_[0].threshold[root] = np.nan
        invalidate_model_caches(model)
        # No encoding means no engine to export ...
        assert bitvector_for(model) is None
        # ... and predict_raw still works through the loop fallback.
        assert np.array_equal(model.predict_raw(X_test), loop_predict_raw(model, X_test))


class TestCacheAndInvalidation:
    def test_mutation_triggers_repack(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=10, num_leaves=15, random_state=0)
        model.fit(X, y)
        original = before = model.predict_raw(X_test)
        fingerprint = forest_fingerprint(model)
        packed_original = packed = packed_model(model)
        # A used forest is frozen: an in-place write raises where it happens.
        with pytest.raises(ValueError, match="read-only"):
            model.trees_[0].value *= 2.0
        assert forest_fingerprint(model) == fingerprint
        # New trees repack, and the fingerprint follows them.
        for name, edit in forest_edits(model, X, y):
            edit()
            packed_after = packed_model(model)
            assert forest_fingerprint(model) != fingerprint, name
            fingerprint = forest_fingerprint(model)
            after = packed_after.predict_raw(X_test)
            assert not np.array_equal(before, after), name
            assert np.array_equal(after, loop_predict_raw(model, X_test)), name
            # An exported engine is a snapshot: the old one keeps its answers.
            assert np.array_equal(packed.predict_raw(X_test), before), name
            packed, before = packed_after, after
        assert np.array_equal(packed_original.predict_raw(X_test), original)

    def test_explicit_invalidation_hook(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        encoded = bitvector_for(model)
        invalidate_model_caches(model)
        assert "_bitvector_state" not in model.__dict__
        # The next export re-encodes into an equal, fresh state.
        fresh = bitvector_for(model)
        assert fresh is not encoded
        assert state_of(fresh) == state_of(encoded)
        assert np.array_equal(repack(fresh).predict_raw(X_test), loop_predict_raw(model, X_test))


class TestChunkingAndRoundtrip:
    def test_n_jobs_and_chunking_invariance(self, data, monkeypatch):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=20, num_leaves=31, random_state=0)
        model.fit(X, y)
        packed = packed_model(model)
        reference = loop_predict_raw(model, X_test)
        for chunk in (64, 100, 256, 2048):
            monkeypatch.setattr(BitvectorForest, "_auto_chunk", lambda self: chunk)
            out = packed.predict_raw(X_test)
            assert np.array_equal(out, reference), chunk
        # Evaluation is single-threaded: there is no n_jobs split.
        with pytest.raises(TypeError):
            packed.predict_raw(X_test, n_jobs=4)

    def test_direct_pack_roundtrip(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=8, num_leaves=15, random_state=0)
        model.fit(X, y)
        encoded = BitvectorForest.pack(model.trees_, model.init_score_, model.n_features_)
        assert encoded is not None
        packed = repack(encoded)
        assert packed.n_trees == 8
        assert state_of(packed) == state_of(encoded)
        assert np.array_equal(packed.predict_raw(X_test), loop_predict_raw(model, X_test))
