"""Equivalence tests for the packed (exported) bitvector state.

A fleet worker never encodes a forest itself: it rebuilds a
:class:`~repro.forest.bitvector.BitvectorForest` from the flat buffers
that :meth:`~repro.forest.bitvector.BitvectorForest.export_state` packs,
mapped read-only.  That rebuilt engine must be *bitwise identical* to the
per-tree loop on every forest shape.  These tests sweep model families,
depths, degenerate trees, edge thresholds and special float inputs
through ``export_state`` → read-only copies → ``from_state``, always
comparing with ``np.array_equal`` (no tolerances).  The shared-memory
transport itself is covered in ``tests/serve/test_shm.py``.
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
    get_prediction_engine,
    set_prediction_engine,
)
from repro.forest.engines import DEFAULT_ENGINE, ENGINES, invalidate_model_caches
from repro.forest.tree import LEAF


def loop_predict_raw(model, X):
    """Reference per-tree loop, independent of the engine knob."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    raw = np.full(X.shape[0], model.init_score_)
    for tree in model.trees_:
        raw += tree.predict(X)
    return raw


def repack(encoded):
    """Rebuild ``encoded`` from read-only copies of its exported buffers."""
    arrays, meta = encoded.export_state()
    frozen = {}
    for key, buf in arrays.items():
        frozen[key] = buf.copy()
        frozen[key].flags.writeable = False
    return BitvectorForest.from_state(frozen, dict(meta))


def packed_model(model):
    """The packed state of ``model``'s current bitvector encoding."""
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


@pytest.fixture(autouse=True)
def default_engine():
    set_prediction_engine(DEFAULT_ENGINE)
    yield
    set_prediction_engine(DEFAULT_ENGINE)


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
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=12, num_leaves=7, random_state=0)
        model.fit(X, y)
        packed_stages = list(packed_model(model).staged_predict_raw(X_test))
        set_prediction_engine("loop")
        loop_stages = list(model.staged_predict_raw(X_test))
        assert len(packed_stages) == len(loop_stages) == 12
        for p, l in zip(packed_stages, loop_stages):
            assert np.array_equal(p, l)


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
        # No encoding means no packed state to export ...
        assert bitvector_for(model) is None
        # ... and predict_raw still works through the loop fallback.
        assert np.array_equal(model.predict_raw(X_test), loop_predict_raw(model, X_test))


class TestCacheAndInvalidation:
    def test_mutation_triggers_repack(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=10, num_leaves=15, random_state=0)
        model.fit(X, y)
        before = model.predict_raw(X_test)
        packed_before = packed_model(model)
        model.trees_[0].value *= 2.0
        packed_after = packed_model(model)
        assert packed_after.fingerprint != packed_before.fingerprint
        after = packed_after.predict_raw(X_test)
        assert not np.array_equal(before, after)
        assert np.array_equal(after, loop_predict_raw(model, X_test))
        # An exported state is a snapshot: the old one keeps its answers.
        assert np.array_equal(packed_before.predict_raw(X_test), before)

    def test_explicit_invalidation_hook(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        encoded = bitvector_for(model)
        arrays_before, meta_before = encoded.export_state()
        invalidate_model_caches(model)
        assert "_bitvector_state" not in model.__dict__
        # The next export re-encodes into an equal, fresh state.
        fresh = bitvector_for(model)
        assert fresh is not encoded
        arrays_after, meta_after = fresh.export_state()
        assert meta_after == meta_before
        assert arrays_after.keys() == arrays_before.keys()
        for key, buf in arrays_before.items():
            assert np.array_equal(arrays_after[key], buf)
        assert np.array_equal(repack(fresh).predict_raw(X_test), loop_predict_raw(model, X_test))


class TestEngineKnobAndThreads:
    def test_engine_knob_roundtrip(self):
        assert get_prediction_engine() == DEFAULT_ENGINE
        for name in ENGINES:
            set_prediction_engine(name)
            assert get_prediction_engine() == name
        # "packed" is not an engine: the packed state is bitvector buffers.
        for bad in ("packed", "warp-drive"):
            with pytest.raises(ValueError):
                set_prediction_engine(bad)

    def test_loop_engine_skips_packing(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=5, num_leaves=7, random_state=0)
        model.fit(X, y)
        set_prediction_engine("loop")
        out = model.predict_raw(X_test)
        assert "_bitvector_state" not in model.__dict__
        set_prediction_engine("bitvector")
        assert np.array_equal(out, packed_model(model).predict_raw(X_test))

    def test_n_jobs_and_chunking_invariance(self, data):
        X, y, X_test = data
        model = GradientBoostingRegressor(n_estimators=20, num_leaves=31, random_state=0)
        model.fit(X, y)
        packed = packed_model(model)
        reference = loop_predict_raw(model, X_test)
        for chunk in (64, 256, 2048):
            out = packed.predict_raw(X_test, chunk=chunk)
            assert np.array_equal(out, reference)
        with pytest.raises(ValueError):
            packed.predict_raw(X_test, chunk=100)
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
        assert packed.fingerprint == encoded.fingerprint
        assert np.array_equal(packed.predict_raw(X_test), loop_predict_raw(model, X_test))
