"""A used forest is frozen once: copies leave the state behind, one crc32,
one node table.

The first encode, fingerprint or structural read marks every tree array
read-only and keeps the node table, the encoding and the fingerprint in
one state on the model (:func:`repro.forest.tree.frozen_state`).  A copy
or a pickle must not carry that state, and neither predicting,
explaining nor registering a used forest may checksum it or build its
node table again.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.core import GEF, ForestValidationError, validate_forest
from repro.core import node_table as node_table_mod
from repro.devtools import FOREST_FAULTS, corrupt_forest
from repro.forest import GradientBoostingRegressor, Tree
from repro.forest import tree as tree_mod
from repro.forest.bitvector import invalidate_model_caches
from repro.forest.engines import loop_predict_raw
from repro.forest.tree import STATE_KEY, forest_fingerprint
from repro.ledger import LedgerStore, record_model
from repro.serve.registry import ModelRegistry
from repro.xai import TreeShapExplainer


@pytest.fixture()
def used_forest():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, (600, 4))
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2]
    model = GradientBoostingRegressor(n_estimators=12, num_leaves=8, random_state=0)
    model.fit(X, y)
    X_test = rng.uniform(-1.0, 1.0, (300, 4))
    model.predict_raw(X_test)
    forest_fingerprint(model)
    return model, X_test


@pytest.fixture()
def crc_calls(monkeypatch):
    """Counts the calls of the structural checksum."""
    calls = []
    checksum = tree_mod._forest_fingerprint

    def counted(trees, init_score):
        calls.append(len(trees))
        return checksum(trees, init_score)

    monkeypatch.setattr(tree_mod, "_forest_fingerprint", counted)
    return calls


@pytest.fixture()
def table_builds(monkeypatch):
    """Counts the node tables built, by any reader."""
    builds = []
    build = node_table_mod._build

    def counted(trees, n_features):
        builds.append(len(trees))
        return build(trees, n_features)

    monkeypatch.setattr(node_table_mod, "_build", counted)
    return builds


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda model: pickle.loads(pickle.dumps(model))],
    ids=["deepcopy", "pickle"],
)
def test_copies_carry_no_state_and_stay_writable(used_forest, clone):
    model, X_test = used_forest
    assert STATE_KEY in model.__dict__
    copied = clone(model)
    assert STATE_KEY not in copied.__dict__
    assert forest_fingerprint(copied) == forest_fingerprint(model)
    copied = clone(model)
    copied.trees_[0].value *= 2.0  # the copy is not frozen
    out = copied.predict_raw(X_test)
    assert np.array_equal(out, loop_predict_raw(copied, X_test))
    assert not np.array_equal(out, model.predict_raw(X_test))
    # The original is still frozen and untouched.
    with pytest.raises(ValueError, match="read-only"):
        model.trees_[0].value[0] = 0.0
    assert np.array_equal(model.predict_raw(X_test), loop_predict_raw(model, X_test))


def test_a_new_tree_from_frozen_arrays_builds(used_forest):
    model, X_test = used_forest
    first = model.trees_[0]
    doubled = Tree(
        first.feature, first.threshold, first.left, first.right,
        first.value * 2.0, first.gain, first.n_samples,
    )
    assert np.array_equal(doubled.cover, first.n_samples)
    model.trees_[0] = doubled
    out = model.predict_raw(X_test)
    assert np.array_equal(out, loop_predict_raw(model, X_test))
    with pytest.raises(FrozenInstanceError):
        doubled.value = first.value


@pytest.mark.parametrize("fault", FOREST_FAULTS)
def test_corrupting_a_used_forest_still_fails_validation(used_forest, fault):
    model, _ = used_forest
    with pytest.raises(ForestValidationError):
        validate_forest(corrupt_forest(model, fault))
    validate_forest(model)


def test_explain_on_a_used_forest_checksums_nothing(used_forest, crc_calls):
    model, X_test = used_forest
    GEF(n_samples=1000, n_univariate=3, random_state=0).explain(model)
    model.predict_raw(X_test)
    assert crc_calls == []


def test_registration_and_ledger_share_one_checksum(tmp_path, crc_calls):
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, (400, 3))
    model = GradientBoostingRegressor(n_estimators=6, num_leaves=4, random_state=0)
    model.fit(X, X[:, 0] - X[:, 1])
    entry = ModelRegistry().add("m", model)
    record = record_model(LedgerStore(tmp_path), model)
    assert crc_calls == [6]
    assert record.key == str(entry.fingerprint)


def _clone_with(protocol):
    return lambda model: pickle.loads(pickle.dumps(model, protocol=protocol))


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy] + [_clone_with(p) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)],
    ids=["deepcopy"] + [f"protocol-{p}" for p in range(2, pickle.HIGHEST_PROTOCOL + 1)],
)
def test_every_copy_protocol_gives_writable_trees(used_forest, clone):
    model, X_test = used_forest
    copied = clone(model)
    for tree in copied.trees_:
        for name in ("feature", "threshold", "left", "right", "value", "gain",
                     "n_samples", "cover"):
            assert getattr(tree, name).flags.writeable, name
    assert np.array_equal(copied.predict_raw(X_test), model.predict_raw(X_test))
    copied = clone(model)
    copied.trees_[1].value *= 2.0
    copied.trees_[2].threshold[0] += 0.125
    out = copied.predict_raw(X_test)
    assert np.array_equal(out, loop_predict_raw(copied, X_test))
    assert not np.array_equal(out, model.predict_raw(X_test))


def test_explain_on_a_used_forest_builds_no_table(used_forest, table_builds):
    model, X_test = used_forest
    for strategy in ("gain-path", "count-path", "pair-gain"):
        GEF(
            n_samples=1000, n_univariate=3, n_interactions=2,
            interaction_strategy=strategy, random_state=0,
        ).explain(model)
    model.predict_raw(X_test)
    model.feature_importance("gain")
    TreeShapExplainer(model).shap_values(X_test[:5])
    assert table_builds == []


def test_registration_builds_one_table(table_builds):
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, (400, 3))
    model = GradientBoostingRegressor(n_estimators=6, num_leaves=4, random_state=0)
    model.fit(X, X[:, 0] - X[:, 1])
    ModelRegistry().add("m", model)
    assert table_builds == [6]
    validate_forest(model)
    assert table_builds == [6]


def test_each_cold_set_up_builds_one_table(used_forest, table_builds):
    model, X_test = used_forest
    gef = GEF(n_samples=1000, n_univariate=3, random_state=0)
    for cold in (1, 2):
        invalidate_model_caches(model)
        gef.explain(model)
        assert table_builds == [len(model.trees_)] * cold
