"""ModelRegistry: loading, fingerprints, hot add/remove/reload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelNotFoundError, ServeError
from repro.forest import forest_fingerprint, load_forest, save_forest
from repro.serve import ModelRegistry


def test_add_in_memory_and_predict(serve_forest, serve_rows, loop_predict):
    registry = ModelRegistry()
    entry = registry.add("demo", serve_forest)
    assert entry.model_id == "demo"
    assert entry.fingerprint == forest_fingerprint(serve_forest)
    assert entry.n_features == serve_forest.n_features_
    assert "demo" in registry and len(registry) == 1
    direct = loop_predict(serve_forest, serve_rows)
    np.testing.assert_array_equal(entry.predict_raw(serve_rows), direct)


def test_add_from_file_shares_fingerprint(serve_forest, tmp_path):
    path = tmp_path / "model.json"
    save_forest(serve_forest, path)
    registry = ModelRegistry()
    entry = registry.add("disk", path)
    assert entry.path == path
    # Serialization round-trips the structure, so the structural identity
    # matches the in-memory original: surrogate fits would be shared.
    assert entry.fingerprint == forest_fingerprint(serve_forest)


def test_get_unknown_raises_with_known_ids(serve_forest):
    registry = ModelRegistry()
    registry.add("demo", serve_forest)
    with pytest.raises(ModelNotFoundError, match="demo"):
        registry.get("nope")


def test_remove_and_hot_swap(serve_forest, serve_data):
    registry = ModelRegistry()
    registry.add("m", serve_forest)
    from repro.forest import GradientBoostingRegressor

    other = GradientBoostingRegressor(
        n_estimators=5, num_leaves=4, random_state=1
    )
    other.fit(serve_data.X_train, serve_data.y_train)
    swapped = registry.add("m", other)  # hot swap under the same id
    assert len(registry) == 1
    assert swapped.fingerprint != forest_fingerprint(serve_forest)
    removed = registry.remove("m")
    assert removed.model_id == "m"
    with pytest.raises(ModelNotFoundError):
        registry.remove("m")


def test_reload_rereads_the_file(serve_forest, serve_data, tmp_path):
    path = tmp_path / "model.json"
    save_forest(serve_forest, path)
    registry = ModelRegistry()
    before = registry.add("m", path)
    from repro.forest import GradientBoostingRegressor

    other = GradientBoostingRegressor(
        n_estimators=5, num_leaves=4, random_state=1
    )
    other.fit(serve_data.X_train, serve_data.y_train)
    save_forest(other, path)  # atomic replace under the registry's feet
    after = registry.reload("m")
    assert after.fingerprint != before.fingerprint
    assert after.fingerprint == forest_fingerprint(load_forest(path))


def test_reload_in_memory_model_refuses(serve_forest):
    registry = ModelRegistry()
    registry.add("m", serve_forest)
    with pytest.raises(ServeError, match="in-memory"):
        registry.reload("m")


def test_unfitted_model_rejected():
    from repro.forest import GradientBoostingRegressor

    registry = ModelRegistry()
    with pytest.raises(ServeError, match="not a fitted"):
        registry.add("raw", GradientBoostingRegressor(n_estimators=3))
