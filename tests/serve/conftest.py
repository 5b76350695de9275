"""Serving test fixtures: clean observability state, shared small models.

No test under ``tests/serve`` may sleep on the wall clock: deadline and
batching behavior is driven deterministically through the pipeline clock
(:func:`repro.obs.trace.advance`) and explicit synchronization points
(:meth:`MicroBatcher.kick`, :meth:`MicroBatcher.wait_for_depth`,
``threading.Event``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_d_prime
from repro.forest import (
    GradientBoostingRegressor,
    forest_from_dict,
    forest_to_dict,
    get_prediction_engine,
    set_prediction_engine,
)
from repro.forest.tree import LEAF
from repro.obs import clear_span_observers, disable_metrics, disable_tracing


@pytest.fixture(autouse=True)
def _serve_clean_slate():
    """Reset the global observability knobs around every serving test.

    The synthetic clock offset is deliberately left alone: it only ever
    grows (keeping the pipeline clock monotonic) and every consumer
    measures deltas.
    """
    disable_tracing()
    disable_metrics()
    clear_span_observers()
    yield
    disable_tracing()
    disable_metrics()
    clear_span_observers()


@pytest.fixture(scope="session")
def serve_data():
    """A small D' split reused by every serving test."""
    return make_d_prime(n=1_200, seed=7)


@pytest.fixture(scope="session")
def serve_forest(serve_data):
    """A 25-tree GBDT: big enough to batch, small enough to fit fast."""
    model = GradientBoostingRegressor(
        n_estimators=25, num_leaves=12, learning_rate=0.2, random_state=0
    )
    model.fit(serve_data.X_train, serve_data.y_train)
    return model


@pytest.fixture(scope="session")
def nan_forest(serve_forest):
    """A copy of ``serve_forest`` with one NaN threshold.

    The bitvector encoding declines such a forest, so it has no engine
    state to export and is only ever served through the per-tree loop.
    """
    model = forest_from_dict(forest_to_dict(serve_forest))
    tree = model.trees_[0]
    tree.threshold[int(np.flatnonzero(tree.feature != LEAF)[0])] = np.nan
    return model


@pytest.fixture(scope="session")
def serve_rows(serve_data):
    """A deterministic pool of request rows (distinct from training)."""
    rng = np.random.default_rng(2024)
    idx = rng.permutation(len(serve_data.X_test))[:256]
    return np.ascontiguousarray(serve_data.X_test[idx])


@pytest.fixture()
def loop_predict():
    """``loop_predict(model, X)``: scores from the per-tree loop engine.

    The loop is the equivalence reference every served answer must match
    bitwise; the previously selected engine is restored afterwards.
    """

    def predict(model, X):
        previous = get_prediction_engine()
        set_prediction_engine("loop")
        try:
            return model.predict_raw(X)
        finally:
            set_prediction_engine(previous)

    return predict
