"""The prediction-engine knob and the two dispatch functions models call.

Two engines exist, both bitwise identical:

* ``bitvector`` — traversal-free QuickScorer-style evaluation
  (:mod:`repro.forest.bitvector`), the default;
* ``loop`` — the per-tree loop, implemented by the models themselves and
  kept as the equivalence reference.

Dispatch returns ``None`` to mean "run the loop": when the loop is
selected, or when the bitvector encoding declines a forest (non-finite
thresholds, trees wider than ``64 * MAX_LEAF_WORDS`` leaves, prefix
tables over ``MAX_TABLE_BYTES``).

Engine selection is a process-wide knob guarded by ``_state_lock``
(registered in the thread-safety registry); reads on the hot path are
single atomic loads under the GIL and stay lock-free.
"""

from __future__ import annotations

import threading

import numpy as np

from .bitvector import bitvector_for, invalidate_bitvector

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "dispatch_predict_raw",
    "dispatch_staged_predict_raw",
    "get_prediction_engine",
    "invalidate_model_caches",
    "set_prediction_engine",
]

#: Every selectable engine name.
ENGINES = ("bitvector", "loop")

#: The engine selected at process start.
DEFAULT_ENGINE = "bitvector"

#: Fall back to the loop for staged prediction above this many
#: (tree, row) leaf values (the staged path materializes all of them).
_STAGED_MAX_ELEMENTS = 25_000_000

# Module-state discipline (see repro.devtools.registry): the knob is
# written under _state_lock; hot-path reads are single atomic loads.
_state_lock = threading.Lock()
_engine = DEFAULT_ENGINE


def set_prediction_engine(name: str) -> None:
    """Select the process-wide prediction engine (one of :data:`ENGINES`)."""
    if name not in ENGINES:
        raise ValueError(  # repro: allow(raise-outside-taxonomy) harness misuse, not a pipeline failure
            f"unknown engine {name!r}; choose from {ENGINES}"
        )
    global _engine
    with _state_lock:
        _engine = name


def get_prediction_engine() -> str:
    """The currently selected prediction engine name."""
    return _engine


def _encoded(model):
    """The model's bitvector encoding, or ``None`` to run the loop."""
    if _engine == "loop":
        return None
    return bitvector_for(model)


def dispatch_predict_raw(model, X):
    """Bitvector ``predict_raw`` for ``model``, or ``None`` to run the loop."""
    encoded = _encoded(model)
    if encoded is None:
        return None
    return encoded.predict_raw(X)


def dispatch_staged_predict_raw(model, X):
    """Bitvector staged-prediction generator, or ``None`` to run the loop."""
    encoded = _encoded(model)
    if encoded is None:
        return None
    if encoded.n_trees * np.atleast_2d(X).shape[0] > _STAGED_MAX_ELEMENTS:
        return None
    return encoded.staged_predict_raw(X)


def invalidate_model_caches(model) -> None:
    """Drop the model's cached bitvector encoding (call after mutation).

    Mutations are also caught automatically by the structural fingerprint
    check in :func:`~repro.forest.bitvector.bitvector_for`; this hook
    just makes the common sites (fit, early-stopping truncation)
    explicit and cheap.
    """
    invalidate_bitvector(model)
