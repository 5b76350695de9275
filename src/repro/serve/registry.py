"""The model registry: hot-swappable forests keyed by structural identity.

Each registered model is loaded through :mod:`repro.forest.model_io`
(or handed over as an already-fitted forest-protocol object), encoded
once by the bitvector engine (serving latency must never pay a
first-request encode), and fingerprinted with
:func:`repro.forest.tree.forest_fingerprint`.  Encoding builds the node
table, GEF's structural contract: a forest it cannot walk is never
registered, nor is one with a non-finite leaf value or ``init_score_``,
whose scores no JSON response could carry.  The fingerprint — not the
id — is the *structural* identity: the surrogate cache keys fitted
GAMs by it, so re-registering the same forest under another id (or
hot-reloading an unchanged file) reuses the cached explanation.

``add`` with an existing id is a hot swap; ``reload`` re-reads a
file-backed model in place (safe against torn reads because
:func:`repro.forest.model_io.save_forest` writes atomically).  All
registry state lives behind one instance lock; entries themselves are
immutable snapshots, so readers hold no lock while predicting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.errors import ForestValidationError, ModelNotFoundError, ServeError
from ..core.node_table import forest_table
from ..forest.bitvector import BitvectorForest, bitvector_for
from ..forest.model_io import load_forest
from ..forest.tree import forest_fingerprint
from ..obs.trace import span as obs_span

__all__ = ["ModelEntry", "ModelRegistry"]


@dataclass(frozen=True)
class ModelEntry:
    """One registered model: the forest, its encoded form, its identity."""

    model_id: str
    model: object
    fingerprint: int
    bitvector: BitvectorForest | None = None
    path: Path | None = None
    n_features: int = field(default=0)

    def predict_raw(self, X: np.ndarray) -> np.ndarray:
        """Raw forest scores for ``X``, bitwise equal to ``model.predict_raw``.

        Uses the registry's pre-built bitvector encoding; a forest without
        one is scored by ``model.predict_raw``.
        """
        if self.bitvector is not None:
            return self.bitvector.predict_raw(X)
        return self.model.predict_raw(X)


class ModelRegistry:
    """Thread-safe map of model id -> :class:`ModelEntry` with hot add/remove.

    ``on_register`` is an optional ``on_register(entry, old_entry)`` hook
    invoked after every :meth:`add` (old_entry is ``None`` on first
    registration, the replaced entry on a hot swap), outside the registry
    lock — the ledger's model write-through point.
    """

    def __init__(self, on_register=None):
        self._lock = threading.Lock()
        self._entries: dict[str, ModelEntry] = {}
        self._on_register = on_register

    def _build_entry(self, model_id: str, source) -> ModelEntry:
        path = None
        if isinstance(source, (str, Path)):
            path = Path(source)
            with obs_span("serve.model_load", model=model_id):
                model = load_forest(path)
        else:
            model = source
        if not getattr(model, "trees_", None):
            raise ServeError(
                f"model {model_id!r} is not a fitted forest-protocol object"
            )
        if not np.isfinite(float(getattr(model, "init_score_", 0.0))):
            raise ForestValidationError(
                "forest init_score_ is not finite", stage="validate"
            )
        table = forest_table(model)  # raises for a forest it cannot walk
        leaves = np.flatnonzero(~table.internal & ~np.isfinite(table.value))
        if leaves.size:
            raise ForestValidationError(
                f"tree {table.tree[leaves[0]]}: non-finite leaf value",
                stage="validate",
            )
        return ModelEntry(
            model_id=model_id,
            model=model,
            fingerprint=forest_fingerprint(model),
            bitvector=bitvector_for(model),
            path=path,
            n_features=int(model.n_features_),
        )

    def add(self, model_id: str, source) -> ModelEntry:
        """Register (or hot-swap) a model under ``model_id``.

        ``source`` is either a path to a ``save_forest`` JSON file or an
        already-fitted forest-protocol object.  Returns the new entry;
        raises ``ForestValidationError`` for a forest it cannot walk or
        one with a non-finite leaf value or ``init_score_``.
        """
        entry = self._build_entry(str(model_id), source)
        with self._lock:
            old = self._entries.get(entry.model_id)
            self._entries[entry.model_id] = entry
        if self._on_register is not None:
            self._on_register(entry, old)
        return entry

    def reload(self, model_id: str) -> ModelEntry:
        """Re-read a file-backed model from its path (hot reload)."""
        entry = self.get(model_id)
        if entry.path is None:
            raise ServeError(
                f"model {model_id!r} was registered in-memory; nothing to "
                f"reload"
            )
        return self.add(model_id, entry.path)

    def get(self, model_id: str) -> ModelEntry:
        """The entry for ``model_id``; raises :class:`ModelNotFoundError`."""
        with self._lock:
            entry = self._entries.get(model_id)
            known = sorted(self._entries)
        if entry is None:
            raise ModelNotFoundError(
                f"no model {model_id!r} is registered "
                f"(known: {known or 'none'})"
            )
        return entry

    def remove(self, model_id: str) -> ModelEntry:
        """Unregister ``model_id``; returns the removed entry."""
        with self._lock:
            entry = self._entries.pop(model_id, None)
        if entry is None:
            raise ModelNotFoundError(f"no model {model_id!r} is registered")
        return entry

    def ids(self) -> list[str]:
        """Sorted ids of every registered model."""
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> list[ModelEntry]:
        """A snapshot list of every registered entry."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, model_id: str) -> bool:
        with self._lock:
            return model_id in self._entries
