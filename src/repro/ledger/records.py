"""Typed record constructors over the raw :class:`~repro.ledger.store.LedgerStore`.

The store speaks in opaque ``(kind, key, payload)`` triples; this module
fixes the three record schemas of the versioned serving estate:

* **model** — keyed by the forest's structural fingerprint, payload is
  the full :func:`~repro.forest.model_io.forest_to_dict` archive, so a
  rollback (or an audit replay) can rebuild the exact forest from the
  ledger alone.
* **surrogate** — keyed by ``"{fingerprint}/{config_hash}"``, payload is
  the full explanation archive including the persisted
  :class:`~repro.core.stages.StageReport`; verification refits GEF from
  the recorded forest + config and asserts a bit-for-bit match (timing
  keys excluded).
* **event** — keyed by a lifecycle chain (a model id, ``"slo"``),
  payload records the action, the pipeline-clock timestamp and
  free-form context — the audit trail of hot swaps, rollbacks and SLO
  transitions.
"""

from __future__ import annotations

from ..core.config import GEFConfig, explain_config_hash
from ..core.explanation import GEFExplanation
from ..core.explanation_io import explanation_from_dict, explanation_to_dict
from ..core.errors import LedgerEntryNotFoundError, LedgerError
from ..forest.model_io import forest_from_dict, forest_to_dict
from ..forest.tree import forest_fingerprint
from ..obs.trace import monotonic
from .store import LedgerEntry, LedgerStore

__all__ = [
    "config_from_archive",
    "explanation_from_entry",
    "forest_from_entry",
    "latest_surrogate",
    "model_entry_for",
    "model_lineage",
    "previous_model_entry",
    "record_event",
    "record_model",
    "record_surrogate",
    "surrogate_key",
]


def surrogate_key(fingerprint: int, config_hash: str) -> str:
    """The surrogate chain key: forest identity × explain configuration."""
    return f"{int(fingerprint)}/{config_hash}"


def record_model(store: LedgerStore, model) -> LedgerEntry:
    """Append the full forest archive, keyed by its fingerprint.

    Idempotent per content: re-registering an unchanged forest
    deduplicates into the existing entry.
    """
    fingerprint = forest_fingerprint(model)
    payload = {
        "fingerprint": fingerprint,
        "n_features": int(getattr(model, "n_features_", 0)),
        "model": forest_to_dict(model),
    }
    head = store.head("model", str(fingerprint))
    if head is not None and head.payload == payload:
        return head
    return store.append("model", str(fingerprint), payload)


def record_surrogate(
    store: LedgerStore, explanation: GEFExplanation, fingerprint: int
) -> LedgerEntry:
    """Append a fitted surrogate's archive under its ledger coordinate."""
    config_hash = explain_config_hash(explanation.config)
    payload = {
        "fingerprint": int(fingerprint),
        "config_hash": config_hash,
        "explanation": explanation_to_dict(explanation),
    }
    key = surrogate_key(fingerprint, config_hash)
    head = store.head("surrogate", key)
    if head is not None and head.payload == payload:
        return head
    return store.append("surrogate", key, payload)


def record_event(
    store: LedgerStore, action: str, key: str, data: dict | None = None
) -> LedgerEntry:
    """Append one lifecycle event (hot swap, rollback, SLO transition)."""
    payload = {
        "action": str(action),
        "at_s": round(monotonic(), 6),
    }
    if data:
        payload.update(data)
    return store.append("event", key, payload)


def model_entry_for(store: LedgerStore, fingerprint: int) -> LedgerEntry:
    """The newest model entry for a fingerprint; raises when unrecorded."""
    entry = store.head("model", str(int(fingerprint)))
    if entry is None:
        raise LedgerEntryNotFoundError(
            f"no model entry for fingerprint {fingerprint}"
        )
    return entry


def forest_from_entry(entry: LedgerEntry):
    """Rebuild the exact forest a model entry recorded."""
    if entry.kind != "model":
        raise LedgerError(
            f"entry {entry.short_id} is a {entry.kind} entry, not a model"
        )
    model = forest_from_dict(entry.payload["model"])
    rebuilt = forest_fingerprint(model)
    recorded = int(entry.payload["fingerprint"])
    if rebuilt != recorded:
        raise LedgerError(
            f"model entry {entry.short_id} rebuilds to fingerprint "
            f"{rebuilt}, not the recorded {recorded}"
        )
    return model


def explanation_from_entry(entry: LedgerEntry) -> GEFExplanation:
    """Rebuild the fitted surrogate a surrogate entry recorded."""
    if entry.kind != "surrogate":
        raise LedgerError(
            f"entry {entry.short_id} is a {entry.kind} entry, not a surrogate"
        )
    return explanation_from_dict(entry.payload["explanation"])


def latest_surrogate(
    store: LedgerStore, fingerprint: int, config_hash: str | None = None
) -> LedgerEntry | None:
    """The newest surrogate entry for a fingerprint (and config hash).

    With ``config_hash`` the lookup is an O(1) chain-head read; without
    it the newest surrogate of *any* configuration wins.
    """
    if config_hash is not None:
        return store.head("surrogate", surrogate_key(fingerprint, config_hash))
    candidates = [
        e
        for e in store.entries(kind="surrogate")
        if int(e.payload.get("fingerprint", -1)) == int(fingerprint)
    ]
    return candidates[-1] if candidates else None


def config_from_archive(archive: dict) -> GEFConfig:
    """Rebuild the :class:`GEFConfig` recorded in an explanation archive."""
    import numpy as np

    config_data = dict(archive)
    if config_data.get("lam_grid") is not None:
        config_data["lam_grid"] = np.asarray(config_data["lam_grid"])
    return GEFConfig(**config_data)


def model_lineage(store: LedgerStore, model_id: str) -> list[dict]:
    """The fingerprint history of one served model id, oldest first.

    Walks the model id's event chain and reports each version the id
    pointed at: fingerprint, the triggering action, the model entry id
    (when recorded) and the pipeline-clock timestamp.
    """
    versions: list[dict] = []
    for event in store.entries(kind="event", key=str(model_id)):
        fingerprint = event.payload.get("fingerprint")
        if fingerprint is None:
            continue
        versions.append(
            {
                "fingerprint": int(fingerprint),
                "action": event.payload.get("action"),
                "event": event.entry_id,
                "model_entry": event.payload.get("model_entry"),
                "at_s": event.payload.get("at_s"),
            }
        )
    return versions


def previous_model_entry(
    store: LedgerStore, model_id: str, current_fingerprint: int
) -> LedgerEntry:
    """The model entry of the newest version preceding the current one.

    The rollback target: the most recent fingerprint in the model id's
    lineage that differs from ``current_fingerprint`` and has a model
    archive on the ledger.  Raises when the lineage holds no such
    version.
    """
    for version in reversed(model_lineage(store, model_id)):
        if version["fingerprint"] == int(current_fingerprint):
            continue
        return model_entry_for(store, version["fingerprint"])
    raise LedgerEntryNotFoundError(
        f"model {model_id!r} has no recorded version older than "
        f"fingerprint {current_fingerprint} to roll back to"
    )
