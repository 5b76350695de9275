"""Bit-for-bit verification: refit from the ledger alone and compare."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import LedgerError
from repro.forest.tree import forest_fingerprint
from repro.ledger import (
    LedgerStore,
    record_event,
    record_model,
    record_surrogate,
    render_verify,
    verify_entry,
)


@pytest.fixture()
def ledgered(tmp_path, ledger_forest, ledger_explanation):
    store = LedgerStore(tmp_path)
    fingerprint = forest_fingerprint(ledger_forest)
    model_entry = record_model(store, ledger_forest)
    surrogate_entry = record_surrogate(store, ledger_explanation, fingerprint)
    return store, model_entry, surrogate_entry


def test_verify_model_entry(ledgered):
    store, model_entry, _ = ledgered
    report = verify_entry(store, model_entry.entry_id)
    assert report["match"] is True
    assert report["kind"] == "model"
    assert report["n_trees"] > 0
    assert "VERIFIED" in render_verify(report)


def test_verify_surrogate_bit_for_bit_from_fresh_store(ledgered, tmp_path):
    _, _, surrogate_entry = ledgered
    # A fresh store (fresh replay — "from the ledger alone") must refit
    # GEF from the archived forest + config and match byte for byte.
    fresh = LedgerStore(tmp_path)
    report = verify_entry(fresh, surrogate_entry.short_id)
    assert report["match"] is True
    assert report["mismatches"] == []
    assert "bit for bit" in render_verify(report)


def test_verify_detects_tampered_surrogate(ledgered, tmp_path):
    store, _, surrogate_entry = ledgered
    name = f"{surrogate_entry.seq:08d}-{surrogate_entry.short_id}.json"
    path = tmp_path / "segments" / name
    data = json.loads(path.read_text())
    coef = data["payload"]["explanation"]["gam"]["coef"]
    coef[0] += 1e-9  # a one-ULP-scale nudge must not survive verification
    path.write_text(json.dumps(data))
    # Tampering broke the content address, so a fresh replay refuses the
    # segment outright — the tamper cannot even masquerade as a version.
    assert len(LedgerStore(tmp_path)) < len(store)


def test_verify_mismatch_reports_paths(ledgered):
    store, _, surrogate_entry = ledgered
    # Forge an in-memory entry whose archive diverges (content address
    # recomputed so verification reaches the refit-and-compare stage).
    from repro.ledger import entry_id_for

    payload = json.loads(json.dumps(surrogate_entry.payload))
    payload["explanation"]["gam"]["coef"][0] += 0.5
    forged_id = entry_id_for(
        "surrogate", surrogate_entry.key, payload, surrogate_entry.parent
    )
    forged = surrogate_entry.__class__(
        seq=surrogate_entry.seq + 100, entry_id=forged_id, kind="surrogate",
        key=surrogate_entry.key, parent=surrogate_entry.parent,
        payload=payload,
    )
    store._by_id[forged_id] = forged  # inject without touching disk
    report = verify_entry(store, forged_id)
    assert report["match"] is False
    assert any("coef" in p for p in report["mismatches"])
    assert "MISMATCH" in render_verify(report)


def test_verify_event_entry_raises(ledgered):
    store, _, _ = ledgered
    event = record_event(store, "x", "k")
    with pytest.raises(LedgerError):
        verify_entry(store, event.entry_id)
