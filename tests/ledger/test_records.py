"""Typed records: model / surrogate / event schemas over the raw store."""

from __future__ import annotations

import pytest

from repro.core.config import KERNEL_VERSION, GEFConfig, explain_config_hash
from repro.core.errors import LedgerEntryNotFoundError, LedgerError
from repro.forest.tree import forest_fingerprint
from repro.ledger import (
    LedgerStore,
    config_from_archive,
    explanation_from_entry,
    forest_from_entry,
    kernel_version_of,
    latest_surrogate,
    model_entry_for,
    model_lineage,
    previous_model_entry,
    record_event,
    record_model,
    record_surrogate,
    stale_surrogate,
    surrogate_key,
)

from .conftest import GEF_SMALL


def test_record_model_roundtrip(tmp_path, ledger_forest):
    store = LedgerStore(tmp_path)
    entry = record_model(store, ledger_forest)
    assert entry.kind == "model"
    assert entry.key == str(forest_fingerprint(ledger_forest))
    rebuilt = forest_from_entry(entry)
    assert forest_fingerprint(rebuilt) == forest_fingerprint(ledger_forest)


def test_surrogate_entries_record_the_fit_kernel(tmp_path, ledger_forest,
                                               ledger_explanation):
    store = LedgerStore(tmp_path)
    fingerprint = forest_fingerprint(ledger_forest)
    entry = record_surrogate(store, ledger_explanation, fingerprint)
    config_hash = explain_config_hash(ledger_explanation.config)
    assert entry.payload["kernel_version"] == KERNEL_VERSION
    assert kernel_version_of(entry) == KERNEL_VERSION
    assert entry.key == f"{fingerprint}/{config_hash}/k{KERNEL_VERSION}"
    # Entries from before kernels were versioned: kernel 0, two-part key.
    assert surrogate_key(fingerprint, config_hash, 0) == f"{fingerprint}/{config_hash}"
    assert stale_surrogate(store, fingerprint, config_hash) is None
    payload = {k: v for k, v in entry.payload.items() if k != "kernel_version"}
    legacy = store.append(
        "surrogate", surrogate_key(fingerprint, config_hash, 0), payload
    )
    assert kernel_version_of(legacy) == 0
    assert stale_surrogate(store, fingerprint, config_hash) == legacy
    # Lookups by config read the current kernel's chain only.
    assert latest_surrogate(store, fingerprint, config_hash) == entry


def test_record_model_is_idempotent(tmp_path, ledger_forest):
    store = LedgerStore(tmp_path)
    first = record_model(store, ledger_forest)
    again = record_model(store, ledger_forest)
    assert again.entry_id == first.entry_id
    assert len(store) == 1


def test_record_surrogate_roundtrip(tmp_path, ledger_forest,
                                    ledger_explanation):
    store = LedgerStore(tmp_path)
    fingerprint = forest_fingerprint(ledger_forest)
    entry = record_surrogate(store, ledger_explanation, fingerprint)
    config_hash = explain_config_hash(ledger_explanation.config)
    assert entry.key == surrogate_key(fingerprint, config_hash)
    assert entry.payload["config_hash"] == config_hash
    rebuilt = explanation_from_entry(entry)
    assert rebuilt.features == ledger_explanation.features
    # Idempotent too: the archive is deterministic up to timings, and
    # the head-payload check only fires on a byte-identical payload.
    again = record_surrogate(store, ledger_explanation, fingerprint)
    assert again.entry_id == entry.entry_id


def test_record_event_chains_and_repeats(tmp_path):
    store = LedgerStore(tmp_path)
    first = record_event(store, "register", "m1", {"fingerprint": 7})
    second = record_event(store, "register", "m1", {"fingerprint": 7})
    # Same action twice is two events — the audit trail never swallows
    # a repeat; they differ through their parent links.
    assert second.entry_id != first.entry_id
    assert second.parent == first.entry_id
    assert first.payload["action"] == "register"
    assert isinstance(first.payload["at_s"], float)


def test_model_entry_for_missing_raises(tmp_path):
    store = LedgerStore(tmp_path)
    with pytest.raises(LedgerEntryNotFoundError):
        model_entry_for(store, 12345)


def test_forest_from_entry_rejects_wrong_kind(tmp_path):
    store = LedgerStore(tmp_path)
    event = record_event(store, "x", "k")
    with pytest.raises(LedgerError):
        forest_from_entry(event)
    with pytest.raises(LedgerError):
        explanation_from_entry(event)


def test_forest_from_entry_detects_tampered_archive(tmp_path, ledger_forest):
    store = LedgerStore(tmp_path)
    entry = record_model(store, ledger_forest)
    tampered = dict(entry.payload)
    tampered["fingerprint"] = int(tampered["fingerprint"]) + 1
    forged = entry.__class__(
        seq=entry.seq, entry_id=entry.entry_id, kind=entry.kind,
        key=entry.key, parent=entry.parent, payload=tampered,
    )
    with pytest.raises(LedgerError):
        forest_from_entry(forged)


def test_latest_surrogate_lookup(tmp_path, ledger_forest, ledger_forest_v2,
                                 ledger_explanation, ledger_explanation_v2):
    store = LedgerStore(tmp_path)
    fp1 = forest_fingerprint(ledger_forest)
    fp2 = forest_fingerprint(ledger_forest_v2)
    e1 = record_surrogate(store, ledger_explanation, fp1)
    e2 = record_surrogate(store, ledger_explanation_v2, fp2)
    config_hash = explain_config_hash(ledger_explanation.config)
    assert latest_surrogate(store, fp1, config_hash).entry_id == e1.entry_id
    assert latest_surrogate(store, fp1).entry_id == e1.entry_id
    assert latest_surrogate(store, fp2).entry_id == e2.entry_id
    assert latest_surrogate(store, 999999) is None
    assert latest_surrogate(store, fp1, "deadbeefdeadbeef") is None


def test_config_from_archive_roundtrips(ledger_explanation):
    from repro.core.explanation_io import explanation_to_dict

    archive = explanation_to_dict(ledger_explanation)["config"]
    config = config_from_archive(archive)
    assert isinstance(config, GEFConfig)
    assert explain_config_hash(config) == explain_config_hash(
        ledger_explanation.config
    )
    assert config.n_univariate == GEF_SMALL["n_univariate"]


def test_model_lineage_and_rollback_target(tmp_path, ledger_forest,
                                           ledger_forest_v2):
    store = LedgerStore(tmp_path)
    fp1 = forest_fingerprint(ledger_forest)
    fp2 = forest_fingerprint(ledger_forest_v2)
    m1 = record_model(store, ledger_forest)
    m2 = record_model(store, ledger_forest_v2)
    record_event(store, "register", "bench",
                 {"fingerprint": fp1, "model_entry": m1.entry_id})
    record_event(store, "hot-swap", "bench",
                 {"fingerprint": fp2, "model_entry": m2.entry_id,
                  "from_fingerprint": fp1})
    lineage = model_lineage(store, "bench")
    assert [v["fingerprint"] for v in lineage] == [fp1, fp2]
    assert [v["action"] for v in lineage] == ["register", "hot-swap"]
    target = previous_model_entry(store, "bench", fp2)
    assert target.entry_id == m1.entry_id
    # An empty lineage has nothing to roll back to.
    with pytest.raises(LedgerEntryNotFoundError):
        previous_model_entry(LedgerStore(tmp_path / "empty"), "bench", fp1)


def test_previous_model_entry_skips_unarchived_versions(tmp_path,
                                                        ledger_forest):
    store = LedgerStore(tmp_path)
    fp1 = forest_fingerprint(ledger_forest)
    record_event(store, "register", "m", {"fingerprint": fp1})
    # Lineage knows fp1, but no model entry was ever recorded for it.
    with pytest.raises(LedgerEntryNotFoundError):
        previous_model_entry(store, "m", fp1 + 1)
