"""Structural surrogate diff: term identity, coef deltas, rendering."""

from __future__ import annotations

import pytest

from repro.core.errors import LedgerError
from repro.forest.tree import forest_fingerprint
from repro.ledger import (
    LedgerStore,
    diff_entries,
    diff_surrogates,
    record_event,
    record_surrogate,
    render_diff,
    term_identity,
)


def test_term_identity_labels():
    assert term_identity({"type": "intercept"}) == "intercept"
    assert term_identity({"type": "spline", "feature": 3}) == "spline(x3)"
    assert term_identity({"type": "linear", "feature": 0}) == "linear(x0)"
    assert term_identity({"type": "factor", "feature": 2}) == "factor(x2)"
    assert term_identity({"type": "tensor", "features": [1, 4]}) == (
        "tensor(x1,x4)"
    )


def _ledgered(tmp_path, forests, explanations):
    store = LedgerStore(tmp_path)
    entries = []
    for forest, explanation in zip(forests, explanations):
        entries.append(
            record_surrogate(store, explanation, forest_fingerprint(forest))
        )
    return store, entries


def test_diff_identical_entries_is_all_unchanged(
    tmp_path, ledger_forest, ledger_explanation
):
    store, (entry,) = _ledgered(
        tmp_path, [ledger_forest], [ledger_explanation]
    )
    diff = diff_surrogates(entry.payload, entry.payload)
    assert diff["identical_forest"] is True
    assert diff["terms"]["added"] == []
    assert diff["terms"]["removed"] == []
    assert diff["terms"]["changed"] == []
    assert len(diff["terms"]["unchanged"]) >= 2  # intercept + >=1 spline
    assert diff["config_changed"] == []
    for cell in diff["fidelity"].values():
        assert cell["delta"] == pytest.approx(0.0)


def test_diff_across_versions_reports_changes(
    tmp_path, ledger_forest, ledger_forest_v2,
    ledger_explanation, ledger_explanation_v2,
):
    store, (a, b) = _ledgered(
        tmp_path,
        [ledger_forest, ledger_forest_v2],
        [ledger_explanation, ledger_explanation_v2],
    )
    diff = diff_entries(a, b)
    assert diff["identical_forest"] is False
    assert diff["a"]["fingerprint"] != diff["b"]["fingerprint"]
    terms = diff["terms"]
    touched = (
        terms["added"] + terms["removed"]
        + [c["term"] for c in terms["changed"]]
    )
    # Different forests must move *something* — coefficients at minimum.
    assert touched
    for item in terms["changed"]:
        assert item["max_abs_coef_delta"] > 0 or item["basis_changed"]
    # Same explain config on both sides.
    assert diff["config_changed"] == []


def test_render_diff_mentions_the_headline_counts(
    tmp_path, ledger_forest, ledger_forest_v2,
    ledger_explanation, ledger_explanation_v2,
):
    store, (a, b) = _ledgered(
        tmp_path,
        [ledger_forest, ledger_forest_v2],
        [ledger_explanation, ledger_explanation_v2],
    )
    text = render_diff(diff_entries(a, b))
    assert "SURROGATE DIFF" in text
    assert "same forest: False" in text
    assert "terms:" in text


def test_diff_entries_rejects_non_surrogates(tmp_path):
    store = LedgerStore(tmp_path)
    event = record_event(store, "x", "k")
    with pytest.raises(LedgerError):
        diff_entries(event, event)


def test_diff_surrogates_rejects_bare_payloads():
    with pytest.raises(LedgerError):
        diff_surrogates({"no": "archive"}, {"no": "archive"})
