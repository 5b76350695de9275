"""Versioned model + explanation ledger (audit, diff, rollback).

An append-only, content-addressed transaction log for the serving
estate: every model registration, fitted surrogate and lifecycle event
(hot swap, rollback, SLO transition) becomes an immutable entry whose id
is the SHA-256 of its canonical content.  The store is crash-safe
(atomic segment writes, replayable index), stdlib-only, and safe under
concurrent appenders; ``repro ledger verify`` reproduces any served
explanation bit-for-bit from the ledger alone.

Layout: :mod:`~repro.ledger.store` (the raw store),
:mod:`~repro.ledger.records` (typed model/surrogate/event records),
:mod:`~repro.ledger.diff` (which splines and terms changed between two
versions) and :mod:`~repro.ledger.verify` (refit-and-compare audit).
"""

from .diff import diff_entries, diff_surrogates, render_diff, term_identity
from .records import (
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
from .store import (
    ENTRY_KINDS,
    SCHEMA_VERSION,
    LedgerEntry,
    LedgerStore,
    entry_id_for,
)
from .verify import render_verify, verify_entry

__all__ = [
    "ENTRY_KINDS",
    "LedgerEntry",
    "LedgerStore",
    "SCHEMA_VERSION",
    "config_from_archive",
    "diff_entries",
    "diff_surrogates",
    "entry_id_for",
    "explanation_from_entry",
    "forest_from_entry",
    "kernel_version_of",
    "latest_surrogate",
    "model_entry_for",
    "model_lineage",
    "previous_model_entry",
    "record_event",
    "record_model",
    "record_surrogate",
    "render_diff",
    "render_verify",
    "stale_surrogate",
    "surrogate_key",
    "term_identity",
    "verify_entry",
]
