"""The typed thread-safety registry: GlobalEntry validation and lookup."""

from __future__ import annotations

import pytest

from repro.devtools import THREAD_SAFETY_REGISTRY, GlobalEntry, get_entry, is_registered
from repro.devtools.registry import DISCIPLINES


class TestGlobalEntryValidation:
    def test_unknown_discipline_is_rejected(self):
        with pytest.raises(ValueError, match="unregistered discipline"):
            GlobalEntry(module="m", name="g", discipline="vibes")

    def test_lock_discipline_requires_lock_name(self):
        with pytest.raises(ValueError, match="must be given together"):
            GlobalEntry(module="m", name="g", discipline="lock")

    def test_frozen_discipline_rejects_lock_name(self):
        with pytest.raises(ValueError, match="must be given together"):
            GlobalEntry(
                module="m", name="g",
                discipline="frozen-after-import", lock="_lock",
            )

    def test_atomic_reads_only_for_lock_discipline(self):
        with pytest.raises(ValueError, match="atomic_reads only applies"):
            GlobalEntry(
                module="m", name="g",
                discipline="frozen-after-import", atomic_reads=("f",),
            )

    def test_entries_are_immutable(self):
        entry = GlobalEntry(
            module="m", name="g", discipline="lock", lock="_lock"
        )
        with pytest.raises(AttributeError):
            entry.lock = "_other"

    def test_legacy_string_forms(self):
        locked = GlobalEntry(
            module="m", name="g", discipline="lock", lock="_lock"
        )
        frozen = GlobalEntry(
            module="m", name="g", discipline="frozen-after-import"
        )
        assert locked.legacy == "lock:_lock"
        assert frozen.legacy == "frozen-after-import"


class TestCommittedRegistry:
    def test_keys_match_entry_identity(self):
        for (module, name), entry in THREAD_SAFETY_REGISTRY.items():
            assert entry.module == module
            assert entry.name == name

    def test_every_entry_has_a_rationale(self):
        for entry in THREAD_SAFETY_REGISTRY.values():
            assert entry.rationale, f"{entry.module}.{entry.name}"

    def test_disciplines_are_registered(self):
        for entry in THREAD_SAFETY_REGISTRY.values():
            assert entry.discipline in DISCIPLINES


class TestLookup:
    def test_is_registered_backward_compat(self):
        assert is_registered("repro.core.numerics", "_mode")
        assert not is_registered("repro.core.numerics", "_nonexistent")

    def test_get_entry(self):
        entry = get_entry("repro.core.numerics", "_mode")
        assert entry is not None
        assert entry.discipline == "lock"
        assert entry.lock == "_mode_lock"
        assert get_entry("nowhere", "nothing") is None
