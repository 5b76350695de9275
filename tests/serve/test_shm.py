"""Shared-memory export/attach: parity, lifecycle hygiene, leak tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve.app import ServeApp
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.registry import ModelRegistry
from repro.serve.shm import (
    attach_block,
    attach_model,
    export_block,
    export_model,
    live_segments,
)
from repro.serve.worker import install_shared_model


@pytest.fixture()
def entry(serve_forest):
    return ModelRegistry().add("m", serve_forest)


def _export(entry):
    return export_model(
        entry.model_id, entry.fingerprint, entry.n_features, entry.bitvector
    )


class TestExportAttach:
    def test_block_round_trip(self):
        arrays = {
            "a": np.arange(7, dtype=np.float64),
            "b": np.arange(12, dtype=np.uint32).reshape(3, 4),
            "empty": np.empty(0, dtype=np.int64),
        }
        block, segment = export_block("t", arrays, {"k": 3})
        try:
            shm, views = attach_block(block)
            assert set(views) == set(arrays)
            for key in arrays:
                np.testing.assert_array_equal(views[key], arrays[key])
                assert views[key].dtype == arrays[key].dtype
                assert not views[key].flags.writeable
            assert block.meta == {"k": 3}
            shm.close()
        finally:
            assert segment.unlink() is True

    def test_offsets_are_aligned(self):
        arrays = {"x": np.ones(3), "y": np.ones(5), "z": np.ones(1)}
        block, segment = export_block("t", arrays, {})
        try:
            assert all(spec.offset % 64 == 0 for spec in block.arrays)
        finally:
            segment.unlink()

    def test_attached_engines_bitwise_identical(
        self, entry, serve_rows, loop_predict
    ):
        bundle, segment = _export(entry)
        try:
            bitvector, shm = attach_model(bundle)
            np.testing.assert_array_equal(
                bitvector.predict_raw(serve_rows),
                loop_predict(entry.model, serve_rows),
            )
            assert bitvector.fingerprint == entry.fingerprint
            shm.close()
        finally:
            segment.unlink()

    def test_install_shared_model_serves_predict(
        self, entry, serve_rows, loop_predict
    ):
        bundle, segment = _export(entry)
        app = ServeApp()
        try:
            installed, _shm = install_shared_model(app, bundle)
            assert installed.fingerprint == entry.fingerprint
            scores = installed.predict_raw(serve_rows[:16])
            np.testing.assert_array_equal(
                scores, loop_predict(entry.model, serve_rows[:16])
            )
        finally:
            app.close(drain=True)
            segment.unlink()


class TestLifecycleHygiene:
    def test_live_segments_tracks_ownership(self, entry):
        before = set(live_segments())
        bundle, segment = _export(entry)
        assert segment.name in set(live_segments())
        assert segment.unlink() is True
        assert set(live_segments()) == before

    def test_unlink_is_idempotent(self, entry):
        bundle, segment = _export(entry)
        assert segment.unlink() is True
        assert segment.unlink() is False

    def test_attach_after_unlink_fails(self, entry):
        bundle, segment = _export(entry)
        segment.unlink()
        with pytest.raises(FileNotFoundError):
            attach_block(bundle.bitvector)

    def test_export_uses_fresh_segment_names(self, entry):
        first, segment_a = _export(entry)
        second, segment_b = _export(entry)
        try:
            assert first.bitvector.segment != second.bitvector.segment
        finally:
            segment_a.unlink()
            segment_b.unlink()

    def test_missing_engine_exports_none(self, entry, nan_forest):
        # The fleet must export no segment for a forest the bitvector
        # encoding declines and assign it no worker; a hot swap onto it
        # must drop the old assignment and its segment.
        unencodable = ModelRegistry().add("m", nan_forest)
        assert unencodable.bitvector is None
        fleet = Fleet(FleetConfig(workers=1))
        before = set(live_segments())
        try:
            assert fleet.add_model(entry) == fleet.assignment("m") != []
            assert len(set(live_segments()) - before) == 1
            assert fleet.add_model(unencodable) == []
            assert fleet.assignment("m") == []
            assert set(live_segments()) == before
        finally:
            fleet.close()
