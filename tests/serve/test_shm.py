"""Shared-memory export/attach: parity, lifecycle hygiene, leak tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.forest import GradientBoostingRegressor, bitvector_for
from repro.serve.fleet import Fleet, FleetConfig
from repro.serve.registry import ModelRegistry
from repro.serve.shm import (
    attach_model,
    export_model,
    live_segments,
)


@pytest.fixture()
def entry(serve_forest):
    return ModelRegistry().add("m", serve_forest)


def _export(entry):
    return export_model(entry.model_id, entry.fingerprint, entry.bitvector)


def _arrays(engine):
    """Every array an engine's evaluation reads."""
    return [
        engine.leaf_values,
        engine.leaf_offsets,
        engine.init_vec,
        *engine.feat_thr,
        *engine.tables,
    ]


def _on_attached(bundle, check):
    """Run ``check(engine)`` on the bundle's attached engine.

    The engine's arrays are views that hold the segment's mapping, so
    the attached segment closes only after they are gone.
    """
    engine, shm = attach_model(bundle)
    assert all(
        not a.flags.writeable and not a.flags.owndata for a in _arrays(engine)
    )
    check(engine)
    with pytest.raises(BufferError):
        shm.close()
    del engine
    shm.close()


def _threshold_rows(encoded, n, seed):
    """Rows on, just below and just above every feature's thresholds."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, encoded.n_features))
    for f, thr in enumerate(encoded.feat_thr):
        if thr.size:
            points = np.concatenate([thr, thr[:1] - 1.0, thr[-1:] + 1.0])
            rows[:, f] = rng.choice(points, n)
    return rows


@pytest.fixture(scope="module")
def multiword_forest():
    """Trees of up to 100 leaves (two uint64 words) over 5 features, one
    of them constant, so it has no conditions."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((3000, 5))
    X[:, 2] = 1.0
    y = 2 * X[:, 0] + np.sin(3 * X[:, 1]) + X[:, 3] * X[:, 4]
    model = GradientBoostingRegressor(
        n_estimators=6, num_leaves=100, random_state=0
    )
    return model.fit(X, y + 0.1 * rng.standard_normal(3000))


class TestExportAttach:
    def test_engine_round_trip(self, multiword_forest, loop_predict):
        """Every array of an attached engine is a read-only view equal to
        the front end's; a feature without conditions and multi-word
        masks make the trip too."""
        encoded = bitvector_for(multiword_forest)
        assert encoded.n_words == 2
        assert encoded.feat_thr[2].size == 0
        rows = np.random.default_rng(3).standard_normal((300, 5))
        rows[::7] = np.nan

        def check(engine):
            assert engine.groups == encoded.groups
            for ours, theirs in zip(_arrays(engine), _arrays(encoded)):
                assert ours.dtype == theirs.dtype
                assert ours.tobytes() == theirs.tobytes()
            for n in (1, 2, 300):
                assert np.array_equal(
                    engine.predict_raw(rows[:n]),
                    loop_predict(multiword_forest, rows[:n]),
                )

        bundle, segment = export_model("mw", 1, encoded)
        try:
            _on_attached(bundle, check)
        finally:
            assert segment.unlink() is True

    def test_offsets_are_aligned(self, bench_forests):
        """Every out-of-band buffer starts 64-byte aligned in the segment."""
        entry = ModelRegistry().add("census", bench_forests["census"])
        bundle, segment = _export(entry)
        try:
            assert len(bundle.spans) == len(_arrays(entry.bitvector))
            assert all(offset % 64 == 0 for offset, _ in bundle.spans)
            for (offset, nbytes), (nxt, _) in zip(bundle.spans, bundle.spans[1:]):
                assert offset + nbytes <= nxt

            def check(engine):
                for array in _arrays(engine):
                    assert array.size == 0 or array.ctypes.data % 64 == 0

            _on_attached(bundle, check)
        finally:
            segment.unlink()

    def test_attached_engines_bitwise_identical(
        self, entry, serve_rows, loop_predict
    ):
        def check(engine):
            np.testing.assert_array_equal(
                engine.predict_raw(serve_rows),
                loop_predict(entry.model, serve_rows),
            )

        bundle, segment = _export(entry)
        try:
            assert bundle.fingerprint == entry.fingerprint
            _on_attached(bundle, check)
        finally:
            segment.unlink()

    def test_joint_tables_round_trip(self, bench_forests, loop_predict):
        """Workers attach the bench forests with the same groups and
        tables and answer bit for bit; the census forest packs features
        in joint-table groups."""
        census = bench_forests["census"]
        assert max(len(group) for group in bitvector_for(census).groups) > 1
        for name in ("spline", "census", "serve"):
            self._assert_round_trip(
                ModelRegistry().add(name, bench_forests[name]), loop_predict
            )

    @staticmethod
    def _assert_round_trip(entry, loop_predict):
        encoded = entry.bitvector
        rows = _threshold_rows(encoded, 700, 4)

        def check(engine):
            assert engine.groups == encoded.groups
            for ours, theirs in zip(engine.tables, encoded.tables):
                assert ours.tobytes() == theirs.tobytes()
            for n in (1, 2, 700):
                np.testing.assert_array_equal(
                    engine.predict_raw(rows[:n]),
                    loop_predict(entry.model, rows[:n]),
                )

        bundle, segment = _export(entry)
        try:
            _on_attached(bundle, check)
        finally:
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
            attach_model(bundle)

    def test_export_uses_fresh_segment_names(self, entry):
        first, segment_a = _export(entry)
        second, segment_b = _export(entry)
        try:
            assert first.segment != second.segment
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
