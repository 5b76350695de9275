"""Observability wired through the GEF pipeline: spans, metrics, records.

One traced explain run is shared module-wide (it is the expensive part);
the stall-determinism test runs its own traced pipeline under
``stall_stage`` fault injection.
"""

from __future__ import annotations

import time

import pytest

from repro.core import GEF, load_explanation, save_explanation
from repro.core.stages import StageReport
from repro.devtools.faultinject import stall_stage
from repro.forest.engines import invalidate_model_caches
from repro.obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    validate_chrome_trace,
)
from repro.obs.summary import stage_totals, trace_coverage


def _small_gef(**overrides):
    params = dict(
        n_univariate=3, n_samples=1_500, k_points=50, random_state=0
    )
    params.update(overrides)
    return GEF(**params)


@pytest.fixture(scope="module")
def traced_run(small_forest):
    """One traced+metered explain run: (explanation, tracer, registry)."""
    # Earlier suites may have encoded the shared session forest already;
    # drop the cached encoding so this run exercises pack.* metrics too.
    invalidate_model_caches(small_forest)
    tracer = enable_tracing()
    registry = enable_metrics()
    try:
        explanation = _small_gef().explain(small_forest)
    finally:
        disable_tracing()
        disable_metrics()
    return explanation, tracer, registry


class TestPipelineSpans:
    def test_core_stage_spans_present(self, traced_run):
        _, tracer, _ = traced_run
        names = {s.name for s in tracer.spans()}
        for expected in (
            "explain",
            "stage.validate",
            "stage.select",
            "stage.domains",
            "stage.sample",
            "stage.fit",
            "fidelity",
        ):
            assert expected in names, f"missing span {expected}"

    def test_stage_spans_nest_under_explain_root(self, traced_run):
        _, tracer, _ = traced_run
        (root,) = tracer.find("explain")
        (fit,) = tracer.find("stage.fit")
        assert fit.parent_id == root.span_id
        (attempt,) = tracer.find("stage.fit.attempt")
        assert attempt.parent_id == fit.span_id

    def test_span_coverage_meets_acceptance_floor(self, traced_run):
        _, tracer, registry = traced_run
        payload = tracer.to_chrome_trace(
            extra={"metrics": registry.snapshot()}
        )
        validate_chrome_trace(payload)
        assert trace_coverage(payload) >= 0.95

    def test_stage_totals_match_span_durations(self, traced_run):
        _, tracer, _ = traced_run
        totals = stage_totals(tracer.to_chrome_trace())
        (fit,) = tracer.find("stage.fit")
        assert totals["stage.fit"]["seconds"] == pytest.approx(
            fit.duration_s, rel=1e-6
        )


class TestPipelineMetrics:
    def test_counters_populated(self, traced_run):
        _, _, registry = traced_run
        assert registry.counter("predict.rows") > 0
        assert registry.counter("pack.count") >= 1
        assert registry.counter("fit.gcv_candidates") > 0

    def test_pack_seconds_histogram_recorded(self, traced_run):
        _, _, registry = traced_run
        hist = registry.snapshot()["histograms"]["pack.seconds"]
        assert hist["count"] >= 1
        assert hist["sum"] >= 0.0

    def test_clean_run_takes_no_retries(self, traced_run):
        _, _, registry = traced_run
        assert registry.counter("sample.retries") == 0.0
        assert registry.counter("fit.rung_descents") == 0.0


class TestStageRecordTiming:
    def test_records_carry_duration_and_span_id(self, traced_run):
        explanation, tracer, _ = traced_run
        report = explanation.stage_report
        for stage in ("validate", "select", "domains", "sample", "fit"):
            rec = report[stage]
            assert rec.duration_s > 0.0
            assert rec.duration_s >= rec.elapsed * 0.99
            span = next(
                s for s in tracer.spans() if s.span_id == rec.span_id
            )
            assert span.name == f"stage.{stage}"

    def test_attempts_carry_durations(self, traced_run):
        explanation, _, _ = traced_run
        for rec in explanation.stage_report.records:
            for attempt in rec.attempts:
                assert attempt.duration_s >= 0.0

    def test_untraced_run_still_times_stages(self, small_forest):
        explanation = _small_gef().explain(small_forest)
        rec = explanation.stage_report["sample"]
        assert rec.duration_s > 0.0
        assert rec.span_id is None


class TestStageReportRoundTrip:
    def test_to_dict_from_dict_preserves_timing(self, traced_run):
        explanation, _, _ = traced_run
        report = explanation.stage_report
        rebuilt = StageReport.from_dict(report.to_dict())
        for original, copy in zip(report.records, rebuilt.records):
            assert copy.duration_s == original.duration_s
            assert copy.span_id == original.span_id
            assert [a.duration_s for a in copy.attempts] == [
                a.duration_s for a in original.attempts
            ]

    def test_from_dict_tolerates_pre_timing_payloads(self):
        old = {
            "records": [
                {
                    "stage": "fit",
                    "status": "ok",
                    "elapsed": 1.25,
                    "fallback": None,
                    "error": None,
                    "attempts": [{"outcome": "ok", "error": None,
                                  "note": None}],
                }
            ]
        }
        report = StageReport.from_dict(old)
        rec = report["fit"]
        assert rec.duration_s == 1.25  # falls back to elapsed
        assert rec.span_id is None
        assert rec.attempts[0].duration_s == 0.0

    def test_archive_round_trip_keeps_timing(self, traced_run, tmp_path):
        explanation, _, _ = traced_run
        path = tmp_path / "explanation.json"
        save_explanation(explanation, path)
        loaded = load_explanation(path)
        original = explanation.stage_report["fit"]
        restored = loaded.stage_report["fit"]
        assert restored.duration_s == pytest.approx(original.duration_s)
        assert restored.span_id == original.span_id


class TestStallDeterminism:
    def test_synthetic_stall_flows_into_span_without_sleeping(
        self, small_forest
    ):
        tracer = enable_tracing()
        wall_start = time.monotonic()
        try:
            with stall_stage("sample", 5.0):
                explanation = _small_gef().explain(small_forest)
        finally:
            disable_tracing()
        wall = time.monotonic() - wall_start
        assert wall < 5.0, "stall must be synthetic, not slept"

        (sample_span,) = tracer.find("stage.sample")
        assert sample_span.duration_s >= 5.0
        rec = explanation.stage_report["sample"]
        assert rec.duration_s >= 5.0
        assert rec.elapsed >= 5.0
        # downstream stages are unaffected by the stall
        assert explanation.stage_report["fit"].duration_s < 5.0
