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
from repro.devtools.faultinject import force_kernel_fault, stall_stage
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


def _traced_explain(forest):
    """One traced+metered explain run: (explanation, tracer, registry)."""
    tracer = enable_tracing()
    registry = enable_metrics()
    try:
        explanation = _small_gef().explain(forest)
    finally:
        disable_tracing()
        disable_metrics()
    return explanation, tracer, registry


@pytest.fixture(scope="module")
def traced_run(small_forest):
    """The module's shared :func:`_traced_explain` run."""
    # Earlier suites may have encoded the shared session forest already;
    # drop the cached encoding so this run exercises pack.* metrics too.
    invalidate_model_caches(small_forest)
    return _traced_explain(small_forest)


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
        assert attempt.attrs["rung"] == "full"
        assert tracer.find("fit.rung") == []

    def test_span_coverage_meets_acceptance_floor(self, traced_run, small_forest):
        """The best of three explains (the shared run and two more): an
        explain of a few ms can lose a few percent of it to one garbage
        collection or preemption between its stages."""
        coverage = []
        for _, tracer, registry in (
            traced_run, _traced_explain(small_forest), _traced_explain(small_forest)
        ):
            payload = tracer.to_chrome_trace(
                extra={"metrics": registry.snapshot()}
            )
            validate_chrome_trace(payload)
            coverage.append(trace_coverage(payload))
        assert max(coverage) >= 0.95

    def test_stage_totals_match_span_durations(self, traced_run):
        _, tracer, _ = traced_run
        totals = stage_totals(tracer.to_chrome_trace())
        (fit,) = tracer.find("stage.fit")
        assert totals["stage.fit"]["seconds"] == pytest.approx(
            fit.duration_s, rel=1e-6
        )


class TestSampleKernelSpans:
    def test_generate_and_label_cover_the_sample_stage(self, small_forest):
        """The best of three explains, as in the kernel-span gates below."""
        coverage = []
        for _ in range(3):
            tracer = enable_tracing()
            try:
                _small_gef(n_samples=8_000).explain(small_forest)
            finally:
                disable_tracing()
            (stage,) = tracer.find("stage.sample")
            (generate,) = tracer.find("sample.generate")
            (label,) = tracer.find("sample.label")
            (attempt,) = tracer.find("stage.sample.attempt")
            for kernel in (generate, label):
                assert kernel.parent_id == attempt.span_id
            assert generate.attrs["rows"] == label.attrs["rows"] == 8_000
            covered = generate.duration_s + label.duration_s
            coverage.append(covered / stage.duration_s)
        assert max(coverage) >= 0.9


class TestFitKernelSpans:
    """The fit's kernels account for ``stage.fit`` on both Gram routes:
    design, penalty, Gram, GCV scoring, the PIRLS predictor and the
    posterior covariance cover at least 90% of it."""

    KERNELS = (
        "gam.design", "gam.penalty", "gam.gram", "gcv.score",
        "gam.predictor", "gam.cov",
    )

    def _best_coverage(self, forest, route, **overrides):
        """The best of three explains: a fit of about 10 ms can lose a
        few of them to one garbage collection or preemption between its
        kernels."""
        tracer = enable_tracing()
        try:
            for _ in range(3):
                _small_gef(**overrides).explain(forest)
        finally:
            disable_tracing()
        coverage = []
        for fit in tracer.find("stage.fit"):
            inside = [
                s for s in tracer.spans()
                if s.name in self.KERNELS and fit.start_s <= s.start_s <= fit.end_s
            ]
            assert {s.name for s in inside} == set(self.KERNELS)
            assert {
                s.attrs["route"] for s in inside if s.name == "gam.gram"
            } == {route}
            coverage.append(sum(s.duration_s for s in inside) / fit.duration_s)
        assert len(coverage) == 3
        return max(coverage)

    def test_coded_identity_explain(self, small_forest):
        """The bench's spline explain on the test forest: 5 splines,
        20,000 rows, 200 points per feature."""
        coverage = self._best_coverage(
            small_forest, "codes", n_univariate=5, n_samples=20_000, k_points=200
        )
        assert coverage >= 0.9

    def test_tensor_logit_explain(self, small_classifier):
        coverage = self._best_coverage(small_classifier, "rows", n_interactions=1)
        assert coverage >= 0.9


class TestLabelAndDesignKernelSpans:
    """The forest and GAM kernels account for their layers: digitize and
    eval cover D* labelling, basis evaluation and assembly cover the
    training design, and the basis runs once per domain value.  Each
    coverage gate takes the best of three explains: a layer of a few ms
    can lose a tenth of it to one garbage collection or preemption
    between its kernels."""

    @pytest.fixture(scope="class")
    def tracers(self, small_forest):
        tracers = []
        for _ in range(3):
            tracers.append(enable_tracing())
            try:
                _small_gef(n_samples=8_000).explain(small_forest)
            finally:
                disable_tracing()
        return tracers

    @staticmethod
    def _covered(tracer, parent, kernels):
        inside = [
            s for s in tracer.spans()
            if s.name in kernels and parent.start_s <= s.start_s <= parent.end_s
        ]
        assert {s.name for s in inside} == set(kernels)
        return sum(s.duration_s for s in inside)

    def test_digitize_and_eval_cover_the_labelling(self, tracers):
        coverage = []
        for tracer in tracers:
            (label,) = tracer.find("sample.label")
            (predict,) = tracer.find("bitvector.predict")
            assert predict.parent_id == label.span_id
            for kernel in ("bitvector.digitize", "bitvector.eval"):
                (span,) = [
                    s for s in tracer.find(kernel) if s.parent_id == predict.span_id
                ]
                assert span.attrs["rows"] == 8_000
            covered = self._covered(
                tracer, label, ("bitvector.digitize", "bitvector.eval")
            )
            coverage.append(covered / label.duration_s)
        assert max(coverage) >= 0.9

    def test_gather_and_reduce_cover_the_eval(self, tracers):
        """``bitvector.eval`` splits into gather + AND and exit leaf +
        reduction, accumulated per chunk without per-chunk spans."""
        coverage = []
        for tracer in tracers:
            (predict,) = tracer.find("bitvector.predict")
            (span,) = [
                s for s in tracer.find("bitvector.eval")
                if s.parent_id == predict.span_id
            ]
            assert not [s for s in tracer.spans() if s.parent_id == span.span_id]
            gather, reduce = span.attrs["gather_s"], span.attrs["reduce_s"]
            assert gather > 0.0 and reduce > 0.0
            assert gather + reduce <= span.duration_s
            coverage.append((gather + reduce) / span.duration_s)
        assert max(coverage) >= 0.9

    def test_basis_and_assembly_cover_the_design(self, tracers):
        coverage = []
        for tracer in tracers:
            (design,) = tracer.find("gam.design")
            for kernel in ("gam.basis", "gam.assemble"):
                assert [
                    s for s in tracer.find(kernel) if s.parent_id == design.span_id
                ]
            covered = self._covered(tracer, design, ("gam.basis", "gam.assemble"))
            coverage.append(covered / design.duration_s)
        assert max(coverage) >= 0.9

    def test_basis_rows_are_domain_values(self, tracers):
        """k = 50 points per feature: the training basis evaluates at most
        50 rows per (term, feature), not the 6,400 training rows."""
        for tracer in tracers:
            (design,) = tracer.find("gam.design")
            (basis,) = [
                s for s in tracer.find("gam.basis") if s.parent_id == design.span_id
            ]
            assert 0 < basis.attrs["rows"] <= 3 * 50


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
        assert registry.counter("fit.retries") == 0.0
        assert registry.counter("fit.rung_descents") == 0.0

    def test_fit_ladder_reports_one_attempt_span_per_trial(self, small_forest):
        """Every rung × trial is a ``stage.fit.attempt`` span naming its
        rung; same-rung retries and rung descents are counted apart."""
        tracer = enable_tracing()
        registry = enable_metrics()
        try:
            with force_kernel_fault("GCV", count=3):
                _small_gef(n_interactions=1).explain(small_forest)
        finally:
            disable_tracing()
            disable_metrics()
        (fit,) = tracer.find("stage.fit")
        attempts = tracer.find("stage.fit.attempt")
        assert [a.attrs["rung"] for a in attempts] == [
            "full", "full", "full", "drop-tensor"
        ]
        assert [a.attrs["attempt"] for a in attempts] == [1, 2, 3, 4]
        assert all(a.parent_id == fit.span_id for a in attempts)
        assert fit.attrs["status"] == "degraded"
        assert fit.attrs["fallback"] == "drop-tensor"
        assert registry.counter("fit.retries") == 2.0
        assert registry.counter("fit.rung_descents") == 1.0
        assert registry.gauge("degrade.rung") == 1.0


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
