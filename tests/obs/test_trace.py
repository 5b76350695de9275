"""Span nesting, attributes, exporters, and the pipeline clock."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Tracer,
    enable_tracing,
    disable_tracing,
    get_tracer,
    span,
    validate_chrome_trace,
)
from repro.obs.trace import _NULL_SPAN, advance, monotonic


class FakeClock:
    """A deterministic clock the tests tick by hand."""

    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


class TestSpanBasics:
    def test_nesting_links_parent_ids(self):
        tracer = enable_tracing()
        with span("outer") as outer:
            with span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # inner finishes first, outer second
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        enable_tracing()
        with span("root") as root:
            with span("a") as a:
                pass
            with span("b") as b:
                pass
        assert a.parent_id == root.span_id
        assert b.parent_id == root.span_id

    def test_attrs_at_open_and_via_set(self):
        enable_tracing()
        with span("work", rows=10) as sp:
            sp.set(retries=2)
        assert sp.attrs == {"rows": 10, "retries": 2}

    def test_exception_recorded_and_propagated(self):
        tracer = enable_tracing()
        with pytest.raises(KeyError):
            with span("doomed"):
                raise KeyError("boom")
        (sp,) = tracer.spans()
        assert "KeyError" in sp.attrs["error"]
        assert sp.end_s is not None

    def test_ids_are_unique_and_increasing(self):
        tracer = enable_tracing()
        for i in range(5):
            with span(f"s{i}"):
                pass
        ids = [s.span_id for s in tracer.spans()]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5


class TestDisabledMode:
    def test_span_returns_shared_null_singleton(self):
        assert get_tracer() is None
        assert span("anything") is _NULL_SPAN
        assert span("other", rows=1) is _NULL_SPAN

    def test_null_span_is_inert(self):
        with span("x") as sp:
            assert sp.set(a=1) is sp
        # exceptions still propagate through the null span
        with pytest.raises(ValueError):
            with span("y"):
                raise ValueError("pass through")

    def test_disable_returns_the_tracer(self):
        tracer = enable_tracing()
        with span("kept"):
            pass
        returned = disable_tracing()
        assert returned is tracer
        assert [s.name for s in returned.spans()] == ["kept"]
        assert get_tracer() is None


class TestDeterministicClock:
    def test_durations_follow_injected_clock(self):
        clock = FakeClock()
        tracer = enable_tracing(clock=clock)
        with tracer.span("timed"):
            clock.tick(2.5)
        (sp,) = tracer.spans()
        assert sp.duration_s == pytest.approx(2.5)

    def test_advance_flows_into_span_durations(self):
        tracer = enable_tracing()
        with span("stalled"):
            advance(7.0)
        (sp,) = tracer.spans()
        # no sleeping happened, yet the span saw >= 7 synthetic seconds
        assert sp.duration_s >= 7.0
        assert sp.duration_s < 8.0

    def test_monotonic_includes_offset_and_never_decreases(self):
        before = monotonic()
        advance(3.0)
        after = monotonic()
        assert after - before >= 3.0
        advance(-1.0)  # negative advances are ignored
        assert monotonic() >= after


class TestChromeExport:
    def _traced(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("explain"):
            with tracer.span("stage.fit", rung="full"):
                clock.tick(0.25)
            clock.tick(0.05)
        return tracer

    def test_event_schema(self):
        payload = self._traced().to_chrome_trace()
        assert validate_chrome_trace(payload) == 2
        assert payload["displayTimeUnit"] == "ms"
        for event in payload["traceEvents"]:
            assert event["ph"] == "X"
            assert event["cat"] == "gef"
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))
            assert "span_id" in event["args"]
            assert "parent_id" in event["args"]

    def test_timestamps_are_relative_microseconds(self):
        payload = self._traced().to_chrome_trace()
        fit = next(
            e for e in payload["traceEvents"] if e["name"] == "stage.fit"
        )
        assert fit["dur"] == pytest.approx(0.25e6)
        assert fit["args"]["rung"] == "full"

    def test_extra_payload_embedded(self):
        payload = self._traced().to_chrome_trace(extra={"metrics": {"a": 1}})
        assert payload["otherData"] == {"metrics": {"a": 1}}

    def test_write_produces_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        self._traced().write(path, extra={"k": "v"})
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        assert payload["otherData"] == {"k": "v"}

    def test_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"events": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [
                    {"name": "x", "ph": "B", "ts": 0, "dur": 0,
                     "pid": 1, "tid": 1}
                ]}
            )
