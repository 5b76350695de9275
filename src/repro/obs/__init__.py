"""repro.obs — zero-dependency observability for the GEF pipeline.

Four cooperating layers (DESIGN.md §10, §15), all **off by default** and
costing one ``None``-check per instrumentation site when disabled:

* :mod:`repro.obs.trace` — structured tracing.  :func:`span` opens a
  nestable named span; an enabled :class:`Tracer` collects the finished
  spans into an in-memory tree exportable as plain JSON
  (:meth:`Tracer.to_dict`) or Chrome ``chrome://tracing`` / Perfetto
  trace-event JSON (:meth:`Tracer.to_chrome_trace`).  Trace context
  crosses process boundaries (:func:`current_context`,
  :meth:`Tracer.trace_context`) and per-worker span lanes merge into one
  valid Chrome trace with :func:`merge_chrome_trace`.
* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges
  and histograms (``predict.rows``, ``fit.pirls_iters``,
  ``sample.retries``, ``degrade.rung``, ...) with a :func:`snapshot`
  API, plus :class:`MetricsAggregator` — restart-safe delta merging of
  worker snapshots into fleet totals and per-worker labeled series
  (:func:`fleet_to_prometheus`).
* :mod:`repro.obs.slo` — a declarative SLO engine: rules over named
  signals with ``ok/warn/breach`` levels, hysteresis, and a bounded
  alert transition log.
* :mod:`repro.obs.drift` — the serving-time fidelity monitor: reservoir-
  sampled live ``/predict`` traffic replayed through the cached
  surrogate for rolling forest–GAM R².

Timing flows through the module's *pipeline clock*
(:func:`repro.obs.trace.monotonic`): real ``time.perf_counter`` plus the
synthetic seconds charged by :func:`repro.devtools.faultinject.stall_stage`
(:func:`repro.obs.trace.advance`), so chaos-suite stalls show up in span
durations deterministically without any sleeping.  The ``adhoc-timing``
lint rule keeps every other pipeline module off the raw ``time`` clocks.
"""

from .metrics import (
    MetricsAggregator,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    fleet_to_prometheus,
    get_metrics,
    inc,
    observe,
    set_gauge,
    to_prometheus,
    validate_prometheus_text,
)
from .trace import (
    Span,
    Tracer,
    advance,
    current_context,
    disable_tracing,
    enable_tracing,
    get_tracer,
    merge_chrome_trace,
    monotonic,
    span,
    validate_chrome_trace,
)
from .summary import load_trace, pid_breakdown, summarize_trace
from .slo import (
    SloConfig,
    SloEngine,
    SloRule,
    default_slo_config,
    quantile_from_histogram,
)
from .drift import DriftMonitor, ReservoirSampler, r_squared

__all__ = [
    "DriftMonitor",
    "MetricsAggregator",
    "MetricsRegistry",
    "ReservoirSampler",
    "SloConfig",
    "SloEngine",
    "SloRule",
    "Span",
    "Tracer",
    "advance",
    "current_context",
    "default_slo_config",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "fleet_to_prometheus",
    "get_metrics",
    "get_tracer",
    "inc",
    "load_trace",
    "merge_chrome_trace",
    "monotonic",
    "observe",
    "pid_breakdown",
    "quantile_from_histogram",
    "r_squared",
    "set_gauge",
    "span",
    "summarize_trace",
    "to_prometheus",
    "validate_chrome_trace",
    "validate_prometheus_text",
]
