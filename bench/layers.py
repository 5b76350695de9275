"""Per-layer measurement for traced runs.

A traced run turns on the program's own ``repro.obs`` spans and counters.
It also wraps a few public functions from here, so that the time spent in
each layer shows as a ``bench.*`` span:

==========================================  =========================
wrapped function                            span
==========================================  =========================
``repro.gam.terms.bspline_design``          ``bench.gam.basis``
``repro.gam.GAM.fit`` (one PIRLS fit)       ``bench.gam.fit``
``repro.serve.ModelEntry.predict_raw``      ``bench.batcher.engine``
``repro.serve.MicroBatcher.submit``         ``bench.batcher.submit``
``repro.serve.Fleet.dispatch``              ``bench.fleet.dispatch``
``GEFExplanation.predict``                  ``bench.surrogate.predict``
``GEFExplanation.local_explanation``        ``bench.surrogate.local``
==========================================  =========================

The per-layer metrics are read back from the Chrome trace and from the
metrics registry.  Fleet workers run in their own processes, where no
wrapper is installed; their numbers come from their own spans, via
``Fleet.sync_obs()`` and ``Fleet.merged_trace()``, and from
``Fleet.aggregator.fleet_snapshot()``.  A layer that a workload does not
exercise reports 0.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict

import numpy as np

import repro.gam.terms
from repro.core import GEFExplanation
from repro.gam import GAM
from repro.obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
    get_metrics,
    monotonic,
    span,
)
from repro.obs.summary import trace_coverage
from repro.serve import Fleet, MicroBatcher, ModelEntry

#: Pipeline stages whose per-explain seconds are reported as ``stage.*_s``.
STAGES = ("validate", "select", "domains", "sample", "interactions", "fit")


def _spanned(fn, name: str, rows_arg: int | None = None):
    """``fn`` inside a span; ``rows`` records the row count of an argument."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = {}
        if rows_arg is not None:
            attrs["rows"] = int(np.atleast_1d(args[rows_arg]).shape[0])
        with span(name, **attrs):
            return fn(*args, **kwargs)

    return wrapper


def _counted_fit(fn):
    """``GAM.fit`` inside a span carrying its PIRLS iteration count."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        registry = get_metrics()
        before = registry.counter("fit.pirls_iters")
        with span("bench.gam.fit") as sp:
            out = fn(self, *args, **kwargs)
            sp.set(iters=registry.counter("fit.pirls_iters") - before)
        return out

    return wrapper


_WRAPPERS = (
    (repro.gam.terms, "bspline_design",
     lambda fn: _spanned(fn, "bench.gam.basis", rows_arg=0)),
    (GAM, "fit", _counted_fit),
    (ModelEntry, "predict_raw",
     lambda fn: _spanned(fn, "bench.batcher.engine", rows_arg=1)),
    (MicroBatcher, "submit", lambda fn: _spanned(fn, "bench.batcher.submit")),
    (Fleet, "dispatch", lambda fn: _spanned(fn, "bench.fleet.dispatch")),
    (GEFExplanation, "predict",
     lambda fn: _spanned(fn, "bench.surrogate.predict")),
    (GEFExplanation, "local_explanation",
     lambda fn: _spanned(fn, "bench.surrogate.local")),
)


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


#: Per-explain times, medians over every explain in the process.
TIMES = tuple(f"stage.{stage}_s" for stage in STAGES) + (
    "fidelity_s", "sample.label_s", "gam.basis_s", "gam.basis_share",
    "gam.gcv_s",
)

#: Per-explain counts, medians over the set-up explains only: their inputs
#: do not depend on how many explains fit in the run, so for a given seed
#: the counts repeat exactly.
COUNTS = ("gam.basis_calls", "gam.basis_rows", "gam.gcv_candidates",
          "gam.pirls_iters")


def _per_explain(events: list[dict], setups: int) -> dict[str, float]:
    """:data:`TIMES` and :data:`COUNTS` of the work inside ``explain`` spans.

    The first ``setups`` explains in the process are the set-up ones.
    """
    by_trace = defaultdict(list)
    for event in events:
        by_trace[event["args"].get("trace_id")].append(event)
    rows = []
    roots = sorted((e for e in events if e["name"] == "explain"),
                   key=lambda e: e["ts"])
    for root in roots:
        lo, hi = root["ts"], root["ts"] + root["dur"]
        inside = [
            e for e in by_trace[root["args"].get("trace_id")]
            if e is not root and lo <= e["ts"] <= hi
        ]

        def total(name, attr=None):
            return sum(
                e["args"].get(attr, 0) if attr else e["dur"] / 1e6
                for e in inside
                if e["name"] == name
            )

        basis_s = total("bench.gam.basis")
        row = {f"stage.{stage}_s": total(f"stage.{stage}") for stage in STAGES}
        row.update({
            "fidelity_s": total("fidelity"),
            "sample.label_s": total("sample.label"),
            "gam.basis_calls": sum(
                1 for e in inside if e["name"] == "bench.gam.basis"
            ),
            "gam.basis_rows": total("bench.gam.basis", "rows"),
            "gam.basis_s": basis_s,
            "gam.basis_share": basis_s / (root["dur"] / 1e6),
            "gam.gcv_s": total("gam.gcv"),
            "gam.gcv_candidates": total("gam.gcv", "candidates"),
            "gam.pirls_iters": total("bench.gam.fit", "iters"),
        })
        rows.append(row)
    metrics = {key: _median(row[key] for row in rows) for key in TIMES}
    metrics.update(
        {key: _median(row[key] for row in rows[:setups]) for key in COUNTS}
    )
    return metrics


class LayerProbe:
    """Tracing, metrics and the ``bench.*`` wrappers for one traced run.

    Use as a context manager around the whole workload, set-up included.
    The workload calls :meth:`start_timed` and :meth:`stop_timed` around
    its timed loop and :meth:`collect` before it tears the program down.
    """

    def __init__(self):
        self._saved = []

    def __enter__(self) -> "LayerProbe":
        self.registry = enable_metrics()
        self.tracer = enable_tracing()
        for owner, attr, wrap in _WRAPPERS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        disable_tracing()
        disable_metrics()

    def _now_us(self) -> float:
        return (monotonic() - self.tracer.epoch_s) * 1e6

    def start_timed(self) -> None:
        self._start_us = self._now_us()
        self._before = self.registry.snapshot()["counters"]

    def stop_timed(self) -> None:
        self._stop_us = self._now_us()
        self._after = self.registry.snapshot()["counters"]

    def collect(self, *, ops: int, latency_ms_p50: float, setups: int,
                fleet=None) -> tuple[dict, dict]:
        """``(per-layer metrics, Chrome trace)`` of the run so far.

        ``ops`` counts the primary operations of the timed loop (explains
        or ``/predict`` requests) and ``latency_ms_p50`` is their median
        latency; ``setups`` is the number of set-ups the run made.
        """
        extra = {"metrics": self.registry.snapshot()}
        if fleet is not None:
            fleet.sync_obs()
            workers = fleet.aggregator.fleet_snapshot()
            extra["fleet_metrics"] = workers
            trace = fleet.merged_trace(extra=extra)
        else:
            workers = {"counters": {}, "histograms": {}}
            trace = self.tracer.to_chrome_trace(extra=extra)
        events = trace["traceEvents"]
        front = [e for e in events if e["pid"] == 1]
        timed = [
            e for e in front if self._start_us <= e["ts"] <= self._stop_us
        ]

        def p50_ms(name, where=None, pool=timed):
            return _median(
                e["dur"] / 1e3 for e in pool
                if e["name"] == name and (where is None or where(e))
            )

        def delta(name):
            return self._after.get(name, 0.0) - self._before.get(name, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        submit = p50_ms("bench.batcher.submit")
        dispatch = p50_ms("bench.fleet.dispatch")
        worker_handle = p50_ms(
            "serve.request",
            where=lambda e: e["args"].get("endpoint") == "predict",
            pool=[e for e in events if e["pid"] != 1],
        )
        below = dispatch if fleet is not None else submit
        batches = [e for e in timed if e["name"] == "serve.batch"]
        worker_batches = workers["histograms"].get("serve.batch_size") or {}
        cache_hits = delta("predict.cache_hits")
        surrogate_hits = delta("surrogate.hits")
        metrics = _per_explain(front, setups)
        metrics.update({
            "stage.coverage": trace_coverage({"traceEvents": front}),
            "forest.predict_rows": ratio(
                delta("predict.rows")
                + workers["counters"].get("predict.rows", 0.0),
                ops,
            ),
            "forest.predict_cache_hit_ratio": ratio(
                cache_hits, cache_hits + delta("predict.cache_misses")
            ),
            "batcher.submit_ms.p50": submit,
            "batcher.flush_engine_ms.p50": p50_ms("bench.batcher.engine"),
            "batcher.batch_size.mean": _mean(
                e["args"]["requests"] for e in batches
            ),
            "batcher.batch_rows.mean": _mean(
                e["args"]["rows"] for e in batches
            ),
            "serve.front_ms.p50": latency_ms_p50 - below if below else 0.0,
            "surrogate.predict_ms.p50": p50_ms("bench.surrogate.predict"),
            "surrogate.local_ms.p50": p50_ms("bench.surrogate.local"),
            "surrogate.hit_ratio": ratio(
                surrogate_hits, surrogate_hits + delta("surrogate.misses")
            ),
            "surrogate.fits": self.registry.counter("surrogate.fits") / setups,
            "fleet.dispatch_ms.p50": dispatch,
            "fleet.worker_handle_ms.p50": worker_handle,
            "fleet.worker_batch_size.mean": worker_batches.get("mean") or 0.0,
            "fleet.hop_ms.p50": dispatch - worker_handle if dispatch else 0.0,
            "fleet.dispatched": ratio(delta("fleet.dispatched"), ops),
            "fleet.local_fallback": self.registry.counter(
                "fleet.local_fallback"
            ),
        })
        return metrics, trace
