"""Thread-safe metrics registry: counters, gauges, histograms.

A :class:`MetricsRegistry` is installed process-wide with
:func:`enable_metrics`; the pipeline reports through the module-level
helpers :func:`inc`, :func:`set_gauge` and :func:`observe`, each of which
is a single ``None``-check when no registry is installed.  Metric names
are flat dotted strings following the site that owns them::

    predict.rows            counter   rows evaluated by the bitvector engine
    pack.count              counter   forests encoded by the bitvector engine
    pack.seconds            histogram encode times
    sample.retries          counter   sample-stage retry attempts
    sample.domains_widened  counter   collapsed domains rescued by widening
    fit.pirls_iters         counter   PIRLS iterations across all fits
    fit.gcv_candidates      counter   lambda candidates scored by GCV
    fit.rung_descents       counter   degradation-ladder rungs descended
    degrade.rung            gauge     deepest ladder rung index reached
    serve.requests          counter   HTTP requests handled (plus a
                                      serve.requests.<endpoint> breakdown)
    serve.batch_size        histogram requests coalesced per predict flush
    serve.batch_rows        histogram rows evaluated per predict flush
    serve.latency_s         histogram request wall time (pipeline clock)
    serve.shed              counter   requests rejected by admission control
    surrogate.hits          counter   explanation queries served from Γ cache
    surrogate.misses        counter   queries that found no cached Γ
    surrogate.fits          counter   GAM surrogate fits actually run
                                      (singleflight: one per fingerprint)
    surrogate.evictions     counter   cached Γ dropped by LRU capacity

All registry mutation happens under one internal lock; increments are
exact under concurrency (the threaded test hammers one counter from
eight threads and asserts the total).

:func:`to_prometheus` renders a snapshot in the Prometheus plain-text
exposition format (the ``/metrics`` endpoint of ``repro serve``);
:func:`validate_prometheus_text` is its schema check, mirroring
:func:`repro.obs.trace.validate_chrome_trace`.
"""

from __future__ import annotations

import math
import re
import threading

__all__ = [
    "MetricsAggregator",
    "MetricsRegistry",
    "disable_metrics",
    "enable_metrics",
    "fleet_to_prometheus",
    "get_metrics",
    "inc",
    "observe",
    "set_gauge",
    "to_prometheus",
    "validate_prometheus_text",
]

# Module-state discipline (see repro.devtools.registry): writes to the
# installed registry go through _state_lock; hot-path reads are single
# atomic loads under the GIL and stay lock-free.
_state_lock = threading.Lock()
_registry = None


class MetricsRegistry:
    """Counters, gauges and histograms behind one lock.

    Histograms keep count/sum/min/max plus base-2 logarithmic bucket
    counts (bucket key ``ceil(log2(value))``), enough for the latency
    distributions the pipeline cares about without storing samples.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, dict] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to counter ``name``."""
        value = float(value)
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        value = float(value)
        if value > 0.0:
            bucket = int(math.ceil(math.log2(value)))
        else:
            bucket = None
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                hist = {
                    "count": 0, "sum": 0.0,
                    "min": math.inf, "max": -math.inf,
                    "buckets": {},
                }
                self._hists[name] = hist
            hist["count"] += 1
            hist["sum"] += value
            hist["min"] = min(hist["min"], value)
            hist["max"] = max(hist["max"], value)
            key = "<=0" if bucket is None else f"2^{bucket}"
            hist["buckets"][key] = hist["buckets"].get(key, 0) + 1

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | None:
        """Current value of gauge ``name``, or ``None`` if never set."""
        with self._lock:
            return self._gauges.get(name)

    def snapshot(self) -> dict:
        """A deep-copied, JSON-ready view of every metric.

        Histogram entries gain a derived ``mean``; empty min/max become
        ``None`` so the snapshot serializes cleanly.
        """
        with self._lock:
            hists = {}
            for name, hist in self._hists.items():
                count = hist["count"]
                hists[name] = {
                    "count": count,
                    "sum": hist["sum"],
                    "min": hist["min"] if count else None,
                    "max": hist["max"] if count else None,
                    "mean": (hist["sum"] / count) if count else None,
                    "buckets": dict(hist["buckets"]),
                }
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": hists,
            }

    def reset(self) -> None:
        """Drop every recorded metric."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


class MetricsAggregator:
    """Delta-merges per-worker metric snapshots into fleet totals.

    Fleet workers export *monotonic* snapshots of their process-local
    :class:`MetricsRegistry` over the control channel; the front end
    feeds them to :meth:`ingest`.  Merging is delta-based against the
    previous snapshot from the same worker slot, keyed by pid:

    * a worker **restart** (new pid in the same slot) resets the baseline
      to zero, so the fresh process's counters are counted from scratch
      while the crashed process's already-merged contribution is kept —
      no double counting, no lost increments;
    * an **in-process counter reset** (a negative delta without a pid
      change) is treated the same way: the new absolute value *is* the
      delta;
    * histograms merge per log2 bucket (sum of per-bucket count deltas)
      plus count/sum deltas; min/max are lifetime extremes across every
      process that ever reported;
    * gauges are last-write-wins per worker; the fleet-level gauge is the
      sum over the latest value of each live worker slot.

    :meth:`fleet_snapshot` returns the merged totals in the exact shape
    of :meth:`MetricsRegistry.snapshot`, so :func:`to_prometheus` renders
    it unchanged; :meth:`worker_series` exposes the per-worker cumulative
    series behind the ``worker="..."``-labeled exposition.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._baselines: dict[str, dict] = {}
        self._counters: dict[str, float] = {}
        self._worker_counters: dict[str, dict[str, float]] = {}
        self._gauges: dict[str, dict[str, float]] = {}
        self._hists: dict[str, dict] = {}

    @staticmethod
    def _delta(new: float, old: float) -> float:
        # A shrinking cumulative value means the source process reset its
        # registry: the new absolute value is the whole delta.
        return new if new < old else new - old

    def ingest(self, worker: str, pid: int, snapshot: dict) -> None:
        """Merge one worker's monotonic snapshot into the fleet totals."""
        with self._lock:
            baseline = self._baselines.get(worker)
            if baseline is None or baseline["pid"] != pid:
                base: dict = {}
            else:
                base = baseline["snapshot"]
            base_counters = base.get("counters", {})
            worker_counters = self._worker_counters.setdefault(worker, {})
            for name, value in snapshot.get("counters", {}).items():
                delta = self._delta(
                    float(value), float(base_counters.get(name, 0.0))
                )
                if delta:
                    self._counters[name] = (
                        self._counters.get(name, 0.0) + delta
                    )
                    worker_counters[name] = (
                        worker_counters.get(name, 0.0) + delta
                    )
            worker_gauges = self._gauges.setdefault(worker, {})
            for name, value in snapshot.get("gauges", {}).items():
                worker_gauges[name] = float(value)
            base_hists = base.get("histograms", {})
            for name, hist in snapshot.get("histograms", {}).items():
                base_hist = base_hists.get(name, {})
                if float(hist.get("count", 0)) < float(
                    base_hist.get("count", 0)
                ):
                    base_hist = {}
                merged = self._hists.get(name)
                if merged is None:
                    merged = {
                        "count": 0, "sum": 0.0,
                        "min": math.inf, "max": -math.inf,
                        "buckets": {},
                    }
                    self._hists[name] = merged
                merged["count"] += int(
                    hist.get("count", 0) - base_hist.get("count", 0)
                )
                merged["sum"] += float(
                    hist.get("sum", 0.0) - base_hist.get("sum", 0.0)
                )
                for bound in ("min", "max"):
                    value = hist.get(bound)
                    if value is None:
                        continue
                    merged[bound] = (
                        min(merged[bound], value) if bound == "min"
                        else max(merged[bound], value)
                    )
                base_buckets = base_hist.get("buckets", {})
                for key, count in hist.get("buckets", {}).items():
                    delta = int(count) - int(base_buckets.get(key, 0))
                    if delta:
                        merged["buckets"][key] = (
                            merged["buckets"].get(key, 0) + delta
                        )
            self._baselines[worker] = {"pid": int(pid), "snapshot": snapshot}

    def fleet_snapshot(self) -> dict:
        """Merged fleet totals, shaped like :meth:`MetricsRegistry.snapshot`."""
        with self._lock:
            hists = {}
            for name, hist in self._hists.items():
                count = hist["count"]
                hists[name] = {
                    "count": count,
                    "sum": hist["sum"],
                    "min": hist["min"] if count else None,
                    "max": hist["max"] if count else None,
                    "mean": (hist["sum"] / count) if count else None,
                    "buckets": dict(hist["buckets"]),
                }
            gauges: dict[str, float] = {}
            for worker_gauges in self._gauges.values():
                for name, value in worker_gauges.items():
                    gauges[name] = gauges.get(name, 0.0) + value
            return {
                "counters": dict(self._counters),
                "gauges": gauges,
                "histograms": hists,
            }

    def worker_series(self) -> dict[str, dict]:
        """Per-worker cumulative counters and latest gauges.

        Counters are cumulative across every process that ever occupied
        the slot (restart-safe, monotone); gauges are the slot's latest
        reported values.
        """
        with self._lock:
            return {
                worker: {
                    "pid": self._baselines.get(worker, {}).get("pid"),
                    "counters": dict(self._worker_counters.get(worker, {})),
                    "gauges": dict(self._gauges.get(worker, {})),
                }
                for worker in sorted(
                    set(self._worker_counters) | set(self._gauges)
                )
            }

    def reset(self) -> None:
        """Drop every merged total and baseline."""
        with self._lock:
            self._baselines.clear()
            self._counters.clear()
            self._worker_counters.clear()
            self._gauges.clear()
            self._hists.clear()


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh process-wide :class:`MetricsRegistry`."""
    global _registry
    registry = MetricsRegistry()
    with _state_lock:
        _registry = registry
    return registry


def disable_metrics() -> MetricsRegistry | None:
    """Uninstall the process-wide registry; returns it for inspection."""
    global _registry
    with _state_lock:
        registry, _registry = _registry, None
    return registry


def get_metrics() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when metrics are off."""
    return _registry


def inc(name: str, value: float = 1.0) -> None:
    """Increment a counter on the installed registry — or do nothing."""
    registry = _registry
    if registry is not None:
        registry.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the installed registry — or do nothing."""
    registry = _registry
    if registry is not None:
        registry.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram sample on the installed registry — or do nothing."""
    registry = _registry
    if registry is not None:
        registry.observe(name, value)


# ----------------------------------------------------------------------
# Prometheus plain-text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    """A metric name sanitized to the Prometheus grammar."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _bucket_upper_bound(key: str) -> float:
    """The inclusive upper bound of a log2 histogram bucket key."""
    if key == "<=0":
        return 0.0
    if key.startswith("2^"):
        return float(2.0 ** int(key[2:]))
    raise ValueError(f"unknown histogram bucket key {key!r}")


def to_prometheus(snapshot: dict | None = None) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    ``snapshot`` defaults to the installed registry's
    :meth:`MetricsRegistry.snapshot` (empty output when metrics are off).
    Counters gain the conventional ``_total`` suffix; the log2 histogram
    buckets become cumulative ``_bucket{le="..."}`` series capped by the
    mandatory ``le="+Inf"`` bucket.  This is what the ``/metrics``
    endpoint of ``repro serve`` returns.
    """
    if snapshot is None:
        registry = _registry
        snapshot = registry.snapshot() if registry is not None else {}
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        pname = _prom_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_value(value)}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        bounds = sorted(
            (_bucket_upper_bound(key), count)
            for key, count in hist.get("buckets", {}).items()
        )
        cumulative = 0
        for upper, count in bounds:
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_prom_value(upper)}"}} {cumulative}'
            )
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{pname}_sum {_prom_value(hist['sum'])}")
        lines.append(f"{pname}_count {hist['count']}")
    return "\n".join(lines) + "\n"


def fleet_to_prometheus(aggregator: MetricsAggregator) -> str:
    """Render fleet-aggregated metrics in Prometheus exposition format.

    Two blocks: the delta-merged fleet totals under a ``fleet.`` name
    prefix (counters, gauges, and cumulative-``le`` histograms whose
    buckets are sums of per-worker bucket counts), then the per-worker
    cumulative series as ``fleet_worker_*`` samples labeled
    ``worker="<slot>"``.  :class:`~repro.serve.fleet.FleetApp` appends
    this to the front end's own ``/metrics`` exposition.
    """
    snapshot = aggregator.fleet_snapshot()
    prefixed = {
        kind: {f"fleet.{name}": value for name, value in series.items()}
        for kind, series in snapshot.items()
    }
    lines = [to_prometheus(prefixed).rstrip("\n")] if any(
        prefixed.values()
    ) else []
    series = aggregator.worker_series()
    families: dict[tuple[str, str], list[tuple[str, float]]] = {}
    for worker in sorted(series):
        data = series[worker]
        for name, value in data["counters"].items():
            pname = _prom_name(f"fleet.worker.{name}") + "_total"
            families.setdefault(("counter", pname), []).append((worker, value))
        for name, value in data["gauges"].items():
            pname = _prom_name(f"fleet.worker.{name}")
            families.setdefault(("gauge", pname), []).append((worker, value))
    for (kind, pname), samples in sorted(
        families.items(), key=lambda item: (item[0][0], item[0][1])
    ):
        lines.append(f"# TYPE {pname} {kind}")
        for worker, value in samples:
            lines.append(f'{pname}{{worker="{worker}"}} {_prom_value(value)}')
    return "\n".join(lines) + "\n" if lines else ""


_PROM_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[+-]Inf|NaN)$"
)
_PROM_TYPE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r" (?P<kind>counter|gauge|histogram)$"
)


_PROM_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


def _parse_labels(text: str, i: int) -> dict[str, str]:
    """The label pairs of one sample line (strict: no leftover text)."""
    labels = dict(_PROM_LABEL.findall(text))
    rebuilt = ",".join(f'{k}="{v}"' for k, v in labels.items())
    if rebuilt != text:
        raise ValueError(f"line {i}: malformed label set {{{text}}}")
    return labels


def validate_prometheus_text(text: str) -> int:
    """Validate a Prometheus exposition payload; returns the sample count.

    The structural contract scrape targets rely on: every non-comment
    line is a well-formed sample, every sample's family carries a ``#
    TYPE`` declaration, and — per distinct non-``le`` label set, so
    ``worker="..."``-labeled fleet series validate independently —
    histogram ``_bucket`` series are cumulative, end with ``le="+Inf"``,
    and agree with their ``_count``.  Raises ``ValueError`` on the first
    violation — the schema-test mirror of
    :func:`repro.obs.trace.validate_chrome_trace`.
    """
    declared: dict[str, str] = {}
    buckets: dict[tuple, list[tuple[float, float]]] = {}
    counts: dict[tuple, float] = {}
    n_samples = 0
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = _PROM_TYPE.match(line)
            if match is None:
                raise ValueError(f"line {i}: malformed comment {line!r}")
            declared[match.group("name")] = match.group("kind")
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {i}: malformed sample {line!r}")
        n_samples += 1
        name = match.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in declared:
                family = name[: -len(suffix)]
        if family not in declared:
            raise ValueError(f"line {i}: sample {name!r} has no # TYPE")
        labels = _parse_labels(match.group("labels") or "", i)
        group = (
            family,
            tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"
            )),
        )
        if name.endswith("_bucket") and declared.get(family) == "histogram":
            le_text = labels.get("le")
            if le_text is None:
                raise ValueError(
                    f"line {i}: histogram bucket without an le label"
                )
            upper = math.inf if le_text == "+Inf" else float(le_text)
            buckets.setdefault(group, []).append(
                (upper, float(match.group("value")))
            )
        if name.endswith("_count") and declared.get(family) == "histogram":
            counts[group] = float(match.group("value"))
    for group, series in buckets.items():
        family = group[0]
        uppers = [u for u, _ in series]
        values = [v for _, v in series]
        if uppers != sorted(uppers):
            raise ValueError(f"{family}: bucket bounds not ascending")
        if values != sorted(values):
            raise ValueError(f"{family}: bucket counts not cumulative")
        if not series or not math.isinf(series[-1][0]):
            raise ValueError(f"{family}: missing le=\"+Inf\" bucket")
        if group in counts and counts[group] != series[-1][1]:
            raise ValueError(
                f"{family}: _count {counts[group]} disagrees with the "
                f"+Inf bucket {series[-1][1]}"
            )
    return n_samples
