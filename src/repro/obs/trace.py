"""Structured tracing: nestable spans, an in-memory trace tree, exporters.

A :class:`Tracer` is installed process-wide with :func:`enable_tracing`.
While one is installed, :func:`span` opens a named span::

    with span("stage.sample", rows=20_000) as sp:
        ...
        sp.set(retries=2)

Spans nest through a per-thread stack, so a span opened on a worker
thread (e.g. a serving batcher or fleet reader) records that thread's own
lineage instead of corrupting the caller's.  Finished spans accumulate in
the tracer and export two ways:

* :meth:`Tracer.to_dict` — plain JSON tree-by-parent-id, the format the
  ``repro trace summarize`` subcommand and the perf benchmarks consume;
* :meth:`Tracer.to_chrome_trace` — the Chrome trace-event format
  (``{"traceEvents": [...]}``, complete events, microsecond timestamps)
  loadable directly in ``chrome://tracing`` and Perfetto.

When no tracer is installed, :func:`span` returns a shared no-op span:
the instrumentation sites across the pipeline pay one ``None``-check and
nothing else, which is how the predict benchmark stays within its
regression budget with observability compiled in.

The pipeline clock
------------------
:func:`monotonic` is ``time.perf_counter()`` plus an accumulated
*synthetic offset*; :func:`advance` bumps that offset.  The stage runner
charges the synthetic stall seconds returned by fault-injection hooks
(:func:`repro.devtools.faultinject.stall_stage`) through :func:`advance`,
so a "5 second stall" lengthens span durations and stage budgets by
exactly 5.0 deterministic seconds without anybody sleeping.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from .profile import notify_span_end, notify_span_start

__all__ = [
    "Span",
    "Tracer",
    "advance",
    "current_context",
    "disable_tracing",
    "enable_tracing",
    "get_tracer",
    "merge_chrome_trace",
    "monotonic",
    "span",
    "validate_chrome_trace",
]

# Module-state discipline (see repro.devtools.registry): writes to the
# installed tracer and the synthetic clock offset go through _state_lock;
# hot-path reads are single atomic loads under the GIL and stay lock-free.
_state_lock = threading.Lock()
_tracer = None
_synthetic_offset = 0.0


def monotonic() -> float:
    """The pipeline clock: ``time.perf_counter()`` plus synthetic seconds.

    Every duration in the pipeline — span durations, stage budgets,
    ``StageRecord.elapsed`` — is a difference of two reads of this clock,
    so synthetic stall seconds charged via :func:`advance` flow into all
    of them consistently.
    """
    return time.perf_counter() + _synthetic_offset


def advance(seconds: float) -> None:
    """Advance the pipeline clock by ``seconds`` without sleeping.

    Used by the stage runner to charge the synthetic stall seconds
    returned by fault-injection stage hooks.  The offset only ever grows,
    so the clock stays monotonic.
    """
    global _synthetic_offset
    seconds = float(seconds)
    if seconds <= 0.0:
        return
    with _state_lock:
        _synthetic_offset += seconds


class _NullSpan:
    """The shared do-nothing span returned by :func:`span` when disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def set(self, **attrs):
        """No-op attribute setter (mirrors :meth:`Span.set`)."""
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One named, timed unit of pipeline work.

    ``attrs`` carries arbitrary JSON-serializable key/values set at open
    time or later via :meth:`set`.  ``parent_id`` links the trace tree;
    ``None`` marks a root span (or the first span opened on a worker
    thread).  ``trace_id`` names the end-to-end request the span belongs
    to: locally started roots use their own ``span_id``, children inherit
    their parent's, and spans opened under a propagated cross-process
    context (:meth:`Tracer.trace_context`) carry the originating
    front-end request's id — which is how worker-side spans stitch back
    into one fleet-wide trace.  ``end_s`` is ``None`` while still open.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start_s", "end_s", "attrs",
        "thread_id", "trace_id",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: int | None,
        start_s: float,
        thread_id: int,
        attrs: dict | None = None,
        trace_id: int | None = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: float | None = None
        self.thread_id = thread_id
        self.trace_id = span_id if trace_id is None else trace_id
        self.attrs = dict(attrs) if attrs else {}

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) attributes on the span; returns ``self``."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_s(self) -> float:
        """Seconds between start and end (``0.0`` while still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """JSON-ready representation of one span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "thread_id": self.thread_id,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration_s:.6f}s)"
        )


class _SpanContext:
    """Context manager pairing :meth:`Tracer.start` / :meth:`Tracer.finish`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_obj: Span):
        self._tracer = tracer
        self._span = span_obj

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self._span.set(error=f"{type(exc).__name__}: {exc}")
        self._tracer.finish(self._span)
        return False


class Tracer:
    """Collects spans into an in-memory trace; one per :func:`enable_tracing`.

    ``clock`` defaults to the pipeline clock (:func:`monotonic`); tests
    may inject a deterministic callable.  ``span_id_base`` offsets the id
    counter — fleet workers pass a pid-derived base so span ids stay
    unique after their buffers are merged into one cross-process trace.
    All mutation of the finished list and the id counter happens under an
    internal lock; the per-thread open-span stack and the propagated
    trace context live in a ``threading.local`` and need none.
    """

    def __init__(self, clock=None, span_id_base: int = 0):
        self._clock = monotonic if clock is None else clock
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._next_id = int(span_id_base) + 1
        self._local = threading.local()
        self.epoch_s = float(self._clock())

    # -- span lifecycle -------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @contextmanager
    def trace_context(self, trace_id: int, parent_span_id: int):
        """Adopt a propagated cross-process trace context on this thread.

        While active, root spans opened on the thread (an empty stack)
        become children of ``parent_span_id`` and carry ``trace_id``
        instead of minting their own — the worker-side half of fleet
        trace propagation.  Contexts nest and restore on exit.
        """
        previous = getattr(self._local, "ctx", None)
        self._local.ctx = (int(trace_id), int(parent_span_id))
        try:
            yield
        finally:
            self._local.ctx = previous

    def start(self, name: str, **attrs) -> Span:
        """Open a span named ``name``; it becomes the thread's current span."""
        stack = self._stack()
        if stack:
            parent_id = stack[-1].span_id
            trace_id = stack[-1].trace_id
        else:
            ctx = getattr(self._local, "ctx", None)
            trace_id, parent_id = ctx if ctx is not None else (None, None)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        sp = Span(
            name,
            span_id,
            parent_id,
            float(self._clock()),
            threading.get_ident(),
            attrs,
            trace_id=trace_id,
        )
        stack.append(sp)
        notify_span_start(sp)
        return sp

    def finish(self, span_obj: Span) -> Span:
        """Close ``span_obj`` and append it to the finished list.

        Tolerates out-of-order finishes (an enclosing span finished while
        a child is still open) by popping through the stack; spans from
        other threads simply are not on this thread's stack.
        """
        if span_obj.end_s is None:
            span_obj.end_s = float(self._clock())
        stack = self._stack()
        while stack and stack[-1].span_id >= span_obj.span_id:
            stack.pop()
        with self._lock:
            self._finished.append(span_obj)
        notify_span_end(span_obj)
        return span_obj

    def span(self, name: str, **attrs) -> _SpanContext:
        """Context manager: open at entry, finish at exit.

        An exception propagating out of the body is recorded on the span
        as an ``error`` attribute before the span is finished.
        """
        return _SpanContext(self, self.start(name, **attrs))

    # -- introspection / export ----------------------------------------
    def spans(self) -> list[Span]:
        """A snapshot list of the finished spans, in finish order."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> list[dict]:
        """Atomically remove and return the finished spans as dicts.

        The fleet worker's export path: each heartbeat (or explicit
        ``obs-pull``) ships the spans finished since the previous drain,
        so a span crosses the pipe exactly once and the per-process
        buffer stays bounded under sustained traffic.
        """
        with self._lock:
            finished, self._finished = self._finished, []
        return [s.to_dict() for s in finished]

    def find(self, name: str) -> list[Span]:
        """All finished spans named ``name``."""
        return [s for s in self.spans() if s.name == name]

    def to_dict(self) -> dict:
        """Plain-JSON trace: epoch plus every finished span's dict."""
        return {
            "epoch_s": self.epoch_s,
            "spans": [s.to_dict() for s in self.spans()],
        }

    def to_chrome_trace(self, extra: dict | None = None, pid: int = 1) -> dict:
        """The trace in Chrome trace-event format (Perfetto-loadable).

        Every finished span becomes one complete ("ph": "X") event with
        microsecond ``ts``/``dur`` relative to the tracer's epoch.  Span
        attributes, ids and parent ids ride along in ``args``.  ``pid``
        labels the process lane (the fleet front end merges one lane per
        worker pid).  ``extra`` (e.g. a metrics snapshot) is embedded
        under ``otherData``, which viewers ignore but
        :func:`repro.obs.summary.summarize_trace` reads back.
        """
        events = [
            _chrome_event(s.to_dict(), epoch_s=self.epoch_s, pid=pid)
            for s in self.spans()
        ]
        payload = {"traceEvents": events, "displayTimeUnit": "ms"}
        if extra:
            payload["otherData"] = dict(extra)
        return payload

    def write(self, path, extra: dict | None = None) -> None:
        """Write the Chrome-trace JSON of this tracer to ``path``."""
        Path(path).write_text(
            json.dumps(self.to_chrome_trace(extra=extra), indent=2) + "\n"
        )


def enable_tracing(clock=None, span_id_base: int = 0) -> Tracer:
    """Install (and return) a fresh process-wide :class:`Tracer`.

    Replaces any previously installed tracer.  Pass a ``clock`` callable
    for deterministic tests; the default is the pipeline clock.  Fleet
    workers pass a pid-derived ``span_id_base`` so ids from different
    processes never collide in a merged trace.
    """
    global _tracer
    tracer = Tracer(clock=clock, span_id_base=span_id_base)
    with _state_lock:
        _tracer = tracer
    return tracer


def disable_tracing() -> Tracer | None:
    """Uninstall the process-wide tracer; returns it for inspection."""
    global _tracer
    with _state_lock:
        tracer, _tracer = _tracer, None
    return tracer


def get_tracer() -> Tracer | None:
    """The installed :class:`Tracer`, or ``None`` when tracing is off."""
    return _tracer


def span(name: str, **attrs):
    """Open a span on the installed tracer — or do nothing.

    This is the one instrumentation entry point the pipeline uses.  With
    tracing disabled it returns a shared no-op context manager after a
    single ``None``-check, so disabled-mode overhead is one function call
    per site.
    """
    tracer = _tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def current_context() -> dict | None:
    """The calling thread's innermost open span as a propagation context.

    Returns ``{"trace_id": ..., "parent_span_id": ...}`` ready to ship
    across a process boundary (the fleet dispatcher attaches it to every
    ``req`` message), or ``None`` when tracing is off or no span is open
    — the receiving worker then records detached spans as today.
    """
    tracer = _tracer
    if tracer is None:
        return None
    stack = getattr(tracer._local, "stack", None)
    if not stack:
        return None
    top = stack[-1]
    return {"trace_id": top.trace_id, "parent_span_id": top.span_id}


def _chrome_event(span_dict: dict, *, epoch_s: float, pid: int) -> dict:
    """One complete ("X") trace event from a span's dict form.

    ``ts`` is clamped at 0: per-process epochs are captured at tracer
    construction, before any span can start, so the clamp only absorbs
    float rounding — the validator's non-negativity contract holds for
    every merged lane.
    """
    start = float(span_dict["start_s"])
    duration = span_dict.get("duration_s")
    return {
        "name": span_dict["name"],
        "ph": "X",
        "cat": "gef",
        "ts": round(max(0.0, start - epoch_s) * 1e6, 3),
        "dur": round(float(duration or 0.0) * 1e6, 3),
        "pid": int(pid),
        "tid": span_dict["thread_id"],
        "args": {
            "span_id": span_dict["span_id"],
            "parent_id": span_dict["parent_id"],
            "trace_id": span_dict.get("trace_id"),
            **span_dict.get("attrs", {}),
        },
    }


def merge_chrome_trace(processes, extra: dict | None = None) -> dict:
    """Merge per-process span buffers into one valid Chrome trace.

    ``processes`` is an iterable of ``{"pid": int, "epoch_s": float,
    "spans": [span dicts]}`` — the front end's own lane plus the buffers
    shipped back by fleet workers.  Each lane's timestamps are relative
    to its *own* tracer epoch (per-process synthetic clock offsets make
    absolute readings incomparable across the fleet; per-lane epochs keep
    every ``ts`` non-negative and every duration exact).  The result
    passes :func:`validate_chrome_trace` and renders one ``pid`` row per
    process in Perfetto.
    """
    events = []
    for process in sorted(processes, key=lambda p: int(p.get("pid", 1))):
        pid = int(process.get("pid", 1))
        epoch_s = float(process.get("epoch_s", 0.0))
        for span_dict in process.get("spans", ()):
            events.append(_chrome_event(span_dict, epoch_s=epoch_s, pid=pid))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    if extra:
        payload["otherData"] = dict(extra)
    return payload


#: Keys required of every complete event in a Chrome trace export.
_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")


def validate_chrome_trace(payload: dict) -> int:
    """Validate a Chrome trace-event payload; returns the event count.

    Checks the structural contract ``chrome://tracing`` / Perfetto rely
    on: a ``traceEvents`` list of complete events carrying numeric,
    non-negative ``ts``/``dur``.  Raises ``ValueError`` on the first
    violation — the CI ``obs`` job runs this over the smoke trace.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    for i, event in enumerate(events):
        for key in _EVENT_KEYS:
            if key not in event:
                raise ValueError(f"event {i} is missing required key {key!r}")
        if event["ph"] != "X":
            raise ValueError(
                f"event {i} has phase {event['ph']!r}; exporter only emits "
                f"complete ('X') events"
            )
        for key in ("ts", "dur"):
            value = event[key]
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(
                    f"event {i} field {key!r} must be a non-negative number, "
                    f"got {value!r}"
                )
    return len(events)
