"""Fleet worker process: attached engines behind a pipe.

:func:`worker_main` is the (spawn-picklable) entry point of one fleet
worker.  The worker attaches its assigned models' bitvector engines
from shared memory (:mod:`repro.serve.shm`) and scores the row batches
the front end sends it.  Everything else about ``/predict`` — parsing,
validation, admission, micro-batching, encoding the answer — happens
once, on the front end, so a worker is a bare engine behind its pipe.
The protocol is deliberately tiny — plain tuples, first element the
message kind.  Every request but ``ping`` and ``stop`` carries a
per-handle request id ``rid``, and its one reply carries it back:

Front end -> worker::

    ("predict", rid, model_id, fingerprint, X, ctx)
                                       score the float64 rows X (ctx =
                                       trace context dict or None)
    ("load", rid, bundle)              attach a SharedModelBundle
    ("unload", rid, model_id)          drop a model
    ("obs-pull", rid)                  request a fresh observability payload
    ("chaos", rid, flag, value)        fault-injection switch
    ("ping", seq)                      heartbeat probe (answer with pong)
    ("stop", drain)                    drain (or abort) and exit

Worker -> front end::

    ("res", rid, value, error)         the reply to predict, load, unload
                                       and chaos: the scores (None for
                                       the others), or None and the
                                       exception predict raised; a model
                                       or fingerprint miss is a
                                       ModelNotFoundError
    ("obs", rid, obs)                  the reply to obs-pull
    ("pong", seq, obs)                 heartbeat answer + piggybacked
                                       observability payload
    ("ready", pid, model_ids)          boot finished, models attached
    ("stopped",)                       clean exit imminent

The observability payload carries the worker pid, a monotonic metrics
snapshot (the front end delta-merges these into fleet totals, so a
restart's counter reset is detected rather than double counted), and —
when tracing is on — the tracer epoch plus the finished spans drained
since the previous payload.  Workers run their spans under a per-pid
``span_id_base`` so ids stay globally unique in the merged trace, and
each ``predict`` carries the dispatching thread's trace context, so the
worker's ``fleet.worker.predict`` span joins the front end's trace tree.

Predicts run on one compute thread so the receive loop stays responsive
— a worker saturated with slow predicts still answers heartbeats, which
is exactly what distinguishes *busy* from *hung* for the supervisor.
The ``chaos`` switches implement the deterministic fleet faults
(:func:`repro.devtools.faultinject.hang_worker` mutes pongs,
``corrupt_heartbeat`` garbles them); pipe FIFO ordering makes their
effects exact — every ping sent after the reply is affected, and the
front end has read every pong sent before it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

from ..core.errors import ModelNotFoundError
from ..obs.metrics import enable_metrics, get_metrics
from ..obs.trace import enable_tracing, get_tracer, span as obs_span
from .shm import SharedModelBundle, attach_model

__all__ = ["worker_main"]


class _WorkerRuntime:
    """One worker process's event loop state."""

    def __init__(self, name, conn, bundles, trace: bool):
        self._conn = conn
        self._send_lock = threading.Lock()
        self._chaos = {"mute_pings": False, "corrupt_pings": False}
        # model_id -> (fingerprint, segment, engine).  The engine's arrays
        # are views that keep the segment mapped while it runs, even if
        # the model is unloaded meanwhile; but the segment object cannot
        # close while they exist, so it is released after the engine (a
        # tuple releases its items last to first).
        self._models: dict[str, tuple] = {}
        self._compute = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-fleet-{name}"
        )
        # Metrics are always on in a worker: the snapshot is its only
        # path back to the front end's fleet aggregation.  Tracing is
        # opt-in (mirrors the front end); the per-pid span_id_base keeps
        # span ids globally unique in the merged multi-process trace.
        enable_metrics()
        if trace:
            enable_tracing(span_id_base=os.getpid() * 1_000_000)
        for bundle in bundles:
            self._load(bundle)

    def _load(self, bundle: SharedModelBundle) -> None:
        engine, segment = attach_model(bundle)
        self._models[bundle.model_id] = (
            int(bundle.fingerprint), segment, engine
        )

    def _send(self, message) -> None:
        with self._send_lock:
            self._conn.send(message)

    def _score(self, model_id, fingerprint, X):
        # Holding the whole tuple keeps its release order (see __init__).
        held = self._models.get(model_id)
        if held is None or held[0] != fingerprint:
            raise ModelNotFoundError(
                f"worker holds no model {model_id!r} with fingerprint "
                f"{fingerprint}"
            )
        return held[2].predict_raw(X)

    def _predict(self, rid, model_id, fingerprint, X, ctx) -> None:
        tracer = get_tracer()
        joined = (
            tracer.trace_context(ctx["trace_id"], ctx["parent_span_id"])
            if tracer is not None and ctx is not None
            else nullcontext()
        )
        scores = error = None
        try:
            with joined, obs_span(
                "fleet.worker.predict", model=model_id, rows=int(len(X))
            ):
                scores = self._score(model_id, fingerprint, X)
        except Exception as exc:  # repro: allow(broad-except) the error is the reply; the front end raises it for the batch
            error = exc
        try:
            self._send(("res", rid, scores, error))
        except (OSError, ValueError, BrokenPipeError):
            # The front end went away mid-response; predict is pure, a
            # restarted front end simply re-dispatches.
            pass

    def _obs_payload(self) -> dict:
        """The worker's shippable observability state (see module doc)."""
        registry = get_metrics()
        tracer = get_tracer()
        payload = {
            "pid": os.getpid(),
            "metrics": registry.snapshot() if registry is not None else {},
        }
        if tracer is not None:
            payload["epoch_s"] = tracer.epoch_s
            payload["spans"] = tracer.drain()
        return payload

    def _on_ping(self, seq) -> None:
        if self._chaos["mute_pings"]:
            return
        if self._chaos["corrupt_pings"]:
            self._send(("pong", None))
            return
        self._send(("pong", seq, self._obs_payload()))

    def run(self) -> None:
        """Answer messages until ``stop`` or the pipe closes."""
        self._send(("ready", os.getpid(), sorted(self._models)))
        drain = True
        while True:
            try:
                message = self._conn.recv()
            except (EOFError, OSError):
                drain = False
                break
            kind = message[0]
            if kind == "predict":
                self._compute.submit(self._predict, *message[1:])
            elif kind == "ping":
                self._on_ping(message[1])
            elif kind == "obs-pull":
                self._send(("obs", message[1], self._obs_payload()))
            elif kind == "load":
                self._load(message[2])
                self._send(("res", message[1], None, None))
            elif kind == "unload":
                self._models.pop(message[2], None)
                self._send(("res", message[1], None, None))
            elif kind == "chaos":
                _, rid, flag, value = message
                if flag in self._chaos:
                    self._chaos[flag] = bool(value)
                self._send(("res", rid, None, None))
            elif kind == "stop":
                drain = bool(message[1])
                break
        self._compute.shutdown(wait=drain, cancel_futures=not drain)
        try:
            self._send(("stopped",))
        except (OSError, ValueError, BrokenPipeError):
            pass
        self._conn.close()


def worker_main(name, conn, bundles, trace: bool = False) -> None:
    """Process entry point of fleet worker ``name`` (see module docstring).

    ``trace`` mirrors the front end's tracing state at spawn time
    (including supervisor respawns, so a restarted worker keeps
    contributing spans to the merged trace).
    """
    try:
        _WorkerRuntime(name, conn, bundles, trace).run()
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        pass
