"""Multi-process serving fleet: shared-memory forests, crash-only failover.

:class:`Fleet` runs N worker processes (:mod:`repro.serve.worker`), each
a full :class:`~repro.serve.app.ServeApp` whose models are attached
zero-copy from ``multiprocessing.shared_memory``
(:mod:`repro.serve.shm`).  The front end routes requests by model
fingerprint over a consistent-hash ring — a model's ``replication``
count picks how many workers hold it (hot models replicated across the
fleet, cold models sharded onto few), and routing stays stable as
workers crash and return.

Robustness model (crash-only):

- Every failure mode — clean exit, SIGKILL, hang, corrupted heartbeat —
  collapses onto one recovery path: the worker is declared crashed, its
  in-flight requests are re-dispatched, the supervisor restarts it with
  exponential backoff (:mod:`repro.serve.supervisor`).
- Re-dispatch is idempotent by construction: predict is pure given the
  forest fingerprint, so replaying a request on a surviving replica (or
  in-process on the front end) cannot double-apply anything.
- When the fleet cannot sustain quorum, :class:`FleetApp` degrades to
  single-process in-proc serving — requests slow down, none are lost.

:class:`FleetApp` is a drop-in :class:`~repro.serve.app.ServeApp`: the
HTTP layer, the load generator and the test suite drive it through the
same ``handle()`` entry point; only ``/predict`` is fanned out (explain
and GAM endpoints stay on the front end, which holds the real forest
objects and the surrogate cache).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import multiprocessing
import os
import signal
import threading
from dataclasses import dataclass

from ..core.errors import (
    FleetDegradedError,
    ModelNotFoundError,
    ServeError,
    StageTimeoutError,
    WorkerCrashError,
)
from ..obs.metrics import MetricsAggregator, fleet_to_prometheus
from ..obs.metrics import inc as metric_inc
from ..obs.trace import current_context, get_tracer, merge_chrome_trace
from .admission import Deadline
from .app import Response, ServeApp, ServeConfig, _json_response
from .registry import ModelEntry
from .shm import export_model
from .worker import WorkerOptions, worker_main

__all__ = ["Fleet", "FleetApp", "FleetConfig", "HashRing"]


@dataclass
class FleetConfig:
    """Tunables of the multi-process serving fleet.

    ``start_method`` defaults to ``"spawn"``: forking a front end whose
    threads (batchers, metrics, HTTP handlers) may hold locks mid-fork —
    exactly what happens when the supervisor restarts a worker under
    load — risks a deadlocked child.  Spawned workers cost an import
    (~0.5s) once per (re)start and are immune.

    ``quorum`` is the minimum number of ``up`` workers for the fleet to
    be routable; below it :class:`FleetApp` serves in-process.
    ``max_restarts`` bounds per-worker restarts before the circuit
    breaker parks the slot in ``failed``.
    """

    workers: int = 2
    replication: int = 1
    worker_threads: int = 4
    start_method: str = "spawn"
    vnodes: int = 64
    miss_threshold: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0
    max_restarts: int = 5
    quorum: int = 1
    ready_timeout_s: float = 60.0
    stop_timeout_s: float = 10.0
    ack_timeout_s: float = 60.0


class HashRing:
    """Consistent-hash ring with virtual nodes and stable replica sets.

    Hashes are ``blake2b`` over the key string — never the builtin
    ``hash``, whose per-process randomization (``PYTHONHASHSEED``) would
    make model placement differ between front-end runs.
    """

    def __init__(self, nodes, vnodes: int = 64):
        self._vnodes = max(1, int(vnodes))
        self._ring = sorted(
            (self._hash(f"{node}#{v}"), str(node))
            for node in nodes
            for v in range(self._vnodes)
        )
        self._keys = [h for h, _ in self._ring]

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def replicas(self, key, k: int) -> list[str]:
        """The ``k`` distinct nodes owning ``key``, in ring order."""
        if not self._ring:
            return []
        start = bisect.bisect_right(self._keys, self._hash(str(key)))
        out: list[str] = []
        n = len(self._ring)
        for j in range(n):
            node = self._ring[(start + j) % n][1]
            if node not in out:
                out.append(node)
                if len(out) >= k:
                    break
        return out


class _Pending:
    """One in-flight fleet request awaiting its worker's response."""

    __slots__ = ("event", "status", "body", "content_type", "outcome")

    def __init__(self):
        self.event = threading.Event()
        self.status = 0
        self.body = b""
        self.content_type = ""
        self.outcome = "pending"


class _WorkerHandle:
    """Front-end-side handle of one worker process.

    Owns the pipe, the reader thread, and the in-flight request map.
    ``mark_dead`` is the single point of failure bookkeeping: it runs at
    most once, drains every pending request with outcome ``"died"`` (the
    dispatcher then re-dispatches), and wakes every ack waiter so no
    fault-injection helper can hang on a corpse.
    """

    def __init__(self, name: str, proc, conn):
        self.name = name
        self.proc = proc
        self.conn = conn
        self.alive = True
        self.stopping = False
        self.pid: int | None = proc.pid
        self.ready_event = threading.Event()
        self.dead_event = threading.Event()
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._acks: dict[tuple, list[threading.Event]] = {}
        self._reader: threading.Thread | None = None

    def start_reader(self, fleet: "Fleet") -> None:
        """Start the response/heartbeat reader thread."""
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(fleet,),
            name=f"repro-fleet-reader-{self.name}",
            daemon=True,
        )
        self._reader.start()

    # -- sending -------------------------------------------------------
    def send(self, message) -> bool:
        """Send one message; on a broken pipe, declare the worker dead."""
        try:
            with self._send_lock:
                self.conn.send(message)
            return True
        except (OSError, ValueError, BrokenPipeError):
            self.mark_dead("pipe write failed")
            return False

    def submit(self, rid: int, message, pending: _Pending) -> bool:
        """Register an in-flight request and send it; False if dead."""
        with self._lock:
            if not self.alive:
                return False
            self._pending[rid] = pending
        if not self.send(message):
            with self._lock:
                self._pending.pop(rid, None)
            return False
        return True

    def forget(self, rid: int) -> None:
        """Drop an in-flight request (front-end-side timeout)."""
        with self._lock:
            self._pending.pop(rid, None)

    def await_ack(self, key: tuple, message, timeout_s: float) -> bool:
        """Send ``message`` and wait for the matching worker ack."""
        event = threading.Event()
        with self._lock:
            if not self.alive:
                return False
            self._acks.setdefault(key, []).append(event)
        if not self.send(message):
            return False
        return event.wait(timeout_s) and self.alive

    # -- the reader thread ---------------------------------------------
    def _read_loop(self, fleet: "Fleet") -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "res":
                _, rid, status, body, ctype = message
                with self._lock:
                    pending = self._pending.pop(rid, None)
                if pending is not None:
                    pending.status = status
                    pending.body = body
                    pending.content_type = ctype
                    pending.outcome = "ok"
                    pending.event.set()
            elif kind == "pong":
                # A healthy pong carries a piggybacked observability
                # payload; the corrupt-heartbeat chaos form stays a bare
                # 2-tuple and is handled by the supervisor alone.
                if len(message) > 2 and message[2]:
                    fleet.ingest_obs(self.name, message[2])
                fleet.supervisor.on_pong(self.name, message[1])
            elif kind == "ready":
                self.pid = int(message[1])
                fleet.supervisor.on_ready(self.name, message[1])
                self.ready_event.set()
            elif kind == "obs":
                # Ingest before waking the waiter: sync_obs must see the
                # aggregated state the moment await_ack returns.
                fleet.ingest_obs(self.name, message[2])
                self._ack(("obs", message[1]))
            elif kind in ("loaded", "unloaded"):
                self._ack((kind, message[1]))
            elif kind == "chaos-ack":
                self._ack(("chaos", message[1], bool(message[2])))
            elif kind == "stopped":
                self.stopping = True
                fleet.supervisor.on_stopped(self.name)
        self.mark_dead("pipe closed")

    def _ack(self, key: tuple) -> None:
        with self._lock:
            waiters = self._acks.pop(key, [])
        for event in waiters:
            event.set()

    # -- death ---------------------------------------------------------
    def mark_dead(self, reason: str) -> None:
        """Declare the worker dead exactly once; fail over in-flights."""
        with self._lock:
            if not self.alive:
                return
            self.alive = False
            orphans = list(self._pending.values())
            self._pending.clear()
            ack_waiters = [e for lst in self._acks.values() for e in lst]
            self._acks.clear()
        for pending in orphans:
            pending.outcome = "died"
            pending.event.set()
        for event in ack_waiters:
            event.set()
        self.dead_event.set()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class Fleet:
    """N supervised worker processes serving shared-memory models."""

    def __init__(self, config: FleetConfig | None = None,
                 serve_config: ServeConfig | None = None):
        from .supervisor import Supervisor

        self.config = config or FleetConfig()
        self._serve_config = serve_config or ServeConfig()
        self._ctx = multiprocessing.get_context(self.config.start_method)
        self._lock = threading.Lock()
        self._handles: dict[str, _WorkerHandle] = {}
        self._models: dict[str, dict] = {}
        self._rr: dict[int, int] = {}
        self._rid = itertools.count(1)
        self._started = False
        self._closed = False
        self._names = [f"w{i}" for i in range(max(1, int(self.config.workers)))]
        self._ring = HashRing(self._names, vnodes=self.config.vnodes)
        self._loop_stop = threading.Event()
        self._loop_thread: threading.Thread | None = None
        self.aggregator = MetricsAggregator()
        self._obs_lock = threading.Lock()
        self._span_lanes: dict[int, dict] = {}
        self.supervisor = Supervisor(
            self,
            miss_threshold=self.config.miss_threshold,
            backoff_base_s=self.config.backoff_base_s,
            backoff_cap_s=self.config.backoff_cap_s,
            max_restarts=self.config.max_restarts,
            quorum=self.config.quorum,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _worker_options(self) -> WorkerOptions:
        cfg = self._serve_config
        return WorkerOptions(
            max_batch=cfg.max_batch,
            batch_delay_s=cfg.batch_delay_s,
            queue_limit=cfg.queue_limit,
            max_inflight=cfg.max_inflight,
            threads=self.config.worker_threads,
            # Workers mirror the front end's tracing state at spawn time
            # (including supervisor respawns, so a restarted worker keeps
            # contributing spans to the merged trace).
            trace=get_tracer() is not None,
        )

    def _spawn(self, name: str) -> _WorkerHandle:
        with self._lock:
            bundles = [
                record["bundle"]
                for record in self._models.values()
                if name in record["assigned"]
            ]
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(name, child_conn, bundles, self._worker_options()),
            name=f"repro-fleet-{name}",
            daemon=True,
        )
        proc.start()
        # Close the parent's copy of the child end: the reader must see
        # EOF the instant the worker dies, not when the front end exits.
        child_conn.close()
        handle = _WorkerHandle(name, proc, parent_conn)
        with self._lock:
            self._handles[name] = handle
        handle.start_reader(self)
        return handle

    def start(self, supervise_interval_s: float | None = None) -> None:
        """Spawn the fleet and wait for quorum.

        Raises :class:`FleetDegradedError` when fewer than ``quorum``
        workers become ready within ``ready_timeout_s``.  With
        ``supervise_interval_s`` set, a daemon thread ticks the
        supervisor on that wall interval (the CLI path); tests tick
        explicitly instead.
        """
        with self._lock:
            if self._started:
                raise ServeError("fleet already started")
            self._started = True
        for name in self._names:
            self.supervisor.register(name)
        for name in self._names:
            self._spawn(name)
        ready = 0
        for name in self._names:
            handle = self.handle(name)
            if handle.ready_event.wait(self.config.ready_timeout_s):
                ready += 1
        if ready < self.config.quorum:
            self.close(drain=False)
            raise FleetDegradedError(
                f"fleet failed to reach quorum: {ready}/{len(self._names)} "
                f"workers ready (quorum {self.config.quorum})"
            )
        if supervise_interval_s is not None:
            self._loop_thread = threading.Thread(
                target=self.supervisor.run,
                args=(float(supervise_interval_s), self._loop_stop),
                name="repro-fleet-supervisor",
                daemon=True,
            )
            self._loop_thread.start()

    def close(self, drain: bool = True) -> None:
        """Stop every worker and unlink every shared-memory segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
            models = list(self._models.values())
            self._models.clear()
        self._loop_stop.set()
        if self._loop_thread is not None:
            self._loop_thread.join(timeout=self.config.stop_timeout_s)
        for handle in handles:
            if handle.alive:
                handle.stopping = True
                handle.send(("stop", bool(drain)))
        for handle in handles:
            handle.proc.join(self.config.stop_timeout_s)
            if handle.proc.is_alive():  # pragma: no cover - stuck worker
                handle.proc.terminate()
                handle.proc.join(self.config.stop_timeout_s)
            handle.mark_dead("fleet closed")
        for record in models:
            record["segment"].unlink()

    # ------------------------------------------------------------------
    # models
    # ------------------------------------------------------------------
    def add_model(self, entry: ModelEntry, replicas: int | None = None) -> list[str]:
        """Export ``entry``'s encoding to shared memory and assign workers.

        Returns the assigned worker names.  Callable before ``start()``
        (bundles ride along on spawn) or after (live workers load and
        ack).  Re-adding an id is a hot swap: the old segment is unlinked
        after the new bundle is broadcast — workers still mapping the old
        segment keep serving from it until they process the swap (POSIX
        unlink-while-mapped), so there is no unserved window.

        A forest with no bitvector encoding is not assigned (any previous
        assignment of the id is removed) and ``[]`` is returned:
        :meth:`dispatch` then raises :class:`ModelNotFoundError` and
        :class:`FleetApp` serves it in-process through the loop.
        """
        if entry.bitvector is None:
            self.remove_model(entry.model_id)
            return []
        k = int(replicas) if replicas is not None else self.config.replication
        k = max(1, min(k, len(self._names)))
        bundle, segment = export_model(
            entry.model_id, entry.fingerprint, entry.n_features, entry.bitvector
        )
        assigned = self._ring.replicas(entry.fingerprint, k)
        with self._lock:
            old = self._models.get(entry.model_id)
            self._models[entry.model_id] = {
                "bundle": bundle,
                "segment": segment,
                "assigned": assigned,
            }
            broadcast = self._started and not self._closed
        if broadcast:
            for name in assigned:
                handle = self._handle_or_none(name)
                if handle is not None and handle.alive:
                    handle.await_ack(
                        ("loaded", entry.model_id),
                        ("load", bundle),
                        self.config.ack_timeout_s,
                    )
        if old is not None:
            old["segment"].unlink()
        return assigned

    def remove_model(self, model_id: str) -> None:
        """Unassign a model fleet-wide and unlink its segments."""
        with self._lock:
            record = self._models.pop(model_id, None)
            broadcast = self._started and not self._closed
        if record is None:
            return
        if broadcast:
            for name in record["assigned"]:
                handle = self._handle_or_none(name)
                if handle is not None and handle.alive:
                    handle.await_ack(
                        ("unloaded", model_id),
                        ("unload", model_id),
                        self.config.ack_timeout_s,
                    )
        record["segment"].unlink()

    def assignment(self, model_id: str) -> list[str]:
        """The worker names currently assigned to ``model_id``."""
        with self._lock:
            record = self._models.get(model_id)
            return list(record["assigned"]) if record else []

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def active(self) -> bool:
        """True when the fleet is started, open, and at quorum."""
        with self._lock:
            if not self._started or self._closed:
                return False
        return self.supervisor.state() == "ok"

    def _handle_or_none(self, name: str) -> _WorkerHandle | None:
        with self._lock:
            return self._handles.get(name)

    def handle(self, name: str) -> _WorkerHandle:
        """The live handle of worker ``name`` (raises if unknown)."""
        with self._lock:
            handle = self._handles.get(name)
        if handle is None:
            raise ServeError(f"no fleet worker named {name!r}")
        return handle

    def _pick(self, assigned, fingerprint: int, tried: set) -> _WorkerHandle | None:
        with self._lock:
            candidates = []
            for name in assigned:
                handle = self._handles.get(name)
                if (
                    handle is not None
                    and handle.alive
                    and handle.ready_event.is_set()
                    and name not in tried
                ):
                    candidates.append(handle)
            if not candidates:
                return None
            turn = self._rr.get(fingerprint, 0)
            self._rr[fingerprint] = turn + 1
        return candidates[turn % len(candidates)]

    def dispatch(
        self, model_id: str, method: str, path: str, body, deadline: Deadline
    ) -> Response:
        """Route one request to a replica of ``model_id``; fail over.

        A worker dying mid-request wakes the dispatch with outcome
        ``"died"`` and the loop retries the next untried alive replica —
        predict is pure given the fingerprint, so the replay is
        idempotent.  Raises :class:`WorkerCrashError` when every replica
        has died (callers with a local registry fall back in-process),
        :class:`FleetDegradedError` when the fleet is closed or was never
        started, and :class:`StageTimeoutError` on deadline expiry.
        """
        with self._lock:
            serving = self._started and not self._closed
            record = self._models.get(model_id)
        if not serving:
            raise FleetDegradedError(
                "fleet is not serving (closed or never started)"
            )
        if record is None:
            raise ModelNotFoundError(
                f"model {model_id!r} is not assigned to the fleet"
            )
        assigned = record["assigned"]
        fingerprint = record["bundle"].fingerprint
        tried: set[str] = set()
        dispatched = False
        while True:
            handle = self._pick(assigned, fingerprint, tried)
            if handle is None:
                raise WorkerCrashError(
                    f"no alive replica of model {model_id!r} "
                    f"({'re-dispatch exhausted' if dispatched else 'none available'}: "
                    f"assigned {assigned})"
                )
            tried.add(handle.name)
            rid = next(self._rid)
            pending = _Pending()
            message = ("req", rid, method, path, body, current_context())
            if not handle.submit(rid, message, pending):
                continue
            dispatched = True
            metric_inc("fleet.dispatched")
            if not pending.event.wait(deadline.remaining()):
                handle.forget(rid)
                raise StageTimeoutError(
                    f"fleet request to worker {handle.name} timed out",
                    stage="serve.fleet",
                )
            if pending.outcome == "ok":
                return Response(
                    pending.status, pending.body, pending.content_type
                )
            metric_inc("fleet.redispatched")

    # ------------------------------------------------------------------
    # supervisor-facing operations
    # ------------------------------------------------------------------
    def worker_exitcode(self, name: str):
        """The worker's process exit code (None while running/stopped)."""
        handle = self._handle_or_none(name)
        if handle is None or handle.stopping:
            return None
        return handle.proc.exitcode

    def kill_worker_process(self, name: str) -> None:
        """SIGKILL a worker's process (hang escalation; crash-only path)."""
        handle = self._handle_or_none(name)
        if handle is None or handle.pid is None:
            return
        try:
            os.kill(handle.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):  # pragma: no cover
            pass

    def reap(self, name: str) -> None:
        """Join a crashed worker and fail over its in-flight requests."""
        handle = self._handle_or_none(name)
        if handle is None:
            return
        handle.proc.join(self.config.stop_timeout_s)
        handle.mark_dead("crashed")

    def respawn(self, name: str) -> None:
        """Start a fresh process in worker slot ``name``."""
        with self._lock:
            if self._closed:
                return
        self._spawn(name)

    def send_ping(self, name: str, seq: int) -> None:
        """Send one heartbeat probe to worker ``name``."""
        handle = self._handle_or_none(name)
        if handle is not None and handle.alive:
            handle.send(("ping", seq))

    def chaos(self, name: str, flag: str, value: bool) -> bool:
        """Flip a worker-side fault-injection switch; True once acked."""
        handle = self.handle(name)
        return handle.await_ack(
            ("chaos", flag, bool(value)),
            ("chaos", flag, bool(value)),
            self.config.ack_timeout_s,
        )

    def await_ready(self, name: str, timeout_s: float | None = None) -> bool:
        """Wait until worker ``name``'s current process reports ready."""
        handle = self.handle(name)
        return handle.ready_event.wait(
            timeout_s if timeout_s is not None else self.config.ready_timeout_s
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def ingest_obs(self, name: str, payload: dict) -> None:
        """Fold one worker observability payload into the fleet state.

        Metrics snapshots delta-merge through the aggregator (restart
        resets detected by pid change and counter regression); drained
        spans accumulate into per-pid lanes for :meth:`merged_trace`.
        Called from the reader threads on every pong and obs answer.
        """
        pid = int(payload.get("pid", 0))
        metrics = payload.get("metrics") or {}
        if metrics:
            self.aggregator.ingest(name, pid, metrics)
        spans = payload.get("spans")
        if spans:
            epoch_s = float(payload.get("epoch_s", 0.0))
            with self._obs_lock:
                lane = self._span_lanes.setdefault(
                    pid, {"pid": pid, "epoch_s": epoch_s, "spans": []}
                )
                lane["epoch_s"] = epoch_s
                lane["spans"].extend(spans)

    def sync_obs(self, timeout_s: float | None = None) -> int:
        """Pull a fresh observability payload from every live worker.

        Heartbeats already stream payloads continuously; this forces a
        synchronous round so ``/metrics`` scrapes and trace exports see
        up-to-the-call worker state.  Returns the number of workers that
        answered; dead or booting workers are skipped (their last
        heartbeat payload is already merged).
        """
        timeout = (
            timeout_s if timeout_s is not None else self.config.ack_timeout_s
        )
        with self._lock:
            handles = list(self._handles.values())
        answered = 0
        for handle in handles:
            if not (handle.alive and handle.ready_event.is_set()):
                continue
            token = next(self._rid)
            if handle.await_ack(("obs", token), ("obs-pull", token), timeout):
                answered += 1
        return answered

    def merged_trace(self, extra: dict | None = None) -> dict:
        """One Chrome trace with a ``pid`` lane per fleet process.

        Lane 1 is the front end's own tracer (when tracing is enabled);
        worker lanes are whatever spans their payloads have shipped so
        far — call :meth:`sync_obs` first for an up-to-date export.
        """
        lanes = []
        tracer = get_tracer()
        if tracer is not None:
            front = tracer.to_dict()
            front["pid"] = 1
            lanes.append(front)
        with self._obs_lock:
            for pid in sorted(self._span_lanes):
                lane = self._span_lanes[pid]
                lanes.append(
                    {
                        "pid": pid,
                        "epoch_s": lane["epoch_s"],
                        "spans": list(lane["spans"]),
                    }
                )
        return merge_chrome_trace(lanes, extra=extra)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def view(self) -> dict:
        """JSON-safe fleet snapshot for ``/healthz``."""
        snapshot = self.supervisor.view()
        with self._lock:
            snapshot["started"] = self._started
            snapshot["closed"] = self._closed
            snapshot["models"] = {
                model_id: {
                    "assigned": list(record["assigned"]),
                    "fingerprint": record["bundle"].fingerprint,
                }
                for model_id, record in sorted(self._models.items())
            }
        return snapshot


class FleetApp(ServeApp):
    """A :class:`ServeApp` whose predict path fans out to a worker fleet.

    The front end keeps the full single-process app — registry with real
    forest objects, surrogate cache, admission control — so explain/GAM
    endpoints work unchanged and predict degrades to in-process serving
    the moment the fleet is below quorum or a model loses every replica.
    Responses are bitwise identical either way: workers evaluate the
    same engine buffers (literally the same physical memory).
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        fleet_config: FleetConfig | None = None,
    ):
        super().__init__(config)
        self.fleet = Fleet(fleet_config, serve_config=self.config)

    def start_fleet(self, supervise_interval_s: float | None = None) -> None:
        """Spawn the worker fleet (see :meth:`Fleet.start`)."""
        self.fleet.start(supervise_interval_s=supervise_interval_s)

    def add_model(self, model_id: str, source, replicas: int | None = None):
        """Register a model locally and assign it across the fleet."""
        entry = super().add_model(model_id, source)
        self.fleet.add_model(entry, replicas=replicas)
        return entry

    def remove_model(self, model_id: str):
        """Unregister a model locally and fleet-wide."""
        entry = super().remove_model(model_id)
        self.fleet.remove_model(model_id)
        return entry

    def _predict(self, body, deadline: Deadline) -> Response:
        if self.fleet.active():
            payload = self._parse_json(body)
            entry = self._entry_for(payload)
            try:
                response = self.fleet.dispatch(
                    entry.model_id, "POST", "/predict", body, deadline
                )
                if self.drift is not None and response.status == 200:
                    # Fleet predicts compute on a worker; feed the drift
                    # reservoir from the returned scores so the fidelity
                    # SLO sees the same traffic either way.
                    self.drift.observe(
                        entry.model_id,
                        self._rows_for(payload, entry).tolist(),
                        response.json().get("predictions", []),
                    )
                return response
            except (WorkerCrashError, FleetDegradedError, ModelNotFoundError):
                # Zero-lost guarantee: the front end holds the same
                # engines, so a request that outlived every replica is
                # served here instead of surfacing a 5xx.
                metric_inc("fleet.local_fallback")
        else:
            metric_inc("fleet.local_fallback")
        return super()._predict(body, deadline)

    def _metrics_text(self) -> str:
        """Local exposition plus the fleet-aggregated series.

        Pulls a fresh payload from every live worker first, so a scrape
        observes counters at least as new as any response it has seen.
        """
        self.fleet.sync_obs()
        return super()._metrics_text() + fleet_to_prometheus(
            self.fleet.aggregator
        )

    def _healthz(self) -> Response:
        base = super()._healthz()
        payload = json.loads(base.body.decode("utf-8"))
        payload["fleet"] = self.fleet.view()
        return _json_response(200, payload)

    def close(self, drain: bool = True) -> None:
        """Close the fleet, then drain the local app."""
        self.fleet.close(drain=drain)
        super().close(drain=drain)
