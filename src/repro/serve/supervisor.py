"""Worker supervision: heartbeats, crash detection, backoff restarts.

The supervisor owns the per-worker state machine::

    starting ──ready──► up ──crash/hang──► restarting ──backoff──► starting
                        │                      │
                        │                      └─(restarts > max)─► failed
                        └──────stop──────► stopped

and the fleet-level quorum state (``ok`` / ``degraded``).  Everything is
driven by explicit :meth:`Supervisor.tick` calls — the CLI runs them on
an interval thread, tests call ``tick()`` directly after advancing the
pipeline clock, so every detection and every restart decision is
reproducible without a single real sleep.

Detection is *miss-count* based, not wall-staleness based: each tick
sends one ping and checks whether the previous tick's ping was answered.
``miss_threshold`` consecutive unanswered pings mark a worker hung (the
supervisor SIGKILLs it so the crash path takes over — crash-only
recovery, one code path for every failure mode).  Staleness-by-clock
would misfire under the synthetic clock used by the chaos suite
(advancing it to "expire" one worker would expire the healthy ones too);
miss counting is immune by construction.

Restart scheduling uses the pipeline clock: after the *n*-th crash a
worker restarts at ``now + base * 2**(n-1)`` (capped), and more than
``max_restarts`` crashes open the circuit breaker — the slot goes
``failed`` and stays down (a restart storm must not take out the front
end).  Every transition is recorded in ``repro.obs`` metrics and in a
bounded transition log surfaced through ``/healthz``.
"""

from __future__ import annotations

import threading
from collections import deque

from ..obs.metrics import inc as metric_inc, set_gauge
from ..obs.trace import monotonic

__all__ = [
    "STATE_FAILED",
    "STATE_RESTARTING",
    "STATE_STARTING",
    "STATE_STOPPED",
    "STATE_UP",
    "Supervisor",
    "WorkerRecord",
]

STATE_STARTING = "starting"
STATE_UP = "up"
STATE_RESTARTING = "restarting"
STATE_FAILED = "failed"
STATE_STOPPED = "stopped"

#: Transition-log depth kept for ``/healthz``.
_TRANSITION_LOG = 50
#: Ceiling of the exponential restart backoff, in seconds.
_BACKOFF_CAP_S = 30.0


class WorkerRecord:
    """Supervisor-side view of one worker slot (mutated under the lock)."""

    __slots__ = (
        "name",
        "state",
        "pid",
        "restarts",
        "misses",
        "ping_seq",
        "pong_seq",
        "last_pong_s",
        "restart_at_s",
        "up_since_s",
    )

    def __init__(self, name: str):
        self.name = name
        self.state = STATE_STARTING
        self.pid: int | None = None
        self.restarts = 0
        self.misses = 0
        self.ping_seq = 0
        self.pong_seq = 0
        self.last_pong_s: float | None = None
        self.restart_at_s: float | None = None
        self.up_since_s: float | None = None

    def view(self, now: float) -> dict:
        """JSON-safe snapshot for ``/healthz``."""
        return {
            "state": self.state,
            "pid": self.pid,
            "restarts": self.restarts,
            "missed_heartbeats": self.misses,
            "last_pong_s": self.last_pong_s,
            "uptime_s": (
                now - self.up_since_s
                if self.state == STATE_UP and self.up_since_s is not None
                else None
            ),
        }


class Supervisor:
    """Drives worker supervision for one :class:`~repro.serve.fleet.Fleet`.

    ``fleet`` provides the process-level operations (exit codes, kill,
    respawn, ping); the supervisor owns all policy.  Thread-safe: the
    reader threads report readiness/pongs concurrently with ticks.
    """

    def __init__(
        self,
        fleet,
        *,
        miss_threshold: int = 3,
        backoff_base_s: float = 0.5,
        max_restarts: int = 5,
        quorum: int = 1,
    ):
        self._fleet = fleet
        self._miss_threshold = max(1, int(miss_threshold))
        self._backoff_base_s = float(backoff_base_s)
        self._max_restarts = int(max_restarts)
        self._quorum = max(1, int(quorum))
        self._lock = threading.Lock()
        self._records: dict[str, WorkerRecord] = {}
        self._transitions: deque = deque(maxlen=_TRANSITION_LOG)
        self._fleet_state = "starting"
        self._seq = 0

    # ------------------------------------------------------------------
    # registration and reader-thread callbacks
    # ------------------------------------------------------------------
    def register(self, name: str) -> None:
        """Create (or reset) the record of worker slot ``name``."""
        with self._lock:
            record = self._records.get(name)
            if record is None:
                self._records[name] = WorkerRecord(name)
            else:
                record.state = STATE_STARTING
                record.misses = 0

    def on_ready(self, name: str, pid: int) -> None:
        """Reader callback: worker ``name`` finished booting."""
        with self._lock:
            record = self._records.get(name)
            if record is None:
                return
            old = record.state
            record.state = STATE_UP
            record.pid = int(pid)
            record.misses = 0
            record.ping_seq = record.pong_seq = self._seq
            record.restart_at_s = None
            record.up_since_s = monotonic()
            self._note_locked(name, old, STATE_UP, "ready")
        self._evaluate_quorum()

    def on_pong(self, name: str, seq) -> None:
        """Reader callback: heartbeat answer (possibly corrupt) arrived."""
        with self._lock:
            record = self._records.get(name)
            if record is None:
                return
            if not isinstance(seq, int) or seq <= 0 or seq > record.ping_seq:
                metric_inc("fleet.heartbeats_corrupt")
                return
            if seq > record.pong_seq:
                record.pong_seq = seq
                record.last_pong_s = monotonic()

    def on_stopped(self, name: str) -> None:
        """Reader callback: worker announced a clean exit."""
        with self._lock:
            record = self._records.get(name)
            if record is None or record.state == STATE_STOPPED:
                return
            self._note_locked(name, record.state, STATE_STOPPED, "stopped")
            record.state = STATE_STOPPED
            record.up_since_s = None

    # ------------------------------------------------------------------
    # the supervision tick
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One supervision round: detect, schedule, restart, ping.

        Deterministic: crash detection uses process exit codes, hang
        detection counts unanswered pings, restart due-times compare
        against the pipeline clock.  Tests drive this directly.
        """
        now = monotonic()
        crashed: list[tuple[str, str]] = []
        respawn: list[str] = []
        with self._lock:
            self._seq += 1
            seq = self._seq
            for record in self._records.values():
                if record.state == STATE_UP:
                    code = self._fleet.worker_exitcode(record.name)
                    if code is not None:
                        crashed.append(
                            (record.name, f"exited with code {code}")
                        )
                        continue
                    if record.pong_seq < record.ping_seq:
                        record.misses += 1
                        metric_inc("fleet.heartbeat_misses")
                        if record.misses >= self._miss_threshold:
                            crashed.append((
                                record.name,
                                f"hung: {record.misses} consecutive "
                                f"missed heartbeats",
                            ))
                            continue
                    else:
                        record.misses = 0
                elif record.state == STATE_STARTING:
                    code = self._fleet.worker_exitcode(record.name)
                    if code is not None:
                        crashed.append(
                            (record.name, f"died during boot (code {code})")
                        )
                elif record.state == STATE_RESTARTING:
                    if (
                        record.restart_at_s is not None
                        and now >= record.restart_at_s
                    ):
                        respawn.append(record.name)
        for name, reason in crashed:
            self._on_crash(name, reason)
        for name in respawn:
            with self._lock:
                record = self._records[name]
                self._note_locked(
                    name, record.state, STATE_STARTING, "backoff elapsed"
                )
                record.state = STATE_STARTING
                record.restart_at_s = None
            metric_inc("fleet.worker_restarts")
            self._fleet.respawn(name)
        with self._lock:
            up = [
                r.name for r in self._records.values() if r.state == STATE_UP
            ]
            for name in up:
                self._records[name].ping_seq = seq
        for name in up:
            self._fleet.send_ping(name, seq)
        self._evaluate_quorum()

    def _on_crash(self, name: str, reason: str) -> None:
        metric_inc("fleet.worker_crashes")
        if "hung" in reason:
            self._fleet.kill_worker_process(name)
        self._fleet.reap(name)
        with self._lock:
            record = self._records.get(name)
            if record is None:
                return
            old = record.state
            record.restarts += 1
            record.pid = None
            record.up_since_s = None
            if record.restarts > self._max_restarts:
                record.state = STATE_FAILED
                self._note_locked(
                    name,
                    old,
                    STATE_FAILED,
                    f"{reason}; circuit breaker open after "
                    f"{record.restarts - 1} restarts",
                )
            else:
                backoff = min(
                    _BACKOFF_CAP_S,
                    self._backoff_base_s * (2 ** (record.restarts - 1)),
                )
                record.state = STATE_RESTARTING
                record.restart_at_s = monotonic() + backoff
                self._note_locked(
                    name,
                    old,
                    STATE_RESTARTING,
                    f"{reason}; restart in {backoff:g}s",
                )
        self._evaluate_quorum()

    # ------------------------------------------------------------------
    # quorum and reporting
    # ------------------------------------------------------------------
    def alive(self) -> int:
        """Number of workers currently ``up``."""
        with self._lock:
            return sum(
                1 for r in self._records.values() if r.state == STATE_UP
            )

    def _evaluate_quorum(self) -> None:
        with self._lock:
            up = sum(
                1 for r in self._records.values() if r.state == STATE_UP
            )
            old = self._fleet_state
            new = "ok" if up >= self._quorum else "degraded"
            if new != old:
                self._fleet_state = new
                self._transitions.append({
                    "at_s": monotonic(),
                    "worker": None,
                    "from": old,
                    "to": new,
                    "reason": (
                        f"{up}/{self._quorum} workers up"
                        if new == "degraded"
                        else "quorum restored"
                    ),
                })
                if new == "degraded" and old == "ok":
                    metric_inc("fleet.degraded_transitions")
                elif new == "ok" and old == "degraded":
                    metric_inc("fleet.recovered_transitions")
        set_gauge("fleet.workers_alive", float(up))

    def _note_locked(self, name, old, new, reason) -> None:
        # Caller holds self._lock.
        self._transitions.append({
            "at_s": monotonic(),
            "worker": name,
            "from": old,
            "to": new,
            "reason": reason,
        })

    def state(self) -> str:
        """The fleet-level state: ``starting``, ``ok`` or ``degraded``."""
        with self._lock:
            return self._fleet_state

    def worker_state(self, name: str) -> str | None:
        """The state-machine state of worker ``name`` (None if unknown)."""
        with self._lock:
            record = self._records.get(name)
            return record.state if record else None

    def transitions(self) -> list[dict]:
        """A snapshot of the bounded transition log (oldest first)."""
        with self._lock:
            return [dict(t) for t in self._transitions]

    def view(self) -> dict:
        """JSON-safe supervision snapshot for ``/healthz``.

        Each worker entry carries its live uptime, restart count and the
        slice of the bounded transition log that concerns it, so an
        operator can read one slot's crash history without correlating
        the fleet-wide log by hand.
        """
        now = monotonic()
        with self._lock:
            workers = {}
            for name, record in sorted(self._records.items()):
                entry = record.view(now)
                entry["transitions"] = [
                    dict(t) for t in self._transitions
                    if t["worker"] == name
                ]
                workers[name] = entry
            return {
                "state": self._fleet_state,
                "quorum": self._quorum,
                "workers": workers,
                "transitions": [dict(t) for t in self._transitions],
            }

    # ------------------------------------------------------------------
    # interval driver (CLI only; tests call tick() directly)
    # ------------------------------------------------------------------
    def run(self, interval_s: float, stop_event: threading.Event) -> None:
        """Tick every ``interval_s`` wall seconds until ``stop_event``."""
        while not stop_event.is_set():
            self.tick()
            stop_event.wait(interval_s)
