"""Micro-batching executor: coalesce concurrent predicts into one descent.

The bitvector engine's cost per call is dominated by fixed overhead
(digitizing, buffer setup), so sixteen concurrent one-request calls are
far slower than one sixteen-request call.  :class:`MicroBatcher` exploits
that: client threads :meth:`submit` row blocks into a bounded queue and
block on a per-request event; a single worker thread drains the queue and
issues **one** engine call per flush, then scatters the result
slices back.  Rows never interact inside the engine, so the
batched output is bitwise identical to per-request evaluation — the
concurrency suite asserts exact equality.

A flush triggers on either condition:

* **size** — ``max_batch`` requests are waiting, or
* **deadline** — the oldest waiting request has been queued for
  ``max_delay_s`` seconds *on the pipeline clock*
  (:func:`repro.obs.trace.monotonic`).

Because the deadline is evaluated against the pipeline clock, tests
drive it deterministically: :func:`repro.obs.trace.advance` plus
:meth:`kick` makes the worker observe an expired window without anybody
sleeping.  Backpressure is synchronous: when ``max_pending`` accepted
requests are outstanding, ``submit`` raises
:class:`~repro.core.errors.ShedError` immediately (HTTP 429 upstream).

All shared state (queue, counters, flush window) is guarded by one
condition variable; per-request completion uses an event owned by the
submitting thread.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from ..core.errors import ServeError, ShedError, StageTimeoutError
from ..obs.metrics import inc as metric_inc, observe as metric_observe
from ..obs.trace import monotonic, span as obs_span

__all__ = ["MicroBatcher"]


class _Pending:
    """One submitted request: its rows and its completion signal."""

    __slots__ = ("rows", "event", "result", "error")

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self.event = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None


class MicroBatcher:
    """Coalesces concurrent predict requests into single batched calls.

    Parameters
    ----------
    predict_fn:
        Callable mapping a 2-D float array to a 1-D score array (one
        engine call); evaluated on the worker thread.
    max_batch:
        Flush as soon as this many requests are waiting (``1`` disables
        coalescing — the baseline configuration in the serve benchmark).
    max_delay_s:
        Flush when the oldest waiting request is this old (pipeline
        clock), bounding added latency under light load.
    max_pending:
        Admission bound: accepted-but-unfinished requests beyond this
        shed synchronously.
    name:
        Worker thread name suffix (diagnostics).
    """

    def __init__(
        self,
        predict_fn,
        *,
        max_batch: int = 32,
        max_delay_s: float = 0.002,
        max_pending: int = 256,
        name: str = "model",
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")  # repro: allow(raise-outside-taxonomy) harness misuse, not a request failure
        if max_delay_s < 0:
            raise ValueError("max_delay_s must be >= 0")  # repro: allow(raise-outside-taxonomy) harness misuse, not a request failure
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")  # repro: allow(raise-outside-taxonomy) harness misuse, not a request failure
        self._predict_fn = predict_fn
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.max_pending = int(max_pending)
        self.name = str(name)
        self._cv = threading.Condition()
        self._queue: deque[_Pending] = deque()
        self._outstanding = 0
        self._open_since: float | None = None
        self._running = False
        self._draining = False
        self._thread: threading.Thread | None = None
        self.start()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        with self._cv:
            if self._running:
                return
            self._running = True
            self._draining = False
            self._thread = threading.Thread(
                target=self._run,
                name=f"repro-serve-batcher-{self.name}",
                daemon=True,
            )
            self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the worker.

        With ``drain=True`` (graceful shutdown) every queued request is
        still flushed before the worker exits; with ``drain=False``
        queued requests fail with :class:`ServeError`.
        """
        with self._cv:
            thread = self._thread
            if thread is None:
                return
            self._running = False
            self._draining = bool(drain)
            self._cv.notify_all()
        thread.join()
        with self._cv:
            self._thread = None

    def kick(self) -> None:
        """Wake the worker to re-evaluate its flush conditions.

        Tests pair this with :func:`repro.obs.trace.advance` to make a
        deadline expire deterministically without sleeping.
        """
        with self._cv:
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Accepted requests not yet completed (queued plus in flush)."""
        with self._cv:
            return self._outstanding

    def wait_for_depth(
        self, depth: int, timeout_s: float | None = None
    ) -> bool:
        """Block until at least ``depth`` requests are outstanding.

        A deterministic synchronization point for the concurrency tests
        (no polling, no sleeping); ``False`` on timeout.
        """
        budget = None if timeout_s is None else float(timeout_s)
        start = monotonic()
        with self._cv:
            while self._outstanding < depth:
                remaining = None
                if budget is not None:
                    remaining = budget - (monotonic() - start)
                    if remaining <= 0:
                        return False
                self._cv.wait(remaining)
            return True

    def submit(
        self, X: np.ndarray, timeout_s: float | None = None
    ) -> np.ndarray:
        """Enqueue ``X`` (2-D rows) and block until its scores are ready.

        Raises :class:`ShedError` synchronously when the pending bound is
        hit, :class:`StageTimeoutError` when the result does not arrive
        within ``timeout_s``, and :class:`ServeError` when the batcher is
        stopped.
        """
        X = np.ascontiguousarray(np.atleast_2d(X), dtype=np.float64)
        request = _Pending(X)
        with self._cv:
            if not self._running:
                raise ServeError("micro-batcher is not running")
            if self._outstanding >= self.max_pending:
                metric_inc("serve.shed")
                raise ShedError(
                    f"predict queue at its depth limit "
                    f"({self.max_pending} outstanding requests)"
                )
            self._outstanding += 1
            self._queue.append(request)
            if self._open_since is None:
                self._open_since = monotonic()
            self._cv.notify_all()
        if not request.event.wait(timeout_s):
            raise StageTimeoutError(
                f"predict request timed out after {timeout_s:g}s "
                f"(batch still in flight)",
                stage="serve.predict",
            )
        if request.error is not None:
            raise request.error
        return request.result

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    def _flush_due_locked(self) -> bool:
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch:
            return True
        if not self._running and self._draining:
            return True
        return (
            self._open_since is not None
            and monotonic() - self._open_since >= self.max_delay_s
        )

    def _take_batch_locked(self) -> list[_Pending]:
        batch = [
            self._queue.popleft()
            for _ in range(min(self.max_batch, len(self._queue)))
        ]
        if not self._queue:
            self._open_since = None
        # Leftover requests keep the old window start, so they flush on
        # the very next loop iteration instead of waiting a fresh delay.
        return batch

    def _complete(self, batch: list[_Pending]) -> None:
        with self._cv:
            self._outstanding -= len(batch)
            self._cv.notify_all()
        for request in batch:
            request.event.set()

    def _fail(self, batch: list[_Pending], error: BaseException) -> None:
        for request in batch:
            request.error = error
        self._complete(batch)

    def _flush(self, batch: list[_Pending]) -> None:
        sizes = [request.rows.shape[0] for request in batch]
        n_rows = int(sum(sizes))
        rows = (
            batch[0].rows
            if len(batch) == 1
            else np.concatenate([request.rows for request in batch], axis=0)
        )
        try:
            with obs_span(
                "serve.batch", requests=len(batch), rows=n_rows
            ):
                scores = np.asarray(self._predict_fn(rows))
        except Exception as exc:  # repro: allow(broad-except) worker must outlive any one batch; error is delivered to every submitter
            self._fail(batch, exc)
            return
        metric_observe("serve.batch_size", len(batch))
        metric_observe("serve.batch_rows", n_rows)
        offset = 0
        for request, size in zip(batch, sizes):
            request.result = scores[offset : offset + size]
            offset += size
        self._complete(batch)

    def _wait_timeout_locked(self) -> float | None:
        if not self._queue or self._open_since is None:
            return None
        return max(self.max_delay_s - (monotonic() - self._open_since), 0.0)

    def _run(self) -> None:
        while True:
            leftovers: list[_Pending] | None = None
            batch: list[_Pending] | None = None
            with self._cv:
                while True:
                    if not self._running:
                        if not self._draining:
                            # stop(drain=False): fail what is left.
                            leftovers = list(self._queue)
                            self._queue.clear()
                            break
                        if not self._queue:
                            return
                    if self._flush_due_locked():
                        batch = self._take_batch_locked()
                        break
                    self._cv.wait(self._wait_timeout_locked())
            if leftovers is not None:
                self._fail(leftovers, ServeError("micro-batcher stopped"))
                return
            self._flush(batch)
