"""The surrogate cache: fit the GAM once per forest, serve it forever.

GEF's economics are exactly a serving problem: fitting the GAM surrogate
Γ is expensive (sampling D*, GCV, PIRLS — seconds), but once fitted it
answers explanation and GAM-predict queries in microseconds, the same
fit-once/reuse asymmetry TreeSHAP exploits for tree ensembles.  This
module is the cache that realizes it:

* keyed by the forest's **structural fingerprint**, so two model
  ids wrapping the same forest share one Γ;
* **singleflight** — when N requests for an unfitted forest arrive
  concurrently, exactly one thread runs the PR-3 stage runner (the
  ``surrogate.fits`` metric counts this, and the concurrency test
  asserts it is exactly 1); the others wait on the leader's flight, a
  :class:`concurrent.futures.Future`, and receive the same fitted object
  (or a :class:`ServeError` naming the leader's failure);
* **LRU with capacity eviction** — the least-recently-used Γ is dropped
  when the cache exceeds ``capacity`` (``surrogate.evictions``).

A failed fit is *not* cached: every waiter of the flight fails and the
next request starts a fresh flight.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future, TimeoutError as FutureTimeout

from ..core.errors import ServeError, StageTimeoutError
from ..obs.metrics import inc as metric_inc
from ..obs.trace import span as obs_span

__all__ = ["SurrogateCache"]


class SurrogateCache:
    """Fingerprint-keyed LRU of fitted explanations with singleflight fits.

    Parameters
    ----------
    fit_fn:
        ``fit_fn(model) -> GEFExplanation`` — runs the resilient GEF
        pipeline (stage budgets, retries, degradation ladder included).
    capacity:
        Maximum number of cached explanations; the least recently used
        entry is evicted beyond that.
    on_fit:
        Optional ``on_fit(fingerprint, explanation)`` hook invoked after
        each *successful* leader fit, outside the cache lock — the
        ledger's write-through point.  Hook failures propagate to the
        fitting request (the owner decides whether to swallow them).
    """

    def __init__(self, fit_fn, capacity: int = 4, on_fit=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")  # repro: allow(raise-outside-taxonomy) harness misuse, not a request failure
        self._fit_fn = fit_fn
        self._on_fit = on_fit
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[int, object] = OrderedDict()
        self._flights: dict[int, Future] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def fingerprints(self) -> list[int]:
        """Cached fingerprints, least recently used first."""
        with self._lock:
            return list(self._entries)

    def cached(self, fingerprint: int) -> bool:
        """Whether ``fingerprint`` has a fitted explanation (no LRU touch)."""
        with self._lock:
            return fingerprint in self._entries

    def peek(self, fingerprint: int):
        """The cached explanation, or ``None`` — never fits, no LRU touch.

        The drift monitor's accessor: a background fidelity check must
        not promote an entry over live traffic's recency order, and must
        never be the thing that kicks off a multi-second fit.
        """
        with self._lock:
            return self._entries.get(fingerprint)

    # ------------------------------------------------------------------
    # the cache protocol
    # ------------------------------------------------------------------
    def explanation_for(
        self, model, fingerprint: int, timeout_s: float | None = None
    ):
        """The fitted explanation for ``fingerprint``, fitting on miss.

        The caller supplies the ``model`` so the leader can fit; waiters
        never touch it.  ``timeout_s`` bounds how long a waiter blocks on
        another thread's flight (:class:`StageTimeoutError` beyond it).
        """
        with self._lock:
            hit = self._entries.get(fingerprint)
            if hit is not None:
                self._entries.move_to_end(fingerprint)
                metric_inc("surrogate.hits")
                return hit
            metric_inc("surrogate.misses")
            flight = self._flights.get(fingerprint)
            leader = flight is None
            if leader:
                flight = self._flights[fingerprint] = Future()
        if leader:
            return self._fit(model, fingerprint, flight)
        try:
            error = flight.exception(timeout_s)
        except FutureTimeout:
            raise StageTimeoutError(
                f"timed out after {timeout_s:g}s waiting for another "
                f"request's surrogate fit",
                stage="serve.explain",
            ) from None
        if error is not None:
            # A new exception per waiter: the leader's own object is
            # raised in the leader's thread only.
            raise ServeError(
                f"the in-flight surrogate fit this request joined failed: "
                f"{error}"
            ) from error
        return flight.result()

    def _fit(self, model, fingerprint: int, flight: Future):
        metric_inc("surrogate.fits")
        try:
            with obs_span("serve.surrogate_fit", fingerprint=fingerprint):
                explanation = self._fit_fn(model)
        except BaseException as exc:
            with self._lock:
                self._flights.pop(fingerprint, None)
            flight.set_exception(exc)
            raise
        # Cached before the flight resolves: a woken waiter's next
        # request is a hit.
        with self._lock:
            self._flights.pop(fingerprint, None)
            self._insert_locked(fingerprint, explanation)
        flight.set_result(explanation)
        if self._on_fit is not None:
            self._on_fit(fingerprint, explanation)
        return explanation

    def _insert_locked(self, fingerprint: int, explanation) -> None:
        """Insert as most recently used; evict beyond ``capacity``."""
        self._entries[fingerprint] = explanation
        self._entries.move_to_end(fingerprint)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            metric_inc("surrogate.evictions")

    def seed(self, fingerprint: int, explanation) -> bool:
        """Pre-populate the cache without fitting (ledger rehydration).

        Inserts ``explanation`` as if it had just been fitted — subject
        to capacity eviction, counted in ``surrogate.rehydrated`` — and
        returns whether it was inserted.  A fingerprint already cached
        (or mid-flight) is left alone: live state wins over history.
        """
        with self._lock:
            if fingerprint in self._entries or fingerprint in self._flights:
                return False
            self._insert_locked(fingerprint, explanation)
        metric_inc("surrogate.rehydrated")
        return True

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def invalidate(self, fingerprint: int) -> bool:
        """Drop one cached explanation; ``True`` if it was present."""
        with self._lock:
            return self._entries.pop(fingerprint, None) is not None

    def clear(self) -> None:
        """Drop every cached explanation (in-progress flights finish)."""
        with self._lock:
            self._entries.clear()
