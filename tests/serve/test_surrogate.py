"""SurrogateCache: singleflight, LRU eviction, failure propagation."""

from __future__ import annotations

import threading

import pytest

from repro.core.errors import ServeError, StageTimeoutError
from repro.obs.metrics import enable_metrics, get_metrics
from repro.serve import SurrogateCache


class _CountingFit:
    """A fit_fn recording every invocation; optionally blocking."""

    def __init__(self, block: bool = False):
        self.calls: list[object] = []
        self.block = block
        self.started = threading.Event()
        self.release = threading.Event()
        self.lock = threading.Lock()

    def __call__(self, model):
        with self.lock:
            self.calls.append(model)
        if self.block:
            self.started.set()
            assert self.release.wait(10.0), "test forgot to release the fit"
        return ("fitted", model)


def test_hit_miss_and_counters():
    enable_metrics()
    fit = _CountingFit()
    cache = SurrogateCache(fit, capacity=4)
    first = cache.explanation_for("model-a", fingerprint=101)
    again = cache.explanation_for("model-a", fingerprint=101)
    assert first is again
    assert len(fit.calls) == 1
    metrics = get_metrics()
    assert metrics.counter("surrogate.fits") == 1
    assert metrics.counter("surrogate.misses") == 1
    assert metrics.counter("surrogate.hits") == 1


def test_singleflight_one_fit_under_concurrency():
    enable_metrics()
    fit = _CountingFit(block=True)
    cache = SurrogateCache(fit, capacity=4)
    results: list[object] = []
    leader = threading.Thread(
        target=lambda: results.append(
            cache.explanation_for("model-a", fingerprint=7)
        ),
        daemon=True,
    )
    leader.start()
    assert fit.started.wait(10.0)  # the leader is inside the fit
    waiters = [
        threading.Thread(
            target=lambda: results.append(
                cache.explanation_for("model-a", fingerprint=7, timeout_s=10.0)
            ),
            daemon=True,
        )
        for _ in range(6)
    ]
    for thread in waiters:
        thread.start()
    fit.release.set()
    leader.join(10.0)
    for thread in waiters:
        thread.join(10.0)
    assert len(results) == 7
    assert all(r is results[0] for r in results), "waiters got a different Γ"
    assert len(fit.calls) == 1, "singleflight ran more than one fit"
    assert get_metrics().counter("surrogate.fits") == 1


def test_lru_eviction_at_capacity():
    enable_metrics()
    fit = _CountingFit()
    cache = SurrogateCache(fit, capacity=2)
    cache.explanation_for("a", fingerprint=1)
    cache.explanation_for("b", fingerprint=2)
    cache.explanation_for("a", fingerprint=1)  # touch: 2 is now the LRU
    cache.explanation_for("c", fingerprint=3)  # evicts 2
    assert cache.cached(1) and cache.cached(3)
    assert not cache.cached(2)
    assert get_metrics().counter("surrogate.evictions") == 1
    # Re-requesting the evicted fingerprint refits.
    cache.explanation_for("b", fingerprint=2)
    assert len(fit.calls) == 4


def test_failed_fit_not_cached_and_propagates_to_waiters():
    class _FailingFit(_CountingFit):
        def __call__(self, model):
            super().__call__(model)
            raise ServeError("synthetic fit failure")

    fit = _FailingFit(block=True)
    cache = SurrogateCache(fit, capacity=4)
    outcomes: list[str] = []

    def leader_call():
        try:
            cache.explanation_for("m", fingerprint=9)
        except ServeError:
            outcomes.append("leader-error")

    def waiter_call():
        try:
            cache.explanation_for("m", fingerprint=9, timeout_s=10.0)
        except ServeError:
            outcomes.append("waiter-error")

    leader = threading.Thread(target=leader_call, daemon=True)
    leader.start()
    assert fit.started.wait(10.0)
    waiter = threading.Thread(target=waiter_call, daemon=True)
    waiter.start()
    fit.release.set()
    leader.join(10.0)
    waiter.join(10.0)
    assert sorted(outcomes) == ["leader-error", "waiter-error"]
    assert not cache.cached(9), "a failed fit must not be cached"
    # The next request starts a fresh flight (and fails again, honestly).
    fit.block = False
    with pytest.raises(ServeError):
        cache.explanation_for("m", fingerprint=9)
    assert len(fit.calls) == 2


def test_waiter_timeout_leaves_the_leader_fit_to_finish():
    fit = _CountingFit(block=True)
    cache = SurrogateCache(fit, capacity=4)
    results: list[object] = []
    leader = threading.Thread(
        target=lambda: results.append(
            cache.explanation_for("m", fingerprint=5)
        ),
        daemon=True,
    )
    leader.start()
    assert fit.started.wait(10.0)  # the leader is inside the fit
    with pytest.raises(StageTimeoutError) as err:
        cache.explanation_for("m", fingerprint=5, timeout_s=0.02)
    assert err.value.stage == "serve.explain"
    fit.release.set()
    leader.join(10.0)
    assert results == [("fitted", "m")]
    assert cache.cached(5)
    assert cache.explanation_for("m", fingerprint=5) is results[0]
    assert len(fit.calls) == 1


def test_invalidate_and_clear():
    fit = _CountingFit()
    cache = SurrogateCache(fit, capacity=4)
    cache.explanation_for("a", fingerprint=1)
    cache.explanation_for("b", fingerprint=2)
    assert cache.invalidate(1)
    assert not cache.invalidate(1)
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.fingerprints() == []
