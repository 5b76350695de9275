"""MicroBatcher: coalescing, deadlines, shedding, drain — no sleeping.

Deadline behavior is driven by :func:`repro.obs.trace.advance` (the
pipeline clock) plus :meth:`MicroBatcher.kick`; concurrency tests use
:meth:`MicroBatcher.wait_for_depth` and events as synchronization
points, so every assertion is deterministic.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.errors import ServeError, ShedError
from repro.obs.metrics import enable_metrics
from repro.obs.trace import advance
from repro.serve import MicroBatcher


def _echo_predict(calls):
    """A predict_fn summing each row, recording every batch it sees."""

    def predict(X):
        calls.append(np.array(X, copy=True))
        return X.sum(axis=1)

    return predict


def _blocked_predict(started, release, calls):
    """A predict_fn that parks inside the engine call until released."""

    def predict(X):
        calls.append(np.array(X, copy=True))
        started.set()
        assert release.wait(10.0), "test forgot to release the batch"
        return X.sum(axis=1)

    return predict


def test_size_trigger_coalesces_concurrent_submits():
    calls: list[np.ndarray] = []
    started, release = threading.Event(), threading.Event()
    batcher = MicroBatcher(
        _blocked_predict(started, release, calls),
        max_batch=4,
        max_delay_s=60.0,
        name="size",
    )
    rows = np.arange(8.0).reshape(4, 2)
    results: dict[int, np.ndarray] = {}
    # One submit occupies the worker inside the (blocked) predict call;
    # it is below max_batch, so its flush is deadline-driven — expire the
    # window on the pipeline clock instead of sleeping through it.
    first = threading.Thread(
        target=lambda: results.setdefault(0, batcher.submit(rows[:1])),
        daemon=True,
    )
    first.start()
    assert batcher.wait_for_depth(1, timeout_s=10.0)
    advance(61.0)
    batcher.kick()
    assert started.wait(10.0)
    # ...so these four queue up behind it and must flush as ONE batch.
    threads = [
        threading.Thread(
            target=lambda i=i: results.setdefault(
                i, batcher.submit(rows[i - 1 : i])
            ),
            daemon=True,
        )
        for i in range(1, 5)
    ]
    for thread in threads:
        thread.start()
    assert batcher.wait_for_depth(5, timeout_s=10.0)
    started.clear()
    release.set()  # finish batch #1; worker then takes the size-due batch
    assert started.wait(10.0)
    release.set()
    first.join(10.0)
    for thread in threads:
        thread.join(10.0)
    assert sorted(results) == [0, 1, 2, 3, 4]
    assert [len(c) for c in calls] == [1, 4]
    for i in range(1, 5):
        np.testing.assert_array_equal(results[i], rows[i - 1 : i].sum(axis=1))
    batcher.stop()


def test_deadline_trigger_via_pipeline_clock():
    calls: list[np.ndarray] = []
    batcher = MicroBatcher(
        _echo_predict(calls), max_batch=64, max_delay_s=60.0, name="deadline"
    )
    done = threading.Event()
    out: list[np.ndarray] = []

    def client():
        out.append(batcher.submit(np.array([[1.0, 2.0]])))
        done.set()

    threading.Thread(target=client, daemon=True).start()
    assert batcher.wait_for_depth(1, timeout_s=10.0)
    # A single queued request, far below max_batch: only the deadline can
    # flush it.  Expire the 60 s window synthetically — nobody sleeps.
    advance(61.0)
    batcher.kick()
    assert done.wait(10.0)
    assert [len(c) for c in calls] == [1]
    np.testing.assert_array_equal(out[0], np.array([3.0]))
    batcher.stop()


def test_shed_count_is_deterministic_at_fixed_depth():
    enable_metrics()
    started, release = threading.Event(), threading.Event()
    calls: list[np.ndarray] = []
    batcher = MicroBatcher(
        _blocked_predict(started, release, calls),
        max_batch=1,
        max_delay_s=1e9,
        max_pending=3,
        name="shed",
    )
    row = np.array([[1.0, 1.0]])
    oks: list[np.ndarray] = []
    threads = [
        threading.Thread(
            target=lambda: oks.append(batcher.submit(row)), daemon=True
        )
        for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    assert batcher.wait_for_depth(3, timeout_s=10.0)
    # Exactly max_pending accepted and outstanding: each further submit
    # sheds synchronously, so the count is exact, not racy.
    for _ in range(5):
        with pytest.raises(ShedError):
            batcher.submit(row)
    from repro.obs.metrics import get_metrics

    assert get_metrics().counter("serve.shed") == 5
    release.set()
    for thread in threads:
        thread.join(10.0)
    assert len(oks) == 3
    batcher.stop()


def test_stop_drain_flushes_everything():
    calls: list[np.ndarray] = []
    started, release = threading.Event(), threading.Event()
    batcher = MicroBatcher(
        _blocked_predict(started, release, calls),
        max_batch=1,
        max_delay_s=1e9,
        name="drain",
    )
    results: list[np.ndarray] = []
    threads = [
        threading.Thread(
            target=lambda i=i: results.append(
                batcher.submit(np.array([[float(i), 0.0]]))
            ),
            daemon=True,
        )
        for i in range(4)
    ]
    for thread in threads:
        thread.start()
    assert batcher.wait_for_depth(4, timeout_s=10.0)
    release.set()
    batcher.stop(drain=True)  # must flush all 4 before returning
    for thread in threads:
        thread.join(10.0)
    assert len(results) == 4
    assert sum(len(c) for c in calls) == 4


def test_stop_no_drain_fails_queued_requests():
    started, release = threading.Event(), threading.Event()
    calls: list[np.ndarray] = []
    batcher = MicroBatcher(
        _blocked_predict(started, release, calls),
        max_batch=1,
        max_delay_s=1e9,
        name="abort",
    )
    errors: list[BaseException] = []
    oks: list[np.ndarray] = []

    def client(i):
        try:
            oks.append(batcher.submit(np.array([[float(i)]])))
        except ServeError as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(3)
    ]
    for thread in threads:
        thread.start()
    assert started.wait(10.0)  # one request inside predict
    assert batcher.wait_for_depth(3, timeout_s=10.0)
    stopper = threading.Thread(
        target=lambda: batcher.stop(drain=False), daemon=True
    )
    stopper.start()
    release.set()  # let the in-flight batch finish; the rest must fail
    stopper.join(10.0)
    for thread in threads:
        thread.join(10.0)
    assert len(oks) == 1
    assert len(errors) == 2
    assert all(isinstance(exc, ServeError) for exc in errors)
    # New submits against a stopped batcher are refused outright.
    with pytest.raises(ServeError):
        batcher.submit(np.array([[0.0]]))


def test_predict_error_propagates_to_every_submitter():
    def boom(X):
        raise ValueError("synthetic kernel fault")

    batcher = MicroBatcher(boom, max_batch=2, max_delay_s=60.0, name="boom")
    errors: list[BaseException] = []
    barrier = threading.Barrier(2)

    def client():
        barrier.wait()
        try:
            batcher.submit(np.array([[1.0]]))
        except ValueError as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=client, daemon=True) for _ in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert len(errors) == 2
    assert all("synthetic kernel fault" in str(e) for e in errors)
    # The worker survived the failed batch and keeps serving: a lone
    # follow-up request flushes once its deadline is expired synthetically.
    def ok(X):
        return X.sum(axis=1)

    batcher._predict_fn = ok
    out: list[np.ndarray] = []
    follow = threading.Thread(
        target=lambda: out.append(batcher.submit(np.array([[2.0, 3.0]]))),
        daemon=True,
    )
    follow.start()
    assert batcher.wait_for_depth(1, timeout_s=10.0)
    advance(61.0)
    batcher.kick()
    follow.join(10.0)
    np.testing.assert_array_equal(out[0], np.array([5.0]))
    batcher.stop()


def test_batched_scores_bitwise_equal_direct(serve_forest, serve_rows,
                                             loop_predict):
    from repro.forest import bitvector_for

    encoded = bitvector_for(serve_forest)
    batcher = MicroBatcher(
        encoded.predict_raw,
        max_batch=8,
        max_delay_s=1e9,
        name="exact",
    )
    chunks = [serve_rows[i * 8 : i * 8 + 8] for i in range(8)]
    results: dict[int, np.ndarray] = {}
    barrier = threading.Barrier(8)

    def client(i):
        barrier.wait()
        results[i] = batcher.submit(chunks[i])

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    batcher.stop()
    for i, chunk in enumerate(chunks):
        direct = loop_predict(serve_forest, chunk)
        assert np.array_equal(results[i], direct), (
            f"client {i}: batched scores differ from direct evaluation"
        )
