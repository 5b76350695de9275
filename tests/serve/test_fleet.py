"""Fleet routing, parity, lifecycle, and the loadgen/benchmark plumbing.

One module-scoped fleet (2 workers, full replication) is shared by the
read-only tests; spawn cost is paid once.  Tests that mutate fleet state
(model add/remove) restore it before returning the fixture.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading
from concurrent.futures import TimeoutError as FutureTimeout
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.errors import (
    FleetDegradedError,
    ModelNotFoundError,
    StageTimeoutError,
    WorkerCrashError,
)
from repro.obs import enable_metrics, get_metrics
from repro.obs.trace import advance
from repro.serve import FleetApp, FleetConfig, ServeApp, ServeConfig
from repro.serve.fleet import Fleet, HashRing, _WorkerHandle
from repro.serve.shm import live_segments

#: Bound for event waits (worker boot, thread joins) — a ceiling for hung
#: tests, not a pacing sleep.
WAIT_S = 60.0


@pytest.fixture(scope="module")
def fleet_app(serve_forest):
    app = FleetApp(
        ServeConfig(max_batch=16, queue_limit=4096),
        FleetConfig(workers=2, replication=2, quorum=1),
    )
    app.add_model("m", serve_forest)
    app.start_fleet()
    yield app
    app.close(drain=True)


def _predict_body(rows, model="m"):
    return json.dumps({"model": model, "rows": np.asarray(rows).tolist()})


class TestHashRing:
    def test_replicas_distinct_and_bounded(self):
        ring = HashRing([f"w{i}" for i in range(5)], vnodes=16)
        replicas = ring.replicas("model-a", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3
        assert ring.replicas("model-a", 10) == ring.replicas("model-a", 5)

    def test_assignment_is_stable_across_instances(self):
        a = HashRing(["w0", "w1", "w2"], vnodes=32)
        b = HashRing(["w0", "w1", "w2"], vnodes=32)
        for key in (0, 1, "fingerprint", 123456789):
            assert a.replicas(key, 2) == b.replicas(key, 2)

    def test_keys_spread_over_nodes(self):
        ring = HashRing([f"w{i}" for i in range(4)], vnodes=64)
        owners = {ring.replicas(k, 1)[0] for k in range(50)}
        assert len(owners) == 4

    def test_empty_ring(self):
        assert HashRing([], vnodes=4).replicas("x", 2) == []


class TestFleetServing:
    def test_predict_bitwise_identical_to_local(
        self, fleet_app, serve_rows
    ):
        response = fleet_app.handle(
            "POST", "/predict", _predict_body(serve_rows[:8])
        )
        assert response.status == 200
        expected = fleet_app.registry.get("m").predict_raw(serve_rows[:8])
        assert response.json()["predictions"] == expected.tolist()

    def test_dispatch_spreads_over_replicas(self, fleet_app, serve_rows):
        fleet = fleet_app.fleet
        entry = fleet_app.registry.get("m")
        rows = serve_rows[:2]
        for _ in range(4):
            scores = fleet.dispatch("m", entry.fingerprint, rows, 30.0)
            assert scores.tolist() == entry.predict_raw(rows).tolist()
        # Round-robin over both replicas: the rotation counter advanced.
        assert fleet._rr[entry.fingerprint] >= 4

    def test_dispatch_unknown_model(self, fleet_app, serve_rows):
        with pytest.raises(ModelNotFoundError):
            fleet_app.fleet.dispatch("ghost", 0, serve_rows[:1], 5.0)

    def test_dispatch_stale_fingerprint(self, fleet_app, serve_rows):
        fingerprint = fleet_app.registry.get("m").fingerprint
        with pytest.raises(ModelNotFoundError):
            fleet_app.fleet.dispatch(
                "m", fingerprint + 1, serve_rows[:1], 5.0
            )

    def test_healthz_reports_fleet(self, fleet_app):
        payload = fleet_app.handle("GET", "/healthz").json()
        fleet = payload["fleet"]
        assert fleet["state"] == "ok"
        assert set(fleet["workers"]) == {"w0", "w1"}
        assert all(w["state"] == "up" for w in fleet["workers"].values())
        assert fleet["models"]["m"]["assigned"]
        assert fleet["started"] is True and fleet["closed"] is False

    def test_bad_request_still_400_through_fleet(self, fleet_app):
        response = fleet_app.handle(
            "POST", "/predict", json.dumps({"model": "m"})
        )
        assert response.status == 400

    def test_worker_errors_surface_as_statuses(self, fleet_app):
        # Unknown model resolves on the front end (404 from _entry_for).
        response = fleet_app.handle(
            "POST", "/predict", _predict_body([[0.0] * 9], model="ghost")
        )
        assert response.status == 404


class TestFrontBatching:
    def test_concurrent_predicts_share_one_pipe_message(
        self, serve_forest, serve_rows
    ):
        # A batch window far beyond the test's run time: only advance()
        # plus kick() can flush it, so both requests join one batch.
        enable_metrics()
        local = ServeApp()
        app = FleetApp(
            ServeConfig(max_batch=16, batch_delay_s=3600.0),
            FleetConfig(workers=1, quorum=1),
        )
        try:
            local.add_model("m", serve_forest)
            app.add_model("m", serve_forest)
            app.start_fleet()
            bodies = [
                _predict_body(serve_rows[:3]), _predict_body(serve_rows[3:8])
            ]
            responses = [None, None]

            def send(i):
                responses[i] = app.handle("POST", "/predict", bodies[i])

            threads = [
                threading.Thread(target=send, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            _, batcher = app.served("m")
            assert batcher.wait_for_depth(2, timeout_s=WAIT_S)
            advance(3600.0)
            batcher.kick()
            for thread in threads:
                thread.join(WAIT_S)
            assert get_metrics().counter("fleet.dispatched") == 1
            assert get_metrics().counter("fleet.local_fallback") == 0
            for body, response in zip(bodies, responses):
                assert response.status == 200
                expected = local.handle("POST", "/predict", body)
                assert response.body == expected.body
        finally:
            app.close(drain=True)
            local.close(drain=True)

    def test_model_unloaded_on_worker_is_served_locally(
        self, serve_forest, serve_rows
    ):
        enable_metrics()
        app = FleetApp(ServeConfig(), FleetConfig(workers=1, quorum=1))
        try:
            app.add_model("m", serve_forest)
            app.start_fleet()
            # Unload behind the front end's back: the front still routes
            # "m" to w0, which now answers ModelNotFoundError.
            assert app.fleet.handle("w0").ask("unload", "m", timeout_s=WAIT_S)
            rows = serve_rows[:4]
            response = app.handle("POST", "/predict", _predict_body(rows))
            assert response.status == 200
            expected = app.registry.get("m").predict_raw(rows)
            assert response.json()["predictions"] == expected.tolist()
            assert get_metrics().counter("fleet.dispatched") == 1
            assert get_metrics().counter("fleet.local_fallback") == 1
        finally:
            app.close(drain=True)


class TestFleetModels:
    def test_hot_swap_and_remove_unlink_segments(
        self, fleet_app, serve_forest, serve_rows
    ):
        before = set(live_segments())
        fleet_app.add_model("swap", serve_forest)
        mid = set(live_segments())
        assert len(mid) == len(before) + 1
        # Hot swap: same id, new segment, old one unlinked.
        fleet_app.add_model("swap", serve_forest)
        after_swap = set(live_segments())
        assert len(after_swap) == len(mid)
        assert after_swap != mid
        response = fleet_app.handle(
            "POST", "/predict", _predict_body(serve_rows[:4], model="swap")
        )
        assert response.status == 200
        fleet_app.remove_model("swap")
        assert set(live_segments()) == before

    def test_assignment_respects_replication(self, fleet_app, serve_forest):
        fleet_app.add_model("solo", serve_forest, replicas=1)
        try:
            assert len(fleet_app.fleet.assignment("solo")) == 1
            assert len(fleet_app.fleet.assignment("m")) == 2
        finally:
            fleet_app.remove_model("solo")


class TestDegradedServing:
    def test_unstarted_fleet_serves_locally(self, serve_forest, serve_rows):
        # The module-scoped fleet_app may still own segments; compare
        # against a snapshot rather than demanding an empty set.
        before = set(live_segments())
        app = FleetApp(ServeConfig(), FleetConfig(workers=1))
        try:
            app.add_model("m", serve_forest)
            assert not app.fleet.active()
            response = app.handle(
                "POST", "/predict", _predict_body(serve_rows[:4])
            )
            assert response.status == 200
            expected = app.registry.get("m").predict_raw(serve_rows[:4])
            assert response.json()["predictions"] == expected.tolist()
        finally:
            app.close(drain=True)
        assert set(live_segments()) == before

    def test_unencodable_forest_served_locally_without_restarts(
        self, serve_forest, nan_forest, serve_rows, loop_predict
    ):
        # The fleet must not ship a forest with no bitvector encoding to a
        # worker (installing it there would kill the process); the front
        # end serves it through the loop.
        forest = nan_forest
        rows = serve_rows[:8]
        enable_metrics()
        before = set(live_segments())
        app = FleetApp(ServeConfig(), FleetConfig(workers=1, quorum=1))
        try:
            app.add_model("m", serve_forest)
            app.start_fleet()
            app.add_model("nan", forest)
            assert app.fleet.assignment("nan") == []
            response = app.handle(
                "POST", "/predict", _predict_body(rows, model="nan")
            )
            assert response.status == 200
            expected = loop_predict(forest, rows)
            assert response.json()["predictions"] == expected.tolist()
            assert get_metrics().counter("fleet.local_fallback") == 1
            # Hot swap onto the unencodable forest: the old assignment is
            # unloaded and its segment unlinked.
            app.add_model("m", forest)
            assert app.fleet.assignment("m") == []
            assert set(live_segments()) == before
            response = app.handle("POST", "/predict", _predict_body(rows))
            assert response.json()["predictions"] == expected.tolist()
            app.fleet.supervisor.tick()
            fleet = app.handle("GET", "/healthz").json()["fleet"]
            assert fleet["state"] == "ok"
            assert all(
                w["state"] == "up" and w["restarts"] == 0
                for w in fleet["workers"].values()
            )
        finally:
            app.close(drain=True)
        assert set(live_segments()) == before

    def test_dispatch_on_closed_fleet_is_typed(self, serve_forest, serve_rows):
        app = FleetApp(ServeConfig(), FleetConfig(workers=1))
        entry = app.add_model("m", serve_forest)
        app.close(drain=True)
        with pytest.raises(FleetDegradedError):
            app.fleet.dispatch("m", entry.fingerprint, serve_rows[:1], 5.0)


def _bare_handle(name="w9", fleet=None):
    """A worker handle over a bare pipe; the test plays the worker.

    ``fleet`` is only read for replies other than ``res``.
    """
    front, worker = multiprocessing.Pipe()
    handle = _WorkerHandle(name, SimpleNamespace(pid=None), front)
    handle.ready_event.set()
    handle.start_reader(fleet)
    return handle, worker


def _recv(pipe):
    """The next message the front end sent down ``pipe`` (bounded wait)."""
    assert pipe.poll(WAIT_S), "no message from the front end"
    return pipe.recv()


def _bare_fleet(n_workers):
    """A never-started Fleet routing model "m" (fingerprint 7) to bare
    handles, with quorum faked: dispatch's failover loop, no processes."""
    fleet = Fleet(FleetConfig(workers=n_workers, replication=n_workers))
    pipes = {}
    for name in fleet._names:
        handle, pipes[name] = _bare_handle(name)
        fleet._handles[name] = handle
    fleet._models["m"] = {
        "bundle": SimpleNamespace(fingerprint=7),
        "assigned": list(fleet._names),
    }
    fleet.active = lambda: True
    return fleet, pipes


def _dispatch_in_thread(fleet, timeout_s=WAIT_S):
    outcome: dict = {}

    def run():
        try:
            outcome["scores"] = fleet.dispatch("m", 7, np.ones((2, 3)), timeout_s)
        except Exception as exc:  # noqa: BLE001 - asserted by the caller
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


class TestWorkerHandle:
    def test_unanswered_request_times_out_and_late_reply_is_dropped(self):
        handle, worker = _bare_handle()
        try:
            rid, late = handle.request("predict", "m", 1, np.zeros((1, 2)), None)
            assert _recv(worker)[:4] == ("predict", rid, "m", 1)
            with pytest.raises(FutureTimeout):
                late.result(timeout=0.02)
            handle.forget(rid)
            # A control request that times out forgets itself.
            assert handle.ask("unload", "m", timeout_s=0.02) is False
            _, unload_rid, _ = _recv(worker)
            worker.send(("res", rid, np.ones(1), None))
            worker.send(("res", unload_rid, None, None))
            rid2, answered = handle.request("chaos", "mute_pings", True)
            assert _recv(worker) == ("chaos", rid2, "mute_pings", True)
            worker.send(("res", rid2, None, None))
            assert answered.result(timeout=WAIT_S) is None
            # Pipe FIFO: both late replies were read first and resolved
            # nothing, and the reader is still serving.
            assert not late.done()
            assert handle.alive
        finally:
            handle.mark_dead("test over")
            worker.close()

    def test_mark_dead_fails_every_pending_future(self):
        handle, worker = _bare_handle()
        try:
            pending = [
                handle.request("predict", "m", 1, np.zeros((1, 2)), None),
                handle.request("load", "bundle"),
                handle.request("unload", "m"),
                handle.request("obs-pull"),
                handle.request("chaos", "mute_pings", True),
            ]
            handle.mark_dead("synthetic crash")
            for _, future in pending:
                error = future.exception(timeout=WAIT_S)
                assert isinstance(error, WorkerCrashError)
                assert "w9" in str(error)
            assert handle.dead_event.is_set()
            assert handle.request("obs-pull") is None
            assert handle.ask("unload", "m", timeout_s=WAIT_S) is False
        finally:
            worker.close()

    def test_racing_requests_and_death_resolve_every_future(self):
        handle, worker = _bare_handle()

        def echo():  # the worker: answer every request with its own rid
            try:
                while True:
                    rid = worker.recv()[1]
                    worker.send(("res", rid, rid, None))
            except (EOFError, OSError):
                pass  # mark_dead shut the pipe down

        sent: list = []

        def client(k):
            for i in range(200):
                if k == 0 and i == 100:
                    handle.mark_dead("synthetic crash")
                request = handle.request("predict", "m", 1, None, None)
                if request is not None:
                    sent.append(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=echo, daemon=True)] + [
                threading.Thread(target=client, args=(k,), daemon=True)
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WAIT_S)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            worker.close()
        assert not handle.alive and len(sent) >= 100
        # Each future resolved exactly once: with its own rid, or failed
        # by the death; none is left pending.
        for rid, future in sent:
            error = future.exception(timeout=WAIT_S)
            assert error is None and future.result() == rid or (
                isinstance(error, WorkerCrashError)
            )

    def test_obs_reply_is_ingested_before_it_resolves(self):
        seen: list = []
        fleet = SimpleNamespace()
        handle, worker = _bare_handle(fleet=fleet)
        try:
            rid, future = handle.request("obs-pull")
            fleet.ingest_obs = lambda name, payload: seen.append(
                (name, payload, future.done())
            )
            assert _recv(worker) == ("obs-pull", rid)
            worker.send(("obs", rid, {"pid": 1}))
            assert future.result(timeout=WAIT_S) is None
            assert seen == [("w9", {"pid": 1}, False)]
        finally:
            handle.mark_dead("test over")
            worker.close()


class TestDispatchFailover:
    def test_death_mid_request_redispatches_to_the_next_replica(self):
        enable_metrics()
        fleet, pipes = _bare_fleet(2)
        try:
            thread, outcome = _dispatch_in_thread(fleet)
            # The rotation starts at the first assigned replica.
            assert _recv(pipes["w0"])[0] == "predict"
            fleet.handle("w0").mark_dead("synthetic crash")
            message = _recv(pipes["w1"])
            pipes["w1"].send(("res", message[1], np.array([1.0, 2.0]), None))
            thread.join(WAIT_S)
            assert outcome["scores"].tolist() == [1.0, 2.0]
            counters = get_metrics().snapshot()["counters"]
            assert counters["fleet.dispatched"] == 2
            assert counters["fleet.redispatched"] == 1
            # The last replica dies mid-request: re-dispatch is exhausted,
            # and a dispatch after that finds none available.
            thread, outcome = _dispatch_in_thread(fleet)
            _recv(pipes["w1"])
            fleet.handle("w1").mark_dead("synthetic crash")
            thread.join(WAIT_S)
            assert isinstance(outcome["error"], WorkerCrashError)
            assert "re-dispatch exhausted" in str(outcome["error"])
            with pytest.raises(WorkerCrashError, match="none available"):
                fleet.dispatch("m", 7, np.ones((2, 3)), WAIT_S)
        finally:
            for name, worker in pipes.items():
                fleet.handle(name).mark_dead("test over")
                worker.close()

    def test_unanswered_dispatch_times_out_as_a_stage_error(self):
        fleet, pipes = _bare_fleet(1)
        try:
            with pytest.raises(StageTimeoutError) as err:
                fleet.dispatch("m", 7, np.ones((2, 3)), 0.02)
            assert err.value.stage == "serve.fleet"
            assert fleet.handle("w0")._pending == {}  # forgotten
        finally:
            fleet.handle("w0").mark_dead("test over")
            pipes["w0"].close()
