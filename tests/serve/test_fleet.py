"""Fleet routing, parity, lifecycle, and the loadgen/benchmark plumbing.

One module-scoped fleet (2 workers, full replication) is shared by the
read-only tests; spawn cost is paid once.  Tests that mutate fleet state
(model add/remove) restore it before returning the fixture.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core.errors import FleetDegradedError, ModelNotFoundError
from repro.obs import enable_metrics, get_metrics
from repro.obs.trace import advance
from repro.serve import FleetApp, FleetConfig, ServeApp, ServeConfig
from repro.serve.fleet import HashRing
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
            assert app.fleet.handle("w0").await_ack(
                ("unloaded", "m"), ("unload", "m"), WAIT_S
            )
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
