"""End-to-end serving tests: HTTP endpoints, bitwise equality, one fit.

The HTTP tests run a real ``ThreadingHTTPServer`` on an OS-assigned port
and drive it with ``urllib`` from threaded clients; the error-mapping
tests call ``app.handle`` directly (the HTTP layer is a pass-through
adapter over it, exercised separately).
"""

from __future__ import annotations

import copy
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import ForestValidationError
from repro.core.config import GEFConfig
from repro.devtools import corrupt_forest
from repro.forest import LEAF, forest_fingerprint, save_forest
from repro.obs.metrics import (
    enable_metrics,
    get_metrics,
    validate_prometheus_text,
)
from repro.obs.slo import default_slo_config
from repro.serve import ServeApp, ServeConfig, start_server

_GEF_SMALL = dict(
    n_univariate=3, n_samples=1_500, k_points=8, random_state=0
)


@pytest.fixture()
def app(serve_forest):
    app = ServeApp(
        ServeConfig(max_batch=8, batch_delay_s=0.002,
                    gef=GEFConfig(**_GEF_SMALL))
    )
    app.add_model("demo", serve_forest)
    yield app
    app.close(drain=True)


@pytest.fixture()
def server(app):
    handle = start_server(app)
    yield handle
    handle.close(drain=True)


def _post(url, payload, timeout=30.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _get(url, timeout=10.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode("utf-8")


def test_healthz_reports_models(server, serve_forest):
    status, body = _get(server.url + "/healthz")
    payload = json.loads(body)
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["models"]["demo"]["fingerprint"] == forest_fingerprint(
        serve_forest
    )
    assert payload["models"]["demo"]["surrogate_cached"] is False


def test_metrics_endpoint_is_valid_prometheus(server, serve_rows):
    enable_metrics()
    _post(server.url + "/predict", {"rows": serve_rows[:2].tolist()})
    status, text = _get(server.url + "/metrics")
    assert status == 200
    assert "serve_requests_total" in text
    assert "serve_latency_s_bucket" in text
    assert validate_prometheus_text(text) > 0


def test_http_predict_bitwise_equals_loop(server, serve_forest, serve_rows,
                                         loop_predict):
    chunks = [serve_rows[i * 4 : i * 4 + 4] for i in range(12)]
    results: dict[int, list] = {}
    errors: list[Exception] = []
    barrier = threading.Barrier(12)

    def client(i):
        barrier.wait()
        try:
            status, payload = _post(
                server.url + "/predict", {"rows": chunks[i].tolist()}
            )
            assert status == 200
            results[i] = payload["predictions"]
        except Exception as exc:  # noqa: BLE001 - collected and asserted below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(12)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30.0)
    assert not errors
    for i, chunk in enumerate(chunks):
        direct = loop_predict(serve_forest, chunk).tolist()
        assert results[i] == direct, (
            f"client {i}: HTTP predictions differ from the per-tree loop "
            f"(JSON floats round-trip exactly, so this is a real mismatch)"
        )


def test_concurrent_explain_fits_exactly_once(server):
    enable_metrics()
    outcomes: list[tuple[int, dict]] = []
    errors: list[Exception] = []
    barrier = threading.Barrier(4)

    def client():
        barrier.wait()
        try:
            outcomes.append(_post(server.url + "/explain", {}, timeout=120.0))
        except Exception as exc:  # noqa: BLE001 - collected and asserted below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, daemon=True) for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120.0)
    assert not errors
    assert len(outcomes) == 4
    assert all(status == 200 for status, _ in outcomes)
    fingerprints = {payload["fingerprint"] for _, payload in outcomes}
    assert len(fingerprints) == 1
    assert get_metrics().counter("surrogate.fits") == 1, (
        "concurrent /explain must coalesce into exactly one GAM fit"
    )
    # The surrogate is cached now: another explain is a pure cache hit.
    status, _ = _post(server.url + "/explain", {})
    assert status == 200
    assert get_metrics().counter("surrogate.fits") == 1
    assert get_metrics().counter("surrogate.hits") >= 1


def test_explain_local_breakdown_and_gam_predict(server, app, serve_rows):
    instance = serve_rows[0]
    status, payload = _post(
        server.url + "/explain",
        {"instance": instance.tolist(), "top": 2},
        timeout=120.0,
    )
    assert status == 200
    assert payload["model"] == "demo"
    assert set(payload["fidelity"]) >= {"rmse", "r2"}
    local = payload["local"]
    assert len(local["contributions"]) == 2
    direct_local = app.surrogates.explanation_for(
        None, payload["fingerprint"]
    ).local_explanation(instance)
    assert local["eta"] == pytest.approx(
        direct_local.intercept
        + sum(c.contribution for c in direct_local.contributions),
        rel=1e-9,
    )
    status, gam = _post(
        server.url + "/gam/predict", {"rows": serve_rows[:3].tolist()}
    )
    assert status == 200
    explanation = app.surrogates.explanation_for(None, payload["fingerprint"])
    assert gam["predictions"] == explanation.predict(serve_rows[:3]).tolist()
    assert gam["source"] == "gam-surrogate"


def test_hot_add_and_remove_over_http(server, serve_forest, tmp_path):
    path = tmp_path / "second.json"
    save_forest(serve_forest, path)
    status, payload = _post(
        server.url + "/models", {"id": "second", "path": str(path)}
    )
    assert status == 200
    assert sorted(payload["models"]) == ["demo", "second"]
    status, body = _post(
        server.url + "/predict",
        {"model": "second", "rows": [[0.0] * serve_forest.n_features_]},
    )
    assert status == 200
    request = urllib.request.Request(
        server.url + "/models/second", method="DELETE"
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        removed = json.loads(response.read())
    assert removed["removed"] == "second"
    assert removed["models"] == ["demo"]


def test_http_error_statuses(server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server.url + "/predict", {"rows": [[1.0]]})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server.url + "/predict", {"model": "ghost", "rows": [[1.0]]})
    assert err.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(server.url + "/no/such/route", {})
    assert err.value.code == 404


# ----------------------------------------------------------------------
# app-level behavior (no sockets needed)
# ----------------------------------------------------------------------
def test_predict_fingerprint_names_the_scoring_engine(
    serve_forest, nan_forest, serve_rows, loop_predict
):
    # A registry swap that lands before the batcher swap must not label
    # the old engine's scores with the new fingerprint.
    app = ServeApp()
    try:
        old = app.add_model("m", serve_forest)
        new = app.registry.add("m", nan_forest)
        assert new.fingerprint != old.fingerprint
        rows = serve_rows[:8]
        response = app.handle(
            "POST", "/predict", json.dumps({"rows": rows.tolist()})
        )
        assert response.status == 200
        payload = response.json()
        assert payload["fingerprint"] == old.fingerprint
        assert payload["predictions"] == (
            loop_predict(serve_forest, rows).tolist()
        )
    finally:
        app.close(drain=True)


def test_bad_json_maps_to_400(app):
    response = app.handle("POST", "/predict", b"{not json")
    assert response.status == 400
    assert response.json()["kind"] == "bad-request"


def test_wrong_shape_maps_to_400(app):
    response = app.handle(
        "POST", "/predict", json.dumps({"rows": [[1.0, 2.0]]}).encode()
    )
    assert response.status == 400
    assert "columns" in response.json()["error"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("instance", "abc"),
        ("instance", [["a", "b"]]),
        ("top", "two"),
        ("top", "2"),
        ("top", 1.5),
        ("top", True),
        ("top", -1),
    ],
)
def test_explain_bad_instance_or_top_maps_to_400(app, serve_rows, field, value):
    payload = {"instance": serve_rows[0].tolist(), field: value}
    response = app.handle("POST", "/explain", json.dumps(payload).encode())
    assert response.status == 400
    assert response.json()["kind"] == "bad-request"
    assert field in response.json()["error"]
    assert len(app.surrogates) == 0  # rejected before any surrogate fit


def test_explain_top_zero_keeps_no_contributions(app, serve_rows):
    payload = {"instance": serve_rows[0].tolist(), "top": 0}
    response = app.handle("POST", "/explain", json.dumps(payload).encode())
    assert response.status == 200
    assert response.json()["local"]["contributions"] == []


def test_admission_full_maps_to_429(serve_forest):
    enable_metrics()
    app = ServeApp(ServeConfig(max_inflight=1, gef=GEFConfig(**_GEF_SMALL)))
    app.add_model("demo", serve_forest)
    slot = app.admission.admit()  # occupy the only slot
    try:
        response = app.handle(
            "POST",
            "/predict",
            json.dumps(
                {"rows": [[0.0] * serve_forest.n_features_]}
            ).encode(),
        )
        assert response.status == 429
        assert response.json()["kind"] == "shed"
        assert get_metrics().counter("serve.shed") == 1
        # Monitoring endpoints bypass admission and still answer.
        assert app.handle("GET", "/healthz", None).status == 200
        assert app.handle("GET", "/metrics", None).status == 200
    finally:
        slot.__exit__(None, None, None)
        app.close(drain=True)


def test_exhausted_budget_maps_to_504(serve_forest):
    app = ServeApp(
        ServeConfig(request_timeout_s=0.0, gef=GEFConfig(**_GEF_SMALL))
    )
    app.add_model("demo", serve_forest)
    try:
        response = app.handle(
            "POST",
            "/predict",
            json.dumps(
                {"rows": [[0.0] * serve_forest.n_features_]}
            ).encode(),
        )
        assert response.status == 504
        assert response.json()["stage"] == "serve.predict"
    finally:
        app.close(drain=True)


def test_closed_app_sheds(app, serve_forest):
    app.close(drain=True)
    response = app.handle(
        "POST",
        "/predict",
        json.dumps({"rows": [[0.0] * serve_forest.n_features_]}).encode(),
    )
    assert response.status == 429
    assert app.handle("GET", "/healthz", None).json()["status"] == "draining"


# ----------------------------------------------------------------------
# the registry enforces the structural contract
# ----------------------------------------------------------------------
def _shared_subtree(forest, tree_index):
    """A copy whose first test node sends both branches to one child."""
    bad = copy.deepcopy(forest)
    tree = bad.trees_[tree_index]
    node = int(np.flatnonzero(tree.feature != LEAF)[0])
    tree.right[node] = tree.left[node]
    return bad


_UNWALKABLE = {
    "dangling-child": "dangling child",
    "cyclic-child": "root is referenced",
    "orphan-node": "orphan node",
    "feature-out-of-range": "split feature index",
    "shared-subtree": "referenced as a child 2 times",
}


def _unwalkable(forest, fault, tree_index=3):
    if fault == "shared-subtree":
        return _shared_subtree(forest, tree_index)
    return corrupt_forest(forest, fault, tree_index=tree_index)


@pytest.mark.parametrize("fault", sorted(_UNWALKABLE))
def test_unwalkable_forest_file_is_rejected_with_400(
    app, serve_forest, serve_rows, tmp_path, fault
):
    path = tmp_path / f"{fault}.json"
    save_forest(_unwalkable(serve_forest, fault), path)
    response = app.handle(
        "POST", "/models", json.dumps({"id": "bad", "path": str(path)})
    )
    assert response.status == 400
    payload = response.json()
    assert payload["kind"] == "bad-request"
    assert "tree 3: " in payload["error"]
    assert _UNWALKABLE[fault] in payload["error"]
    assert app.registry.ids() == ["demo"]
    predict = app.handle(
        "POST", "/predict",
        json.dumps({"model": "bad", "rows": serve_rows[:2].tolist()}),
    )
    assert predict.status == 404


@pytest.mark.parametrize("fault", sorted(_UNWALKABLE))
def test_unwalkable_forest_object_is_rejected(app, serve_forest, fault):
    with pytest.raises(ForestValidationError, match=_UNWALKABLE[fault]):
        app.add_model("demo", _unwalkable(serve_forest, fault))
    assert app.registry.ids() == ["demo"]
    assert app.registry.get("demo").model is serve_forest


# ----------------------------------------------------------------------
# every response is strict JSON
# ----------------------------------------------------------------------
def _non_finite_leaf(forest, value, tree_index=3):
    bad = copy.deepcopy(forest)
    tree = bad.trees_[tree_index]
    tree.value[int(np.flatnonzero(tree.feature == LEAF)[0])] = value
    return bad


def _strict_json(body: bytes):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(body, parse_constant=reject)


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf-leaf", "nan-leaf"])
def test_non_finite_leaf_forest_is_rejected_with_400(
    app, serve_forest, tmp_path, value
):
    path = tmp_path / "leaf.json"
    save_forest(_non_finite_leaf(serve_forest, value), path)
    # A hot swap of the live id: the registry keeps the old forest.
    response = app.handle(
        "POST", "/models", json.dumps({"id": "demo", "path": str(path)})
    )
    assert response.status == 400
    payload = _strict_json(response.body)
    assert payload["kind"] == "bad-request"
    assert payload["error"].endswith(": tree 3: non-finite leaf value")
    assert app.registry.ids() == ["demo"]
    assert app.registry.get("demo").model is serve_forest
    with pytest.raises(ForestValidationError, match="tree 3: non-finite leaf"):
        app.add_model("other", _non_finite_leaf(serve_forest, value))
    assert app.registry.ids() == ["demo"]


def test_non_finite_init_score_forest_is_rejected_with_400(
    app, serve_forest, tmp_path
):
    bad = copy.deepcopy(serve_forest)
    bad.init_score_ = float("nan")
    path = tmp_path / "init.json"
    save_forest(bad, path)
    response = app.handle(
        "POST", "/models", json.dumps({"id": "demo", "path": str(path)})
    )
    assert response.status == 400
    payload = _strict_json(response.body)
    assert payload["error"].endswith(": forest init_score_ is not finite")
    assert app.registry.ids() == ["demo"]
    assert app.registry.get("demo").model is serve_forest


def test_non_finite_predict_row_keeps_slo_healthz_strict(
    serve_forest, serve_rows
):
    app = ServeApp(
        ServeConfig(max_batch=8, batch_delay_s=0.002,
                    gef=GEFConfig(**_GEF_SMALL), slo=default_slo_config())
    )
    try:
        app.add_model("demo", serve_forest)
        assert app.handle(
            "POST", "/explain", json.dumps({"model": "demo"})
        ).status == 200
        rows = serve_rows[:32].tolist()
        rows[0] = [None] * len(rows[0])  # JSON nulls reach the forest as NaN
        response = app.handle(
            "POST", "/predict", json.dumps({"model": "demo", "rows": rows})
        )
        assert response.status == 200
        assert _strict_json(response.body)["predictions"]
        app.slo_tick()
        response = app.handle("GET", "/healthz")
        assert response.status == 200
        drift = _strict_json(response.body)["slo"]["drift"]
        assert drift["models"]["demo"]["samples"] == 31
        assert 0.0 < drift["fidelity"] <= 1.0
    finally:
        app.close(drain=True)


def test_non_finite_surrogate_input_maps_to_400(app, serve_rows):
    # Python's json accepts NaN and Infinity tokens in a request body.
    row = "[NaN, " + json.dumps(serve_rows[0, 1:].tolist())[1:]
    for path, body in (
        ("/gam/predict", '{"rows": [%s]}' % row),
        ("/explain", '{"instance": %s}' % row.replace("NaN", "Infinity")),
    ):
        response = app.handle("POST", path, body)
        assert response.status == 400, path
        assert _strict_json(response.body)["kind"] == "bad-request"
    assert len(app.surrogates) == 0  # rejected before any surrogate fit


def test_nan_threshold_forest_predict_is_strict_json(
    app, nan_forest, serve_rows, loop_predict
):
    app.add_model("nan", nan_forest)
    rows = serve_rows[:40]
    response = app.handle(
        "POST", "/predict",
        json.dumps({"model": "nan", "rows": rows.tolist()}),
    )
    assert response.status == 200
    payload = _strict_json(response.body)
    assert payload["predictions"] == loop_predict(nan_forest, rows).tolist()
