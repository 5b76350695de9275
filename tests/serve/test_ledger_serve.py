"""The ledgered serving estate: write-through, rehydration, versioning
endpoints, SLO breach actions, and rollback under live traffic.

All in-process via ``app.handle`` (the HTTP layer is a pass-through
adapter exercised in test_server.py); zero wall-clock sleeps.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import GEFConfig, explain_config_hash
from repro.devtools.loadgen import run_load
from repro.forest import GradientBoostingRegressor, forest_fingerprint
import repro.ledger.records
from repro.ledger import LedgerStore
from repro.obs.metrics import enable_metrics, get_metrics
from repro.obs.slo import SloConfig, SloRule
from repro.serve import ServeApp, ServeConfig

_GEF_SMALL = dict(
    n_univariate=3, n_samples=1_500, k_points=8, random_state=0
)


@pytest.fixture(scope="session")
def serve_forest_v2(serve_data):
    """A structurally different forest to hot-swap over serve_forest."""
    model = GradientBoostingRegressor(
        n_estimators=30, num_leaves=10, learning_rate=0.15, random_state=3
    )
    model.fit(serve_data.X_train, serve_data.y_train)
    return model


def _ledgered_config(ledger_path, **kwargs):
    return ServeConfig(
        max_batch=8, batch_delay_s=0.002, gef=GEFConfig(**_GEF_SMALL),
        ledger_path=ledger_path, **kwargs,
    )


@pytest.fixture()
def ledger_app(tmp_path, serve_forest):
    path = tmp_path / "ledger"
    app = ServeApp(_ledgered_config(path))
    app.add_model("demo", serve_forest)
    yield app, path
    app.close(drain=True)


def _handle(app, method, path, payload=None):
    body = json.dumps(payload).encode("utf-8") if payload is not None else b""
    response = app.handle(method, path, body)
    return response.status, json.loads(response.body)


class TestWriteThrough:
    def test_registration_ledgers_model_and_event(self, ledger_app,
                                                  serve_forest):
        app, path = ledger_app
        store = LedgerStore(path)
        fingerprint = forest_fingerprint(serve_forest)
        models = store.entries(kind="model", key=str(fingerprint))
        assert len(models) == 1
        assert models[0].payload["fingerprint"] == fingerprint
        events = store.entries(kind="event", key="demo")
        assert [e.payload["action"] for e in events] == ["register"]
        assert events[0].payload["fingerprint"] == fingerprint
        assert events[0].payload["model_entry"] == models[0].entry_id

    def test_hot_swap_ledgers_the_transition(self, ledger_app,
                                             serve_forest_v2):
        app, path = ledger_app
        app.add_model("demo", serve_forest_v2)
        events = LedgerStore(path).entries(kind="event", key="demo")
        assert [e.payload["action"] for e in events] == [
            "register", "hot-swap",
        ]
        assert events[1].payload["from_fingerprint"] == (
            events[0].payload["fingerprint"]
        )

    def test_explain_ledgers_surrogate_and_reports_coordinates(
        self, ledger_app, serve_forest
    ):
        app, path = ledger_app
        status, result = _handle(app, "POST", "/explain", {"model": "demo"})
        assert status == 200
        fingerprint = forest_fingerprint(serve_forest)
        assert result["fingerprint"] == fingerprint
        assert result["config_hash"] == explain_config_hash(app.config.gef)
        entries = LedgerStore(path).entries(kind="surrogate")
        assert len(entries) == 1
        assert result["ledger_entry"] == entries[0].entry_id
        assert entries[0].payload["fingerprint"] == fingerprint

    def test_healthz_reports_ledger(self, ledger_app):
        app, path = ledger_app
        status, payload = _handle(app, "GET", "/healthz")
        assert status == 200
        assert payload["ledger"]["path"] == str(path)
        assert payload["ledger"]["entries"] >= 2  # model + register event

    def test_write_through_emits_metrics(self, tmp_path, serve_forest):
        registry = enable_metrics()
        app = ServeApp(_ledgered_config(tmp_path / "ledger"))
        try:
            app.add_model("demo", serve_forest)
            counters = get_metrics().snapshot()["counters"]
            assert counters.get("ledger.appends", 0) >= 2
        finally:
            app.close(drain=True)


class TestRehydration:
    def test_restart_rehydrates_warm_surrogate_without_refit(
        self, tmp_path, serve_forest
    ):
        path = tmp_path / "ledger"
        first = ServeApp(_ledgered_config(path))
        first.add_model("demo", serve_forest)
        status, fitted = _handle(first, "POST", "/explain", {"model": "demo"})
        assert status == 200
        first.close(drain=True)

        second = ServeApp(_ledgered_config(path))
        second.add_model("demo", serve_forest)
        try:
            fingerprint = forest_fingerprint(serve_forest)
            # The cache is warm straight after registration: the fitted
            # surrogate came off the ledger, no explain ran in this app.
            assert second.surrogates.cached(fingerprint)
            assert second.surrogates.peek(fingerprint) is not None
            status, again = _handle(
                second, "POST", "/explain", {"model": "demo"}
            )
            assert status == 200
            assert again["fidelity"] == fitted["fidelity"]
            assert again["ledger_entry"] == fitted["ledger_entry"]
        finally:
            second.close(drain=True)

    def test_restart_skips_surrogate_of_another_kernel(
        self, tmp_path, serve_forest, monkeypatch
    ):
        path = tmp_path / "ledger"
        # The first process ledgers its surrogate as kernel 0 would have.
        monkeypatch.setattr(repro.ledger.records, "KERNEL_VERSION", 0)
        first = ServeApp(_ledgered_config(path))
        first.add_model("demo", serve_forest)
        status, _ = _handle(first, "POST", "/explain", {"model": "demo"})
        assert status == 200
        first.close(drain=True)
        monkeypatch.undo()

        enable_metrics()
        second = ServeApp(_ledgered_config(path))
        second.add_model("demo", serve_forest)
        try:
            assert not second.surrogates.cached(forest_fingerprint(serve_forest))
            counters = get_metrics().snapshot()["counters"]
            assert counters.get("ledger.rehydration_stale") == 1
            assert "ledger.rehydrations" not in counters
            status, payload = _handle(second, "POST", "/explain", {"model": "demo"})
            assert status == 200
            # The refit is ledgered on the current kernel's chain.
            assert payload["ledger_entry"] is not None
        finally:
            second.close(drain=True)

    def test_versioning_endpoints_refuse_without_ledger(self, serve_forest):
        app = ServeApp(
            ServeConfig(max_batch=8, gef=GEFConfig(**_GEF_SMALL))
        )
        app.add_model("demo", serve_forest)
        try:
            status, payload = _handle(app, "GET", "/models/demo/versions")
            assert status == 400
            assert "ledger" in payload["error"]
            status, _ = _handle(app, "POST", "/models/demo/rollback", {})
            assert status == 400
        finally:
            app.close(drain=True)


class TestVersioningEndpoints:
    def test_versions_lists_the_lineage(self, ledger_app, serve_forest,
                                        serve_forest_v2):
        app, _ = ledger_app
        app.add_model("demo", serve_forest_v2)
        status, payload = _handle(app, "GET", "/models/demo/versions")
        assert status == 200
        fp1 = forest_fingerprint(serve_forest)
        fp2 = forest_fingerprint(serve_forest_v2)
        assert payload["fingerprint"] == fp2
        assert [v["fingerprint"] for v in payload["versions"]] == [fp1, fp2]
        assert [v["action"] for v in payload["versions"]] == [
            "register", "hot-swap",
        ]
        assert set(payload["surrogates"]) == {str(fp1), str(fp2)}

    def test_unknown_ledger_route_is_404(self, ledger_app):
        app, _ = ledger_app
        status, _ = _handle(app, "GET", "/models/demo/nonsense")
        assert status == 404

    def test_diff_endpoint(self, ledger_app, serve_forest_v2):
        app, path = ledger_app
        _handle(app, "POST", "/explain", {"model": "demo"})
        app.add_model("demo", serve_forest_v2)
        _handle(app, "POST", "/explain", {"model": "demo"})
        entries = LedgerStore(path).entries(kind="surrogate")
        assert len(entries) == 2
        a, b = entries[0].entry_id, entries[1].entry_id
        status, report = _handle(app, "GET", f"/models/diff?a={a}&b={b}")
        assert status == 200
        assert report["identical_forest"] is False
        assert report["a"]["fingerprint"] != report["b"]["fingerprint"]

    def test_diff_needs_both_refs(self, ledger_app):
        app, _ = ledger_app
        status, payload = _handle(app, "GET", "/models/diff?a=abcdef")
        assert status == 400
        assert "exactly one" in payload["error"]

    def test_diff_rejects_non_surrogate_entries(self, ledger_app):
        app, path = ledger_app
        model_entry = LedgerStore(path).entries(kind="model")[0].entry_id
        status, _ = _handle(
            app, "GET", f"/models/diff?a={model_entry}&b={model_entry}"
        )
        assert status == 400


class TestRollback:
    def test_rollback_restores_previous_version_bitwise(
        self, ledger_app, serve_forest, serve_forest_v2
    ):
        app, path = ledger_app
        rows = np.random.default_rng(42).standard_normal(
            (6, serve_forest.n_features_)
        )
        baseline = serve_forest.predict_raw(rows).tolist()
        app.add_model("demo", serve_forest_v2)
        status, swapped = _handle(
            app, "POST", "/predict", {"model": "demo", "rows": rows.tolist()}
        )
        assert status == 200 and swapped["predictions"] != baseline

        status, result = _handle(app, "POST", "/models/demo/rollback", {})
        assert status == 200
        assert result["fingerprint"] == forest_fingerprint(serve_forest)
        assert result["from_fingerprint"] == forest_fingerprint(
            serve_forest_v2
        )
        status, restored = _handle(
            app, "POST", "/predict", {"model": "demo", "rows": rows.tolist()}
        )
        assert status == 200
        assert restored["predictions"] == baseline  # bitwise, not approx
        events = LedgerStore(path).entries(kind="event", key="demo")
        assert events[-1].payload["action"] == "rollback"

    def test_rollback_to_named_entry(self, ledger_app, serve_forest,
                                     serve_forest_v2):
        app, path = ledger_app
        app.add_model("demo", serve_forest_v2)
        target = LedgerStore(path).entries(
            kind="model", key=str(forest_fingerprint(serve_forest))
        )[0]
        status, result = _handle(
            app, "POST", "/models/demo/rollback", {"to": target.short_id}
        )
        assert status == 200
        assert result["fingerprint"] == forest_fingerprint(serve_forest)
        assert result["model_entry"] == target.entry_id

    def test_rollback_with_single_version_is_404(self, ledger_app):
        app, _ = ledger_app
        status, payload = _handle(app, "POST", "/models/demo/rollback", {})
        assert status == 404
        assert payload["kind"] == "ledger-entry-not-found"

    def test_rollback_under_load_loses_nothing(
        self, ledger_app, serve_forest, serve_forest_v2
    ):
        app, _ = ledger_app
        app.add_model("demo", serve_forest_v2)
        rollback_status = []

        def fire_rollback():
            status, _ = _handle(app, "POST", "/models/demo/rollback", {})
            rollback_status.append(status)

        cell = run_load(
            app, clients=6, requests_per_client=10, rows_per_request=4,
            seed=11, mid_load=fire_rollback,
        )
        assert rollback_status == [200]
        assert cell["ok"] + cell["shed"] == cell["requests"]  # lost == 0
        assert cell["errors"] == 0
        # Post-rollback traffic is served by v1, bit for bit.
        rows = np.random.default_rng(7).standard_normal(
            (5, serve_forest.n_features_)
        )
        status, result = _handle(
            app, "POST", "/predict", {"model": "demo", "rows": rows.tolist()}
        )
        assert status == 200
        assert result["fingerprint"] == forest_fingerprint(serve_forest)
        assert result["predictions"] == serve_forest.predict_raw(rows).tolist()


class TestSloBreachAction:
    def _slo_config(self, breach_action):
        return SloConfig(
            rules=(
                SloRule(
                    name="fidelity_floor", metric="fidelity", kind="min",
                    warn=0.9, breach=0.8,
                ),
            ),
            breach_action=breach_action,
        )

    def test_breach_transition_is_ledgered(self, tmp_path, serve_forest):
        app = ServeApp(_ledgered_config(
            tmp_path / "ledger", slo=self._slo_config("log")
        ))
        app.add_model("demo", serve_forest)
        try:
            assert app.slo.evaluate({"fidelity": 0.5}) == "breach"
            events = LedgerStore(tmp_path / "ledger").entries(
                kind="event", key="slo"
            )
            assert [e.payload["action"] for e in events] == [
                "slo-transition",
            ]
            assert events[0].payload["to"] == "breach"
            # log-only: the cache is untouched (nothing cached anyway),
            # and no invalidation event was written.
        finally:
            app.close(drain=True)

    def test_invalidate_action_drops_cached_surrogates(self, tmp_path,
                                                       serve_forest):
        app = ServeApp(_ledgered_config(
            tmp_path / "ledger", slo=self._slo_config("invalidate")
        ))
        app.add_model("demo", serve_forest)
        try:
            fingerprint = forest_fingerprint(serve_forest)
            status, _ = _handle(app, "POST", "/explain", {"model": "demo"})
            assert status == 200
            assert app.surrogates.cached(fingerprint)
            assert app.slo.evaluate({"fidelity": 0.5}) == "breach"
            assert not app.surrogates.cached(fingerprint)
            actions = [
                e.payload["action"]
                for e in LedgerStore(tmp_path / "ledger").entries(
                    kind="event", key="slo"
                )
            ]
            assert actions == ["slo-transition", "surrogate-invalidated"]
            # Recovery transitions ledger too, but do not invalidate.
            assert app.slo.evaluate({"fidelity": 0.95}) in ("breach", "ok")
        finally:
            app.close(drain=True)
