"""The serving application: endpoint dispatch, independent of transport.

:class:`ServeApp` owns the model registry, one micro-batcher per model,
the surrogate cache and the admission controller, and exposes a single
``handle(method, path, body) -> Response`` entry point.  The stdlib HTTP
layer (:mod:`repro.serve.http`) is a thin adapter over it; tests and the
load generator can drive the app in-process through exactly the same
dispatch path.

Endpoints::

    POST /predict       {"model": id?, "rows": [[...], ...]}
                        -> forest scores via the micro-batched bitvector engine
    POST /explain       {"model": id?, "instance": [...]?, "top": n?}
                        -> global surrogate summary (+ local break-down)
    POST /gam/predict   {"model": id?, "rows": [[...], ...]}
                        -> cheap predictions from the cached GAM surrogate
    POST /models        {"id": ..., "path": ...}       hot add / hot swap
    DELETE /models/<id>                                 hot remove
    GET  /models/<id>/versions                          ledgered lineage
    POST /models/<id>/rollback  {"to": entry?}          hot-swap rollback
    GET  /models/diff?a=<entry>&b=<entry>               surrogate diff
    GET  /healthz       liveness + registered models
    GET  /metrics       Prometheus text exposition of repro.obs metrics

The three versioning endpoints need a ledger
(``ServeConfig.ledger_path``): every registration and fitted surrogate
is then written through to the append-only content-addressed store, a
restart rehydrates warm surrogates from it, and a rollback rebuilds the
previous forest from the ledger and re-registers it through the normal
hot-swap path — under a fleet that is the unlink-while-mapped shared
memory swap, so traffic is served continuously throughout.

Typed errors map onto HTTP statuses at this boundary: ``ShedError`` 429,
``BadRequestError`` 400, ``ModelNotFoundError`` 404,
``StageTimeoutError`` 504, any other ``ReproError`` 500.  ``/healthz``
and ``/metrics`` bypass admission control — monitoring must keep
answering while the server sheds load.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import parse_qs

import numpy as np

from ..core.config import GEFConfig, explain_config_hash
from ..core.errors import (
    BadRequestError,
    FitDivergenceError,
    FleetDegradedError,
    ForestValidationError,
    LedgerCorruptionError,
    LedgerEntryNotFoundError,
    LedgerError,
    ModelNotFoundError,
    ReproError,
    SamplingError,
    SelectionError,
    ServeError,
    ShedError,
    StageFailureError,
    StageTimeoutError,
    WorkerCrashError,
)
from ..obs.drift import DriftMonitor
from ..obs.metrics import (
    get_metrics,
    inc as metric_inc,
    observe as metric_observe,
    to_prometheus,
)
from ..obs.slo import SloConfig, SloEngine, quantile_from_histogram
from ..obs.trace import monotonic, span as obs_span
from ..ledger import (
    LedgerStore,
    diff_entries,
    explanation_from_entry,
    forest_from_entry,
    latest_surrogate,
    model_lineage,
    previous_model_entry,
    record_event,
    record_model,
    record_surrogate,
)
from .admission import AdmissionController, Deadline
from .batcher import MicroBatcher
from .registry import ModelEntry, ModelRegistry
from .surrogate import SurrogateCache

__all__ = ["ERROR_STATUS", "Response", "ServeApp", "ServeConfig"]

_JSON = "application/json"
_PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Typed-error -> ``(HTTP status, payload kind)`` mapping, consulted per
#: request by exact class first, then up the MRO.  A ``None`` kind means
#: "use the concrete class name" (the 5xx families, where the precise
#: type is the diagnostic).  The ``repro check --deep`` exception-flow
#: pass (DESIGN.md §13) proves every taxonomy type raisable from
#: ``ServeApp.handle``'s call graph has an *explicit* entry here, so a
#: new pipeline error can never degrade into an anonymous 500 silently.
#: Registered frozen-after-import in the thread-safety registry.
ERROR_STATUS: dict[type, tuple[int, str | None]] = {
    ShedError: (429, "shed"),
    BadRequestError: (400, "bad-request"),
    ModelNotFoundError: (404, "model-not-found"),
    StageTimeoutError: (504, "timeout"),
    WorkerCrashError: (503, "worker-crash"),
    FleetDegradedError: (503, "fleet-degraded"),
    ForestValidationError: (500, None),
    SamplingError: (500, None),
    SelectionError: (500, None),
    FitDivergenceError: (500, None),
    StageFailureError: (500, None),
    LedgerEntryNotFoundError: (404, "ledger-entry-not-found"),
    LedgerCorruptionError: (500, None),
    LedgerError: (500, None),
    ServeError: (500, None),
    ReproError: (500, None),
}


@dataclass(frozen=True)
class Response:
    """One finished response: status code, body bytes, content type."""

    status: int
    body: bytes
    content_type: str = _JSON

    def json(self) -> dict:
        """The body decoded as JSON (testing convenience)."""
        return json.loads(self.body.decode("utf-8"))

    @property
    def text(self) -> str:
        """The body decoded as UTF-8 (testing convenience)."""
        return self.body.decode("utf-8")


def _json_response(status: int, payload: dict) -> Response:
    return Response(
        status, (json.dumps(payload) + "\n").encode("utf-8"), _JSON
    )


@dataclass
class ServeConfig:
    """Tunables of the serving subsystem.

    ``gef`` carries the full PR-3 pipeline configuration used for
    surrogate fits — including ``stage_timeout``, so explain-request
    budgets reuse the stage-budget machinery unchanged.
    """

    max_batch: int = 32
    batch_delay_s: float = 0.002
    queue_limit: int = 256
    max_inflight: int = 1024
    request_timeout_s: float | None = 30.0
    surrogate_capacity: int = 4
    gef: GEFConfig = field(default_factory=GEFConfig)
    #: Enables the SLO engine + fidelity drift monitor when set (see
    #: :func:`repro.obs.slo.default_slo_config`).
    slo: SloConfig | None = None
    #: Enables the versioned ledger when set: write-through of models and
    #: surrogates, warm-surrogate rehydration on restart, and the
    #: versions/rollback/diff endpoints.
    ledger_path: str | Path | None = None


class ServeApp:
    """Transport-agnostic GEF serving application (see module docstring)."""

    def __init__(self, config: ServeConfig | None = None):
        self.config = config or ServeConfig()
        ledgered = self.config.ledger_path is not None
        self.ledger: LedgerStore | None = (
            LedgerStore(self.config.ledger_path) if ledgered else None
        )
        self.registry = ModelRegistry(
            on_register=self._ledger_on_register if ledgered else None
        )
        self.surrogates = SurrogateCache(
            self._fit_surrogate,
            capacity=self.config.surrogate_capacity,
            on_fit=self._ledger_on_fit if ledgered else None,
        )
        self.admission = AdmissionController(self.config.max_inflight)
        self._lock = threading.Lock()
        self._batchers: dict[str, MicroBatcher] = {}
        self._started_s = monotonic()
        self._closed = False
        if self.config.slo is not None:
            self.slo: SloEngine | None = SloEngine(
                self.config.slo, on_transition=self._on_slo_transition
            )
            self.drift: DriftMonitor | None = DriftMonitor(
                capacity=self.config.slo.drift_capacity,
                seed=self.config.slo.drift_seed,
                min_samples=self.config.slo.drift_min_samples,
            )
        else:
            self.slo = None
            self.drift = None
        self._slo_lock = threading.Lock()
        # (serve.requests, serve.errors) at the previous SLO tick: the
        # error budget is evaluated over per-tick deltas, not lifetime.
        self._slo_prev = (0.0, 0.0)

    # ------------------------------------------------------------------
    # model lifecycle
    # ------------------------------------------------------------------
    def _fit_surrogate(self, model):
        from ..core.explainer import GEF

        return GEF(self.config.gef).explain(model)

    # ------------------------------------------------------------------
    # ledger write-through + rehydration (config.ledger_path)
    # ------------------------------------------------------------------
    def _ledger_on_register(self, entry: ModelEntry, old: ModelEntry | None):
        """Registry hook: ledger the forest + a lifecycle event, then
        rehydrate a warm surrogate recorded by an earlier process.

        Write-through failures are availability-neutral: the swap already
        happened, so a full disk degrades audit coverage (counted in
        ``ledger.write_errors``), never serving.
        """
        try:
            with obs_span("ledger.write_through", kind="model"):
                model_entry = record_model(self.ledger, entry.model)
                if old is None:
                    action = "register"
                elif old.fingerprint != entry.fingerprint:
                    action = "hot-swap"
                else:
                    action = "reload"
                record_event(
                    self.ledger,
                    action,
                    key=entry.model_id,
                    data={
                        "fingerprint": entry.fingerprint,
                        "from_fingerprint": (
                            old.fingerprint if old is not None else None
                        ),
                        "model_entry": model_entry.entry_id,
                    },
                )
        except LedgerError:
            metric_inc("ledger.write_errors")
        if not self.surrogates.cached(entry.fingerprint):
            try:
                recorded = latest_surrogate(
                    self.ledger,
                    entry.fingerprint,
                    explain_config_hash(self.config.gef),
                )
                if recorded is not None and self.surrogates.seed(
                    entry.fingerprint, explanation_from_entry(recorded)
                ):
                    metric_inc("ledger.rehydrations")
            except (LedgerError, KeyError, TypeError, ValueError):
                # A stale or foreign archive must never block a swap; the
                # cache simply stays cold and the next explain refits.
                metric_inc("ledger.rehydration_errors")

    def _ledger_on_fit(self, fingerprint: int, explanation) -> None:
        """Surrogate-cache hook: ledger every successful fit."""
        try:
            with obs_span("ledger.write_through", kind="surrogate"):
                record_surrogate(self.ledger, explanation, fingerprint)
        except LedgerError:
            metric_inc("ledger.write_errors")

    def _on_slo_transition(self, transition: dict) -> None:
        """The pluggable SLO breach action (``SloConfig.breach_action``).

        Always ledgers the transition (when a ledger is configured);
        ``breach_action="invalidate"`` additionally drops every cached
        surrogate on entry into breach, forcing fresh fits — the
        recovery lever for fidelity-drift breaches.
        """
        metric_inc("slo.actions")
        if self.ledger is not None:
            try:
                record_event(
                    self.ledger, "slo-transition", key="slo",
                    data=dict(transition),
                )
            except LedgerError:
                metric_inc("ledger.write_errors")
        entered_breach = transition.get("to") == "breach"
        if entered_breach and self.config.slo.breach_action == "invalidate":
            self.surrogates.clear()
            metric_inc("slo.invalidations")
            if self.ledger is not None:
                try:
                    record_event(
                        self.ledger, "surrogate-invalidated", key="slo",
                        data={"rule": transition.get("rule")},
                    )
                except LedgerError:
                    metric_inc("ledger.write_errors")

    def add_model(self, model_id: str, source) -> ModelEntry:
        """Register (or hot-swap) a model and give it a micro-batcher."""
        entry = self.registry.add(model_id, source)
        return self.install_entry(entry)

    def install_entry(self, entry: ModelEntry) -> ModelEntry:
        """Wire a micro-batcher onto an already-registered entry.

        Split out of :meth:`add_model` so fleet workers can install
        entries whose engines were attached from shared memory (see
        :meth:`~repro.serve.registry.ModelRegistry.add_entry`).
        """
        batcher = MicroBatcher(
            entry.predict_raw,
            max_batch=self.config.max_batch,
            max_delay_s=self.config.batch_delay_s,
            max_pending=self.config.queue_limit,
            name=entry.model_id,
        )
        with self._lock:
            old = self._batchers.pop(entry.model_id, None)
            self._batchers[entry.model_id] = batcher
        if old is not None:
            old.stop(drain=True)
        return entry

    def remove_model(self, model_id: str) -> ModelEntry:
        """Unregister a model, draining its batcher first."""
        entry = self.registry.remove(model_id)
        with self._lock:
            batcher = self._batchers.pop(model_id, None)
        if batcher is not None:
            batcher.stop(drain=True)
        if self.drift is not None:
            self.drift.forget(model_id)
        return entry

    def batcher_for(self, model_id: str) -> MicroBatcher:
        """The micro-batcher serving ``model_id``."""
        with self._lock:
            batcher = self._batchers.get(model_id)
        if batcher is None:
            raise ModelNotFoundError(f"no model {model_id!r} is registered")
        return batcher

    def close(self, drain: bool = True) -> None:
        """Drain (or abort) every batcher and refuse further work."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.stop(drain=drain)
        if drain:
            self.admission.drain(timeout_s=self.config.request_timeout_s)

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _endpoint_label(method: str, path: str) -> str:
        if path == "/predict":
            return "predict"
        if path == "/explain":
            return "explain"
        if path == "/gam/predict":
            return "gam_predict"
        if path == "/healthz":
            return "healthz"
        if path == "/metrics":
            return "metrics"
        if path == "/models" or path.startswith("/models/"):
            return "models"
        return "unknown"

    @staticmethod
    def _parse_json(body) -> dict:
        if isinstance(body, (bytes, bytearray)):
            body = body.decode("utf-8", errors="replace")
        if not body:
            raise BadRequestError("request body must be a JSON object")
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        return payload

    def _entry_for(self, payload: dict) -> ModelEntry:
        model_id = payload.get("model")
        if model_id is None:
            ids = self.registry.ids()
            if len(ids) == 1:
                return self.registry.get(ids[0])
            raise BadRequestError(
                f'payload must name a "model" (registered: {ids or "none"})'
            )
        return self.registry.get(str(model_id))

    @staticmethod
    def _rows_for(payload: dict, entry: ModelEntry) -> np.ndarray:
        rows = payload.get("rows")
        if rows is None:
            raise BadRequestError('payload needs a "rows" matrix')
        try:
            X = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(f"rows must be numeric: {exc}") from exc
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] != entry.n_features:
            raise BadRequestError(
                f"rows must be a non-empty matrix with "
                f"{entry.n_features} columns, got shape {X.shape}"
            )
        return X

    # ------------------------------------------------------------------
    # the entry point
    # ------------------------------------------------------------------
    def handle(self, method: str, path: str, body=None) -> Response:
        """Dispatch one request; never raises (errors become statuses)."""
        method = method.upper()
        endpoint = self._endpoint_label(method, path)
        metric_inc("serve.requests")
        metric_inc(f"serve.requests.{endpoint}")
        deadline = Deadline(self.config.request_timeout_s)
        with obs_span("serve.request", endpoint=endpoint) as sp:
            try:
                response = self._dispatch(
                    method, path, body, endpoint, deadline
                )
            except ReproError as exc:
                response = self._error_response(exc)
            except Exception as exc:  # repro: allow(broad-except) the serving boundary answers 500, it must never crash the handler thread
                response = _json_response(
                    500, {"error": str(exc), "kind": "internal"}
                )
            sp.set(status=response.status)
        if response.status >= 500:
            metric_inc("serve.errors")
        metric_observe("serve.latency_s", deadline.elapsed())
        return response

    @staticmethod
    def _error_response(exc: ReproError) -> Response:
        """Map a typed pipeline error onto its HTTP status via
        :data:`ERROR_STATUS` (exact class first, then up the MRO)."""
        status, kind = 500, None
        for klass in type(exc).__mro__:
            entry = ERROR_STATUS.get(klass)
            if entry is not None:
                status, kind = entry
                break
        payload = {"error": str(exc), "kind": kind or type(exc).__name__}
        if status >= 500:
            payload["stage"] = exc.stage
        return _json_response(status, payload)

    def _dispatch(
        self, method: str, path: str, body, endpoint: str, deadline: Deadline
    ) -> Response:
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/metrics":
            return Response(200, self._metrics_text().encode("utf-8"), _PROM)
        if endpoint == "unknown":
            return _json_response(
                404, {"error": f"no endpoint {method} {path}", "kind": "route"}
            )
        if self._closed:
            raise ShedError("server is draining")
        with self.admission.admit():
            if method == "POST" and path == "/predict":
                return self._predict(body, deadline)
            if method == "POST" and path == "/gam/predict":
                return self._gam_predict(body, deadline)
            if method == "POST" and path == "/explain":
                return self._explain(body, deadline)
            if method == "POST" and path == "/models":
                return self._models_add(body)
            if method == "POST" and path.startswith("/models/") and (
                path.endswith("/rollback")
            ):
                model_id = path[len("/models/"):-len("/rollback")]
                return self._models_rollback(model_id, body)
            if method == "GET" and path.startswith("/models/"):
                return self._models_get(path)
            if method == "DELETE" and path.startswith("/models/"):
                return self._models_remove(path[len("/models/"):])
            return _json_response(
                404, {"error": f"no endpoint {method} {path}", "kind": "route"}
            )

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _metrics_text(self) -> str:
        """The ``/metrics`` body; :class:`FleetApp` appends fleet series."""
        return to_prometheus()

    def _healthz(self) -> Response:
        models = {
            entry.model_id: {
                "fingerprint": entry.fingerprint,
                "n_features": entry.n_features,
                "surrogate_cached": self.surrogates.cached(entry.fingerprint),
            }
            for entry in self.registry.entries()
        }
        payload = {
            "status": "draining" if self._closed else "ok",
            "uptime_s": monotonic() - self._started_s,
            "inflight": self.admission.inflight,
            "models": models,
        }
        if self.slo is not None:
            slo_block = self.slo.view()
            slo_block["drift"] = self.drift.last()
            payload["slo"] = slo_block
        if self.ledger is not None:
            payload["ledger"] = {
                "path": str(self.ledger.root),
                "entries": len(self.ledger),
            }
        return _json_response(200, payload)

    def _predict(self, body, deadline: Deadline) -> Response:
        payload = self._parse_json(body)
        entry = self._entry_for(payload)
        X = self._rows_for(payload, entry)
        deadline.check("serve.predict")
        scores = self.batcher_for(entry.model_id).submit(
            X, timeout_s=deadline.remaining()
        )
        if self.drift is not None:
            self.drift.observe(entry.model_id, X.tolist(), scores.tolist())
        return _json_response(
            200,
            {
                "model": entry.model_id,
                "fingerprint": entry.fingerprint,
                "predictions": scores.tolist(),
            },
        )

    def _surrogate_for(self, entry: ModelEntry, deadline: Deadline):
        deadline.check("serve.explain")
        return self.surrogates.explanation_for(
            entry.model, entry.fingerprint, timeout_s=deadline.remaining()
        )

    # ------------------------------------------------------------------
    # SLO engine + fidelity drift (config.slo)
    # ------------------------------------------------------------------
    def surrogate_replay(self, model_id: str, rows: list) -> list | None:
        """Replay ``rows`` through the *cached* surrogate of ``model_id``.

        The drift monitor's ``predict_for`` callable: returns plain-float
        predictions, or ``None`` when the model is gone or its surrogate
        is not cached — it must never trigger a fit (a background monitor
        kicking off a multi-second GAM fit would be a self-inflicted
        latency incident).
        """
        try:
            entry = self.registry.get(str(model_id))
        except ModelNotFoundError:
            return None
        explanation = self.surrogates.peek(entry.fingerprint)
        if explanation is None:
            return None
        X = np.asarray(rows, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            return None
        mu = explanation.predict(X)
        return np.asarray(mu, dtype=np.float64).ravel().tolist()

    def slo_tick(self) -> str | None:
        """Run one SLO evaluation; returns the overall state (or None).

        Gathers the three stock signals — rolling forest–GAM fidelity
        from the drift monitor, p99 latency from the ``serve.latency_s``
        histogram (bucket-upper-bound estimate), and the error rate over
        the requests/errors counter deltas since the previous tick — and
        feeds them to the engine.  Driven by the CLI's SLO thread on a
        wall interval, or explicitly by tests on the synthetic clock.
        """
        if self.slo is None:
            return None
        drift = self.drift.evaluate(self.surrogate_replay)
        values: dict[str, float | None] = {
            "fidelity": drift["fidelity"],
            "p99_latency_s": None,
            "error_rate": None,
        }
        registry = get_metrics()
        snapshot = registry.snapshot() if registry is not None else None
        if snapshot is not None:
            hist = snapshot["histograms"].get("serve.latency_s")
            if hist:
                values["p99_latency_s"] = quantile_from_histogram(hist, 0.99)
            requests = float(snapshot["counters"].get("serve.requests", 0.0))
            errors = float(snapshot["counters"].get("serve.errors", 0.0))
            with self._slo_lock:
                prev_requests, prev_errors = self._slo_prev
                self._slo_prev = (requests, errors)
            delta_requests = requests - prev_requests
            if delta_requests > 0:
                values["error_rate"] = (
                    max(0.0, errors - prev_errors) / delta_requests
                )
        return self.slo.evaluate(values)

    def _gam_predict(self, body, deadline: Deadline) -> Response:
        payload = self._parse_json(body)
        entry = self._entry_for(payload)
        X = self._rows_for(payload, entry)
        explanation = self._surrogate_for(entry, deadline)
        with obs_span("serve.gam_predict", rows=int(X.shape[0])):
            mu = explanation.predict(X)
        return _json_response(
            200,
            {
                "model": entry.model_id,
                "fingerprint": entry.fingerprint,
                "predictions": np.asarray(mu, dtype=np.float64).tolist(),
                "source": "gam-surrogate",
            },
        )

    def _explain(self, body, deadline: Deadline) -> Response:
        payload = self._parse_json(body)
        entry = self._entry_for(payload)
        explanation = self._surrogate_for(entry, deadline)
        report = explanation.stage_report
        config_hash = explain_config_hash(explanation.config)
        result = {
            "model": entry.model_id,
            "fingerprint": entry.fingerprint,
            "config_hash": config_hash,
            "fidelity": dict(explanation.fidelity),
            "features": [
                explanation.feature_label(f) for f in explanation.features
            ],
            "pairs": [list(pair) for pair in explanation.pairs],
            "degraded": bool(report is not None and report.degraded),
            "fallbacks": list(report.fallbacks) if report is not None else [],
        }
        if self.ledger is not None:
            recorded = latest_surrogate(
                self.ledger, entry.fingerprint, config_hash
            )
            result["ledger_entry"] = (
                recorded.entry_id if recorded is not None else None
            )
        instance = payload.get("instance")
        if instance is not None:
            x = np.asarray(instance, dtype=np.float64).ravel()
            if x.shape[0] != entry.n_features:
                raise BadRequestError(
                    f"instance has {x.shape[0]} values, the model expects "
                    f"{entry.n_features}"
                )
            with obs_span("serve.local_explain"):
                local = explanation.local_explanation(x)
            top = payload.get("top")
            contributions = local.contributions
            if top is not None:
                contributions = contributions[: int(top)]
            result["local"] = {
                "intercept": local.intercept,
                "eta": local.eta,
                "prediction": local.prediction,
                "contributions": [
                    {
                        "label": c.label,
                        "features": list(c.features),
                        "value": np.asarray(c.value).tolist(),
                        "contribution": c.contribution,
                        "interval": list(c.interval),
                    }
                    for c in contributions
                ],
            }
        return _json_response(200, result)

    def _models_add(self, body) -> Response:
        payload = self._parse_json(body)
        model_id = payload.get("id")
        path = payload.get("path")
        if not model_id or not path:
            raise BadRequestError('payload needs "id" and "path"')
        try:
            entry = self.add_model(str(model_id), path)
        except (OSError, ValueError, KeyError) as exc:
            raise BadRequestError(
                f"cannot load model from {path!r}: {exc}"
            ) from exc
        return _json_response(
            200,
            {
                "id": entry.model_id,
                "fingerprint": entry.fingerprint,
                "models": self.registry.ids(),
            },
        )

    def _models_remove(self, model_id: str) -> Response:
        entry = self.remove_model(model_id)
        return _json_response(
            200, {"removed": entry.model_id, "models": self.registry.ids()}
        )

    # ------------------------------------------------------------------
    # versioning endpoints (config.ledger_path)
    # ------------------------------------------------------------------
    def _require_ledger(self) -> LedgerStore:
        if self.ledger is None:
            raise BadRequestError(
                "model versioning needs a ledger; start the server with a "
                "ledger path (repro serve --ledger DIR)"
            )
        return self.ledger

    def _models_get(self, path: str) -> Response:
        """Route ``GET /models/...``: the diff and versions endpoints."""
        route, _, query = path.partition("?")
        if route == "/models/diff":
            return self._models_diff(parse_qs(query))
        parts = route.strip("/").split("/")
        if len(parts) == 3 and parts[2] == "versions":
            return self._models_versions(parts[1])
        return _json_response(
            404, {"error": f"no endpoint GET {path}", "kind": "route"}
        )

    def _models_versions(self, model_id: str) -> Response:
        ledger = self._require_ledger()
        ledger.refresh()  # fold in other processes' appends
        entry = self.registry.get(model_id)
        versions = model_lineage(ledger, entry.model_id)
        surrogates = {}
        for version in versions:
            fingerprint = version["fingerprint"]
            surrogates[str(fingerprint)] = [
                {
                    "entry": e.entry_id,
                    "config_hash": e.payload.get("config_hash"),
                }
                for e in ledger.entries(kind="surrogate")
                if int(e.payload.get("fingerprint", -1)) == fingerprint
            ]
        return _json_response(
            200,
            {
                "model": entry.model_id,
                "fingerprint": entry.fingerprint,
                "versions": versions,
                "surrogates": surrogates,
            },
        )

    def _models_rollback(self, model_id: str, body) -> Response:
        """Roll a served model back to a ledgered version, under traffic.

        The target forest is rebuilt from the ledger (``"to"`` names a
        model entry id; default: the newest version whose fingerprint
        differs from the current one) and re-registered through
        :meth:`add_model` — exactly the hot-swap path, so a fleet swaps
        shared-memory segments with the unlink-while-mapped dance and
        never drops a request.
        """
        ledger = self._require_ledger()
        ledger.refresh()
        entry = self.registry.get(model_id)
        payload = self._parse_json(body) if body else {}
        to_ref = payload.get("to")
        if to_ref is not None:
            model_entry = ledger.get(str(to_ref))
            if model_entry.kind != "model":
                raise BadRequestError(
                    f'"to" must name a model entry; {model_entry.short_id} '
                    f"is a {model_entry.kind} entry"
                )
        else:
            model_entry = previous_model_entry(
                ledger, entry.model_id, entry.fingerprint
            )
        forest = forest_from_entry(model_entry)
        with obs_span(
            "ledger.rollback", model=entry.model_id,
            to=int(model_entry.payload["fingerprint"]),
        ):
            new_entry = self.add_model(entry.model_id, forest)
        try:
            record_event(
                ledger,
                "rollback",
                key=new_entry.model_id,
                data={
                    "fingerprint": new_entry.fingerprint,
                    "from_fingerprint": entry.fingerprint,
                    "model_entry": model_entry.entry_id,
                },
            )
        except LedgerError:
            metric_inc("ledger.write_errors")
        metric_inc("ledger.rollbacks")
        return _json_response(
            200,
            {
                "model": new_entry.model_id,
                "fingerprint": new_entry.fingerprint,
                "from_fingerprint": entry.fingerprint,
                "model_entry": model_entry.entry_id,
                "surrogate_cached": self.surrogates.cached(
                    new_entry.fingerprint
                ),
            },
        )

    def _models_diff(self, params: dict) -> Response:
        ledger = self._require_ledger()
        ledger.refresh()
        refs = {}
        for side in ("a", "b"):
            values = params.get(side) or []
            if len(values) != 1 or not values[0]:
                raise BadRequestError(
                    "diff needs exactly one ?a= and one ?b= surrogate "
                    "entry id"
                )
            refs[side] = values[0]
        a = ledger.get(refs["a"])
        b = ledger.get(refs["b"])
        try:
            report = diff_entries(a, b)
        except LedgerError as exc:
            raise BadRequestError(str(exc)) from exc
        return _json_response(200, report)
