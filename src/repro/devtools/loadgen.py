"""Deterministic closed-loop load generator for the serving subsystem.

``run_load`` drives a :class:`~repro.serve.app.ServeApp` with N
concurrent closed-loop clients (each sends its next request as soon as
the previous one answers).  Two transports share the exact same request
path:

* ``"inproc"`` — calls ``app.handle`` directly, measuring the serving
  stack (admission, batching, bitvector engine) without socket noise;
* ``"http"`` — real ``urllib`` requests against a started server.

Every client derives its rows from ``np.random.default_rng([seed, i])``,
so a given (seed, clients, requests, rows) configuration replays the
identical workload; latencies are measured on the pipeline clock
(:func:`repro.obs.trace.monotonic`).

``bench_serve`` packages the ISSUE benchmark: the same workload against
a micro-batching server and a ``max_batch=1`` baseline, emitting the
house ``BENCH_serve.json`` artifact (throughput, p50/p99 latency, shed
rate, batch-size histogram).  With ``fleet_workers`` it also drives
:class:`~repro.serve.fleet.FleetApp` targets — multi-process scaling
cells at workers=1/2/4 plus a failover cell that SIGKILLs a worker at a
deterministic mid-load point (``mid_load``) and pins zero lost requests.
``python -m repro.devtools.loadgen`` is the CI smoke entry point.
"""

from __future__ import annotations

import json
import platform
import threading
from pathlib import Path

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs.trace import monotonic

__all__ = [
    "bench_serve",
    "fleet_obs_smoke",
    "main",
    "rollback_smoke",
    "run_load",
    "validate_bench_serve",
]


def _http_post(url: str, payload: dict, timeout_s: float):
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return response.status
    except urllib.error.HTTPError as exc:
        return exc.code


class _MidLoadTrigger:
    """Fires a callback exactly once, at the Nth completed request.

    The failover benchmark uses this to SIGKILL a worker *mid-load*
    deterministically: the kill lands after a fixed number of completed
    requests, not after a wall-clock sleep, so the scenario replays
    identically on every run.
    """

    def __init__(self, at: int, callback):
        self._at = max(1, int(at))
        self._callback = callback
        self._lock = threading.Lock()
        self._count = 0
        self._fired = False

    def note(self) -> None:
        """Record one completed request; fire on the Nth."""
        with self._lock:
            self._count += 1
            fire = self._count == self._at and not self._fired
            if fire:
                self._fired = True
        if fire:
            self._callback()


class _Client:
    """One closed-loop client: pre-generated payloads, recorded outcomes."""

    def __init__(self, index, payloads, send, barrier, trigger=None):
        self.index = index
        self.payloads = payloads
        self.send = send
        self.barrier = barrier
        self.trigger = trigger
        self.latencies_s: list[float] = []
        self.statuses: list[int] = []
        self.thread = threading.Thread(
            target=self._run, name=f"repro-loadgen-{index}", daemon=True
        )

    def _run(self):
        self.barrier.wait()
        for payload in self.payloads:
            start = monotonic()
            try:
                status = self.send(payload)
            except Exception:  # repro: allow(broad-except) a transport fault is one failed request, not a dead client
                status = -1
            self.latencies_s.append(monotonic() - start)
            self.statuses.append(status)
            if self.trigger is not None:
                self.trigger.note()


def _batch_size_hist(before: dict, after: dict) -> dict[str, int]:
    """Per-bucket delta of the ``serve.batch_size`` histogram."""
    b = before.get("histograms", {}).get("serve.batch_size", {}).get("buckets", {})
    a = after.get("histograms", {}).get("serve.batch_size", {}).get("buckets", {})
    return {
        key: int(a.get(key, 0)) - int(b.get(key, 0))
        for key in sorted(set(a) | set(b))
        if a.get(key, 0) != b.get(key, 0)
    }


def run_load(
    target,
    *,
    model_id: str | None = None,
    clients: int = 16,
    requests_per_client: int = 25,
    rows_per_request: int = 4,
    n_features: int | None = None,
    seed: int = 0,
    transport: str = "inproc",
    timeout_s: float = 60.0,
    mid_load=None,
    mid_load_at: int | None = None,
) -> dict:
    """Drive ``target`` with a deterministic closed-loop workload.

    ``target`` is a :class:`~repro.serve.app.ServeApp` for the
    ``"inproc"`` transport or a base URL string for ``"http"`` (which
    then requires ``n_features``).  ``mid_load`` is an optional callback
    fired exactly once after ``mid_load_at`` completed requests (default:
    halfway) — the fleet failover benchmark uses it to kill a worker
    under load at a deterministic point.  Returns a JSON-ready result
    cell.
    """
    if transport not in ("inproc", "http"):
        raise ValueError(f"unknown transport {transport!r}")
    if transport == "inproc":
        app = target
        if model_id is None:
            ids = app.registry.ids()
            if len(ids) != 1:
                raise ValueError(f"pass model_id (registered: {ids})")
            model_id = ids[0]
        if n_features is None:
            n_features = app.registry.get(model_id).n_features

        def send(payload):
            return app.handle(
                "POST", "/predict", json.dumps(payload).encode("utf-8")
            ).status

    else:
        if n_features is None:
            raise ValueError("the http transport needs n_features")
        url = str(target).rstrip("/") + "/predict"

        def send(payload):
            return _http_post(url, payload, timeout_s)

    barrier = threading.Barrier(clients + 1)
    trigger = None
    if mid_load is not None:
        total_requests = clients * requests_per_client
        trigger = _MidLoadTrigger(
            mid_load_at if mid_load_at is not None else total_requests // 2,
            mid_load,
        )
    pool = []
    for i in range(clients):
        rng = np.random.default_rng([seed, i])
        payloads = [
            {
                "model": model_id,
                "rows": rng.standard_normal(
                    (rows_per_request, n_features)
                ).tolist(),
            }
            for _ in range(requests_per_client)
        ]
        pool.append(_Client(i, payloads, send, barrier, trigger))
    registry = obs_metrics.get_metrics()
    before = registry.snapshot() if registry is not None else {}
    for client in pool:
        client.thread.start()
    barrier.wait()
    started = monotonic()
    for client in pool:
        client.thread.join(timeout_s)
    seconds = monotonic() - started
    after = registry.snapshot() if registry is not None else {}

    statuses = [s for client in pool for s in client.statuses]
    latencies = np.asarray(
        [lat for client in pool for lat in client.latencies_s], dtype=float
    )
    ok = sum(1 for s in statuses if s == 200)
    shed = sum(1 for s in statuses if s == 429)
    errors = len(statuses) - ok - shed
    total = clients * requests_per_client
    return {
        "transport": transport,
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": rows_per_request,
        "seed": seed,
        "requests": total,
        "ok": ok,
        "shed": shed,
        "errors": errors,
        "seconds": round(float(seconds), 4),
        "requests_per_sec": round(ok / seconds, 1) if seconds > 0 else 0.0,
        "rows_per_sec": (
            round(ok * rows_per_request / seconds, 1) if seconds > 0 else 0.0
        ),
        "p50_ms": (
            round(float(np.percentile(latencies, 50)) * 1e3, 3)
            if latencies.size
            else None
        ),
        "p99_ms": (
            round(float(np.percentile(latencies, 99)) * 1e3, 3)
            if latencies.size
            else None
        ),
        "batch_size_hist": _batch_size_hist(before, after),
    }


# ----------------------------------------------------------------------
# the serve benchmark
# ----------------------------------------------------------------------
def _train_bench_forest(n_trees: int, n_features: int, seed: int):
    from ..forest import GradientBoostingRegressor

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((3_000, n_features))
    y = (
        X[:, 0] * 2
        + np.sin(3 * X[:, 1])
        + X[:, 2] * X[:, 3]
        + 0.1 * rng.standard_normal(3_000)
    )
    model = GradientBoostingRegressor(
        n_estimators=n_trees,
        num_leaves=31,
        learning_rate=0.1,
        random_state=seed,
    )
    model.fit(X, y)
    return model


def _fleet_parity_probe(app, model_id: str, n_features: int, seed: int) -> bool:
    """Whether fleet predictions are bitwise identical to local predict_raw.

    Routes one request through ``app.handle`` (the fleet dispatch path)
    and compares the JSON floats against the front end's own engine —
    the same buffers the workers map, so anything but exact equality is
    a transport or attach bug.
    """
    rng = np.random.default_rng([seed, 987])
    rows = rng.standard_normal((8, n_features))
    response = app.handle(
        "POST",
        "/predict",
        json.dumps({"model": model_id, "rows": rows.tolist()}).encode("utf-8"),
    )
    if response.status != 200:
        return False
    expected = app.registry.get(model_id).predict_raw(rows)
    return response.json()["predictions"] == expected.tolist()


def _bench_fleet_cells(
    model,
    *,
    fleet_workers,
    failover: bool,
    clients: int,
    requests_per_client: int,
    rows_per_request: int,
    seed: int,
) -> list[dict]:
    """Multi-process scaling cells (workers=N) plus the failover cell."""
    from ..serve import FleetApp, FleetConfig, ServeConfig
    from .faultinject import kill_worker

    def build(workers: int) -> "FleetApp":
        app = FleetApp(
            ServeConfig(
                max_batch=2 * clients,
                batch_delay_s=0.001,
                queue_limit=max(256, 4 * clients * requests_per_client),
            ),
            FleetConfig(workers=workers, replication=workers),
        )
        app.add_model("bench", model)
        app.start_fleet()
        return app

    cells = []
    for workers in fleet_workers:
        app = build(int(workers))
        try:
            run_load(
                app,
                clients=clients,
                requests_per_client=2,
                rows_per_request=rows_per_request,
                seed=seed + 1,
            )
            cell = run_load(
                app,
                clients=clients,
                requests_per_client=requests_per_client,
                rows_per_request=rows_per_request,
                seed=seed,
            )
            cell["name"] = f"fleet_w{workers}"
            cell["workers"] = int(workers)
            cell["identical"] = _fleet_parity_probe(
                app, "bench", model.n_features_, seed
            )
        finally:
            app.close(drain=True)
        cells.append(cell)
    baseline = next((c for c in cells if c["name"] == "fleet_w1"), None)
    for cell in cells:
        cell["speedup_vs_workers1"] = (
            round(cell["rows_per_sec"] / baseline["rows_per_sec"], 2)
            if baseline is not None and baseline["rows_per_sec"]
            else None
        )
    if failover:
        app = build(2)
        try:
            cell = run_load(
                app,
                clients=clients,
                requests_per_client=requests_per_client,
                rows_per_request=rows_per_request,
                seed=seed,
                mid_load=lambda: kill_worker(app.fleet, "w0"),
            )
            cell["name"] = "fleet_failover"
            cell["workers"] = 2
            cell["killed_worker"] = "w0"
            # Zero-lost accounting: anything that is neither a 200 nor an
            # admission-controller shed was lost to the crash.
            cell["lost"] = cell["errors"]
            cell["identical"] = _fleet_parity_probe(
                app, "bench", model.n_features_, seed
            )
            cell["speedup_vs_workers1"] = None
        finally:
            app.close(drain=True)
        cells.append(cell)
    return cells


def bench_serve(
    *,
    clients: int = 16,
    requests_per_client: int = 25,
    rows_per_request: int = 4,
    n_trees: int = 200,
    n_features: int = 12,
    seed: int = 0,
    fleet_workers=(),
    fleet_failover: bool = False,
) -> dict:
    """Micro-batching vs batch-size-1 on the identical closed-loop workload.

    Returns the house-format ``BENCH_serve.json`` artifact.  The two
    configurations differ only in ``max_batch``; the forest, the clients
    and every generated row are the same, so the throughput ratio
    isolates request coalescing.

    ``fleet_workers`` adds one multi-process cell per entry (e.g.
    ``(1, 2, 4)``), each a :class:`~repro.serve.fleet.FleetApp` with that
    many workers and full replication, reporting ``rows_per_sec`` and
    ``speedup_vs_workers1``; ``fleet_failover`` adds a cell that SIGKILLs
    a worker mid-load and pins ``lost`` (requests neither answered nor
    shed).  The artifact records ``cpu_count`` so the validator can gate
    the ≥2x-at-4-workers assertion on hosts that can physically show it.
    """
    import os

    from ..serve import ServeApp, ServeConfig

    model = _train_bench_forest(n_trees, n_features, seed)
    had_metrics = obs_metrics.get_metrics() is not None
    if not had_metrics:
        obs_metrics.enable_metrics()
    cells = []
    try:
        for name, max_batch in (("batch1", 1), ("microbatch", 2 * clients)):
            app = ServeApp(
                ServeConfig(
                    max_batch=max_batch,
                    batch_delay_s=0.001,
                    queue_limit=max(256, 4 * clients * requests_per_client),
                )
            )
            app.add_model("bench", model)
            # One throwaway round warms the engine and the JSON
            # path so neither cell pays first-call costs.
            run_load(
                app,
                clients=clients,
                requests_per_client=2,
                rows_per_request=rows_per_request,
                seed=seed + 1,
            )
            cell = run_load(
                app,
                clients=clients,
                requests_per_client=requests_per_client,
                rows_per_request=rows_per_request,
                seed=seed,
            )
            cell["name"] = name
            cell["max_batch"] = max_batch
            cells.append(cell)
            app.close(drain=True)
    finally:
        if not had_metrics:
            obs_metrics.disable_metrics()
    baseline = next(c for c in cells if c["name"] == "batch1")
    for cell in cells:
        cell["speedup_vs_batch1"] = (
            round(cell["requests_per_sec"] / baseline["requests_per_sec"], 2)
            if baseline["requests_per_sec"]
            else None
        )
    if fleet_workers or fleet_failover:
        had_metrics = obs_metrics.get_metrics() is not None
        if not had_metrics:
            obs_metrics.enable_metrics()
        try:
            cells.extend(
                _bench_fleet_cells(
                    model,
                    fleet_workers=tuple(fleet_workers),
                    failover=fleet_failover,
                    clients=clients,
                    requests_per_client=requests_per_client,
                    rows_per_request=rows_per_request,
                    seed=seed,
                )
            )
        finally:
            if not had_metrics:
                obs_metrics.disable_metrics()
    return {
        "benchmark": "serve",
        "forest": {
            "n_trees": n_trees,
            "num_leaves": 31,
            "n_features": n_features,
            "seed": seed,
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cells": cells,
    }


_CELL_REQUIRED = (
    "name",
    "max_batch",
    "transport",
    "clients",
    "requests",
    "ok",
    "shed",
    "errors",
    "seconds",
    "requests_per_sec",
    "p50_ms",
    "p99_ms",
    "batch_size_hist",
    "speedup_vs_batch1",
)

_FLEET_CELL_REQUIRED = (
    "name",
    "workers",
    "transport",
    "clients",
    "requests",
    "ok",
    "shed",
    "errors",
    "seconds",
    "requests_per_sec",
    "rows_per_sec",
    "p50_ms",
    "p99_ms",
    "identical",
    "speedup_vs_workers1",
)

#: Minimum host cores for the fleet-scaling assertion to be physically
#: meaningful: 4 worker processes cannot beat 1 by 2x on fewer cores.
_FLEET_SPEEDUP_MIN_CPUS = 4


def _validate_fleet_cell(cell: dict, cpu_count) -> None:
    for key in _FLEET_CELL_REQUIRED:
        if key not in cell:
            raise ValueError(f"fleet cell missing key {key!r}: {cell}")
    if cell["identical"] is not True:
        raise ValueError(
            f"fleet cell {cell['name']!r} responses are not bitwise "
            f"identical to single-process predict_raw"
        )
    if cell["name"] == "fleet_failover":
        for key in ("killed_worker", "lost"):
            if key not in cell:
                raise ValueError(f"failover cell missing key {key!r}")
        if cell["lost"] != 0:
            raise ValueError(
                f"failover cell lost {cell['lost']} in-flight requests "
                f"beyond the shed count"
            )
    elif (
        cell["name"] == "fleet_w4"
        and isinstance(cpu_count, int)
        and cpu_count >= _FLEET_SPEEDUP_MIN_CPUS
    ):
        speedup = cell["speedup_vs_workers1"]
        if speedup is None or speedup < 2.0:
            raise ValueError(
                f"fleet_w4 speedup_vs_workers1 is {speedup}, expected >= "
                f"2.0 on a {cpu_count}-core host"
            )


def validate_bench_serve(payload: dict) -> int:
    """Schema check for ``BENCH_serve.json``; returns the cell count.

    Raises ``ValueError`` on the first violation — the CI gate that keeps
    the artifact machine-readable across refactors.  Fleet cells
    (``fleet_w<N>`` / ``fleet_failover``) carry their own schema: the
    parity flag must assert bitwise-identical responses, the failover
    cell must report zero lost requests, and — on hosts recording
    ``cpu_count >= 4`` — ``fleet_w4`` must show ≥2x rows/sec over
    ``fleet_w1`` (a 1-core CI runner cannot physically show the scaling,
    so the gate keys on the recorded host shape, not on hope).
    """
    if payload.get("benchmark") != "serve":
        raise ValueError("benchmark key must be 'serve'")
    for key in ("forest", "python", "numpy", "cells"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    cells = payload["cells"]
    if not isinstance(cells, list) or not cells:
        raise ValueError("cells must be a non-empty list")
    names = set()
    for cell in cells:
        if str(cell.get("name", "")).startswith("fleet_"):
            if "cpu_count" not in payload:
                raise ValueError(
                    "artifacts with fleet cells must record cpu_count"
                )
            _validate_fleet_cell(cell, payload["cpu_count"])
        else:
            for key in _CELL_REQUIRED:
                if key not in cell:
                    raise ValueError(f"cell missing key {key!r}: {cell}")
            if not isinstance(cell["batch_size_hist"], dict):
                raise ValueError("batch_size_hist must be a dict")
        if cell["ok"] + cell["shed"] + cell["errors"] != cell["requests"]:
            raise ValueError(f"cell outcomes do not sum to requests: {cell}")
        names.add(cell["name"])
    if "batch1" not in names:
        raise ValueError("cells must include the 'batch1' baseline")
    return len(cells)


def fleet_obs_smoke(
    *,
    workers: int = 4,
    clients: int = 8,
    requests_per_client: int = 6,
    rows_per_request: int = 4,
    n_trees: int = 50,
    n_features: int = 8,
    seed: int = 0,
) -> dict:
    """Fleet observability acceptance smoke: counter parity + schemas.

    Runs the identical deterministic request stream twice — once against
    a single-process :class:`~repro.serve.app.ServeApp`, once against a
    fully-replicated ``workers``-process fleet — each on a fresh metrics
    registry, and checks that the *fleet-aggregated* worker counters
    exactly equal the single-process totals (``predict.rows``,
    ``serve.requests.predict``, and the ``serve.batch_rows`` histogram
    sum; bucket shapes legitimately differ with flush boundaries, row
    totals cannot).  The fleet run also exports a merged multi-process
    trace validated against the Chrome schema and a ``/metrics`` body
    validated against the Prometheus schema.  Returns a JSON-ready
    report with an overall ``ok`` flag.
    """
    from ..obs.trace import (
        disable_tracing,
        enable_tracing,
        validate_chrome_trace,
    )
    from ..serve import FleetApp, FleetConfig, ServeApp, ServeConfig

    model = _train_bench_forest(n_trees, n_features, seed)
    serve_config = dict(
        max_batch=2 * clients,
        batch_delay_s=0.001,
        queue_limit=max(256, 4 * clients * requests_per_client),
    )

    def workload(app):
        return run_load(
            app,
            clients=clients,
            requests_per_client=requests_per_client,
            rows_per_request=rows_per_request,
            seed=seed,
        )

    def predict_totals(snapshot: dict) -> dict:
        counters = snapshot.get("counters", {})
        hist = snapshot.get("histograms", {}).get("serve.batch_rows", {})
        return {
            "predict.rows": float(counters.get("predict.rows", 0.0)),
            "serve.requests.predict": float(
                counters.get("serve.requests.predict", 0.0)
            ),
            "serve.batch_rows.sum": float(hist.get("sum") or 0.0),
        }

    obs_metrics.disable_metrics()
    obs_metrics.enable_metrics()
    try:
        app = ServeApp(ServeConfig(**serve_config))
        app.add_model("smoke", model)
        try:
            single_cell = workload(app)
        finally:
            app.close(drain=True)
        single = predict_totals(obs_metrics.get_metrics().snapshot())
    finally:
        obs_metrics.disable_metrics()

    obs_metrics.enable_metrics()
    enable_tracing()
    try:
        fleet_app = FleetApp(
            ServeConfig(**serve_config),
            FleetConfig(workers=workers, replication=workers),
        )
        fleet_app.add_model("smoke", model)
        fleet_app.start_fleet()
        try:
            fleet_cell = workload(fleet_app)
            answered = fleet_app.fleet.sync_obs()
            fleet = predict_totals(
                fleet_app.fleet.aggregator.fleet_snapshot()
            )
            prom_samples = obs_metrics.validate_prometheus_text(
                fleet_app._metrics_text()
            )
            trace = fleet_app.fleet.merged_trace()
            trace_events = validate_chrome_trace(trace)
            lane_pids = sorted(
                {e["pid"] for e in trace["traceEvents"]}
            )
        finally:
            fleet_app.close(drain=True)
    finally:
        disable_tracing()
        obs_metrics.disable_metrics()

    mismatched = sorted(k for k in single if fleet.get(k) != single[k])
    report = {
        "workers": workers,
        "requests": clients * requests_per_client,
        "single_ok": single_cell["ok"],
        "fleet_ok": fleet_cell["ok"],
        "single_totals": single,
        "fleet_totals": fleet,
        "mismatched_counters": mismatched,
        "workers_answering_obs": answered,
        "prometheus_samples": prom_samples,
        "trace_events": trace_events,
        "trace_pids": lane_pids,
        "ok": (
            not mismatched
            and single_cell["ok"] == single_cell["requests"]
            and fleet_cell["ok"] == fleet_cell["requests"]
            and answered == workers
            # one lane per worker plus the front end's pid-1 lane
            and len(lane_pids) >= workers + 1
        ),
    }
    return report


def rollback_smoke(
    *,
    workers: int = 0,
    clients: int = 8,
    requests_per_client: int = 30,
    rows_per_request: int = 4,
    n_trees: int = 40,
    n_features: int = 8,
    seed: int = 0,
    ledger_dir=None,
) -> dict:
    """Rollback-under-traffic acceptance smoke: lost=0, bitwise v1.

    Registers v1, hot-swaps to v2, then — at a deterministic mid-load
    point of the closed-loop predict stream — POSTs
    ``/models/bench/rollback`` so the ledger rebuilds v1 and re-registers
    it through the hot-swap path while clients keep hammering
    ``/predict``.  Asserts the whole load completed with zero lost
    requests and that post-rollback responses are bitwise identical to
    v1's own ``predict_raw``.  ``workers > 0`` runs the same scenario
    against a fleet, where the swap is the unlink-while-mapped
    shared-memory dance.  Returns a JSON-ready cell with a ``passed``
    verdict.
    """
    import tempfile

    from ..serve import FleetApp, FleetConfig, ServeApp, ServeConfig

    v1 = _train_bench_forest(n_trees, n_features, seed + 101)
    v2 = _train_bench_forest(n_trees + 10, n_features, seed + 202)
    had_metrics = obs_metrics.get_metrics() is not None
    if not had_metrics:
        obs_metrics.enable_metrics()
    tmp = None
    if ledger_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-ledger-smoke-")
        ledger_dir = tmp.name
    rollback_result: dict = {}
    try:
        config = ServeConfig(
            max_batch=2 * clients,
            batch_delay_s=0.001,
            queue_limit=max(256, 4 * clients * requests_per_client),
            ledger_path=ledger_dir,
        )
        if workers > 0:
            app = FleetApp(
                config, FleetConfig(workers=workers, replication=workers)
            )
        else:
            app = ServeApp(config)
        app.add_model("bench", v1)
        app.add_model("bench", v2)
        if workers > 0:
            app.start_fleet()
        try:

            def fire_rollback():
                response = app.handle("POST", "/models/bench/rollback", b"")
                rollback_result["status"] = response.status
                if response.status == 200:
                    rollback_result.update(response.json())

            cell = run_load(
                app,
                clients=clients,
                requests_per_client=requests_per_client,
                rows_per_request=rows_per_request,
                seed=seed,
                mid_load=fire_rollback,
            )
            entry = app.registry.get("bench")
            rng = np.random.default_rng([seed, 991])
            rows = rng.standard_normal((8, n_features))
            probe = app.handle(
                "POST",
                "/predict",
                json.dumps({"model": "bench", "rows": rows.tolist()}).encode(
                    "utf-8"
                ),
            )
            identical = (
                probe.status == 200
                and probe.json()["predictions"] == v1.predict_raw(rows).tolist()
            )
        finally:
            app.close(drain=True)
    finally:
        if not had_metrics:
            obs_metrics.disable_metrics()
        if tmp is not None:
            tmp.cleanup()
    from ..forest import forest_fingerprint

    cell["name"] = "rollback_under_load"
    cell["workers"] = workers
    cell["rollback_status"] = rollback_result.get("status")
    cell["fingerprint_restored"] = entry.fingerprint == forest_fingerprint(v1)
    cell["identical"] = identical
    cell["lost"] = cell["errors"]
    # "ok" is the answered-request count; the verdict gets its own key.
    cell["passed"] = (
        cell["rollback_status"] == 200
        and cell["lost"] == 0
        and cell["ok"] + cell["shed"] == cell["requests"]
        and cell["fingerprint_restored"]
        and cell["identical"]
    )
    return cell


def main(argv: list[str] | None = None) -> int:
    """CI smoke: run the serve benchmark, write and validate the artifact."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.loadgen",
        description="closed-loop load generator / serve benchmark",
    )
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--requests", type=int, default=25)
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--trees", type=int, default=200)
    parser.add_argument(
        "--fleet-workers",
        default="",
        help="comma-separated worker counts for fleet cells, e.g. 1,2,4",
    )
    parser.add_argument(
        "--fleet-failover",
        action="store_true",
        help="add the kill-a-worker-mid-load failover cell",
    )
    parser.add_argument(
        "--rollback-smoke",
        action="store_true",
        help="run the ledger rollback-under-load smoke (lost=0, bitwise "
        "v1 responses) instead of the benchmark; --fleet-workers N runs "
        "it against a fleet",
    )
    parser.add_argument(
        "--obs-smoke",
        type=int,
        default=0,
        metavar="WORKERS",
        help="run the fleet observability smoke (counter parity, merged "
        "trace + /metrics schemas) with this many workers instead of the "
        "benchmark",
    )
    parser.add_argument("--out", type=Path, default=Path("BENCH_serve.json"))
    args = parser.parse_args(argv)

    if args.rollback_smoke:
        fleet_workers = tuple(
            int(w) for w in args.fleet_workers.split(",") if w.strip()
        )
        cell = rollback_smoke(
            workers=fleet_workers[0] if fleet_workers else 0,
            clients=args.clients,
            requests_per_client=args.requests,
            rows_per_request=args.rows,
            n_trees=args.trees,
        )
        print(json.dumps(cell, indent=2))
        if not cell["passed"]:
            print("FAIL rollback-under-load smoke")
            return 1
        print(
            f"ok: rollback under load (workers={cell['workers']}) answered "
            f"{cell['ok']}/{cell['requests']} with lost={cell['lost']}, "
            f"responses bitwise identical to the rolled-back version"
        )
        return 0

    if args.obs_smoke:
        report = fleet_obs_smoke(
            workers=args.obs_smoke,
            clients=args.clients,
            requests_per_client=args.requests,
            rows_per_request=args.rows,
            n_trees=args.trees,
        )
        print(json.dumps(report, indent=2))
        if not report["ok"]:
            print("FAIL fleet observability smoke")
            return 1
        print(
            f"ok: {report['workers']} workers, counters exactly equal "
            f"({report['fleet_totals']}), {report['trace_events']} trace "
            f"events across pids {report['trace_pids']}, "
            f"{report['prometheus_samples']} prometheus samples"
        )
        return 0

    fleet_workers = tuple(
        int(w) for w in args.fleet_workers.split(",") if w.strip()
    )
    artifact = bench_serve(
        clients=args.clients,
        requests_per_client=args.requests,
        rows_per_request=args.rows,
        n_trees=args.trees,
        fleet_workers=fleet_workers,
        fleet_failover=args.fleet_failover,
    )
    validate_bench_serve(artifact)
    args.out.write_text(json.dumps(artifact, indent=2) + "\n")
    failures = []
    for cell in artifact["cells"]:
        if str(cell["name"]).startswith("fleet_"):
            extra = (
                f"lost={cell['lost']}"
                if cell["name"] == "fleet_failover"
                else f"speedup {cell['speedup_vs_workers1']}x"
            )
            print(
                f"{cell['name']:>14}: {cell['rows_per_sec']:>8.1f} rows/s  "
                f"p50 {cell['p50_ms']:.2f}ms  p99 {cell['p99_ms']:.2f}ms  "
                f"ok={cell['ok']} shed={cell['shed']} "
                f"errors={cell['errors']}  identical={cell['identical']}  "
                f"{extra}"
            )
        else:
            print(
                f"{cell['name']:>14}: {cell['requests_per_sec']:>8.1f} req/s  "
                f"p50 {cell['p50_ms']:.2f}ms  p99 {cell['p99_ms']:.2f}ms  "
                f"ok={cell['ok']} shed={cell['shed']} "
                f"errors={cell['errors']}  "
                f"speedup {cell['speedup_vs_batch1']}x"
            )
        if cell["requests_per_sec"] <= 0:
            failures.append(f"{cell['name']}: zero throughput")
        if cell["name"] == "fleet_failover":
            if cell["lost"]:
                failures.append(
                    f"fleet_failover: {cell['lost']} lost in-flight requests"
                )
        elif cell["errors"]:
            failures.append(f"{cell['name']}: {cell['errors']} errors")
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
