"""The benchmark's four workloads: inputs, set-up, timed loop, output checks.

Each workload runs in its own spawned process (see ``run.py``).  It first
trains its forest with seed 0, untimed.  Everything the program receives
after that — rows, instances and explain seeds — is drawn from the
workload seed.  Set-up then runs ``SETUP_REPS`` times from a cold engine,
and the timed loop runs for the given number of seconds.  The result
carries the end-to-end values, keyed by the metric names in
``BENCHMARK.json``, and every failed output check.

Every time that feeds an end-to-end metric is divided by the host's
slowdown, measured with :class:`hostspeed.HostSpeed` just before and just
after the timed work on the CPUs that ran it, so it reads as the time at
the reference speed.  The raw times are kept as diagnostics.  The explain
workloads run single-threaded (``run.py`` gives BLAS one thread) and pin
their process to one CPU, so the work and the speed measurement share a
CPU; the serve workloads use every CPU and average the slowdown over them.

Each workload has one primary operation, whose CPU time is reported as
``cpu_ms_per_op``:

- ``explain_spline`` and ``explain_tensor_logit``: one ``GEF.explain``
  call, each with a fresh ``random_state``; the median over the explains
  of the run.  Single-threaded, an explain's CPU time is its wall time;
- ``serve_inproc`` and ``serve_fleet``: one request of the closed loop
  that two clients drive; the CPU time of the process, and of the fleet
  workers, over the whole loop, divided by the requests it answered.  A
  request's latency is mostly the batcher's 2 ms flush delay, a wait that
  does not scale with the host's speed, so latency is kept as a
  diagnostic and the CPU a request costs is the gated number.

``gam_predict_ms.p50`` and ``explain_local_ms.p50`` time evaluating a
fitted surrogate on new rows (``GEFExplanation.predict``) and one local
explanation (``GEFExplanation.local_explanation``): in the explain
workloads on each fresh explanation, in the serve workloads on the served
surrogate once the closed loop is over and the app closed, from one
thread pinned to one CPU.  What the ``/gam/predict`` and ``/explain``
endpoints add around those calls is part of ``serve_inproc``'s request
mix.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed, slowdown
from repro.core import GEF, GEFConfig
from repro.datasets import load_census, make_d_prime
from repro.forest import GradientBoostingClassifier, GradientBoostingRegressor
from repro.forest.engines import invalidate_model_caches
from repro.obs import enable_metrics, get_metrics
from repro.serve import FleetApp, FleetConfig, ServeApp, ServeConfig

EXPLAIN_WORKLOADS = ("explain_spline", "explain_tensor_logit")

#: Set-ups per process; ``setup_s`` is their median.
SETUP_REPS = 3

#: Minimum R² on the held-out part of D* (explain workloads) or of the
#: served surrogate (serve workloads).  A sanity floor that catches a
#: broken fit, not a regression bound; it holds in ``--quick`` mode too.
FIDELITY_FLOOR = {
    "explain_spline": 0.85,
    "explain_tensor_logit": 0.45,
    "serve_inproc": 0.75,
    "serve_fleet": 0.75,
}

#: Surrogate probes after each timed explain: ``GAM_PROBES`` predict
#: calls on 1 or 16 rows and ``LOCAL_PROBES`` local explanations.
GAM_PROBES = 8
LOCAL_PROBES = 4

#: Rows per ``/predict`` request and per ``/gam/predict`` request.
PREDICT_ROWS = (1, 4, 16, 64)
GAM_ROWS = (1, 16)

#: Requests of each client's stream, per endpoint.  Every row count of
#: an endpoint gets the same share, so the seed changes the order and the
#: values of the requests but not how much work the stream holds.
#: serve_fleet is predict-only: the fleet's front end answers the other
#: two endpoints exactly as serve_inproc does.
STREAMS = {
    "serve_inproc": {"/predict": 280, "/gam/predict": 80, "/explain": 40},
    "serve_fleet": {"/predict": 400},
}

#: Share of ``--seconds`` spent on the surrogate probes of a serve
#: workload, and the number of segments the closed loop is cut into so
#: that the host's speed is measured between them.
PROBE_SHARE = 0.2
SEGMENTS = 20

CLIENTS = 2
MODEL_ID = "bench"
SERVE_FEATURES = 12

#: Every ``k``-th reply of each client is checked: /predict bitwise
#: against ``forest.predict_raw``, /gam/predict bitwise against
#: ``GEFExplanation.predict``.  Checking every reply would add seconds
#: to each run.
CHECK_EVERY = 16

_CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _derive(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the workload seed and a fixed path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _slowdown_summary(slowdowns: dict[str, list]) -> dict[str, float]:
    out = {}
    for key, values in slowdowns.items():
        out[f"slowdown.{key}.median"] = _median(values)
        out[f"slowdown.{key}.max"] = max(values)
    return out


def peak_rss_mb(pids=()) -> float:
    """Summed peak resident set (VmHWM) of this process and ``pids``."""
    total_kb = 0
    for pid in ("self", *pids):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def cpu_seconds(pids=()) -> float:
    """CPU time of this process (all threads) plus that of ``pids``."""
    total = time.process_time()
    for pid in pids:
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) * _CLOCK_TICK_S
    return total


class Checks:
    """Counts attempted operations and failed output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def expect(self, ok: bool, message: str, count: int = 1) -> None:
        if not ok:
            self.failed += count
            self.failures.append(message)

    def explanation(self, explanation, floor: float, what: str) -> None:
        report = explanation.stage_report
        self.expect(
            report is not None and not report.degraded,
            f"{what}: degraded explanation ({report and report.fallbacks})",
        )
        r2 = float(explanation.fidelity["r2"])
        self.expect(r2 >= floor, f"{what}: fidelity R² {r2:.4f} < {floor}")


# ----------------------------------------------------------------------
# forests (trained with seed 0, untimed)
# ----------------------------------------------------------------------
def _train(name: str, quick: bool):
    """``(rows the probes draw from, fitted forest)`` for a workload."""
    trees = 20 if quick else None
    if name == "explain_spline":
        data = make_d_prime(n=2_000 if quick else 10_000, seed=0)
        forest = GradientBoostingRegressor(
            n_estimators=trees or 200, num_leaves=32, learning_rate=0.05,
            random_state=0,
        )
        return data.X_test, forest.fit(data.X_train, data.y_train)
    if name == "explain_tensor_logit":
        data = load_census(n=2_000 if quick else 12_000, seed=0)
        forest = GradientBoostingClassifier(
            n_estimators=trees or 120, num_leaves=32, learning_rate=0.1,
            random_state=0,
        )
        return data.X_test, forest.fit(data.X_train, data.y_train)
    # The serve forest follows the repro.devtools.loadgen recipe
    # (200 trees x 31 leaves, 12 features) but is built here, so a change
    # to the load generator cannot silently change the benchmark's input.
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3_000, SERVE_FEATURES))
    y = (
        2 * X[:, 0] + np.sin(3 * X[:, 1]) + X[:, 2] * X[:, 3]
        + 0.1 * rng.standard_normal(3_000)
    )
    forest = GradientBoostingRegressor(
        n_estimators=trees or 200, num_leaves=31, learning_rate=0.1,
        random_state=0,
    )
    return None, forest.fit(X, y)


def _explain_config(name: str, quick: bool, random_state: int) -> GEFConfig:
    if name == "explain_spline":
        return GEFConfig(
            n_univariate=5,
            n_interactions=0,
            n_samples=2_000 if quick else 20_000,
            k_points=50 if quick else 200,
            random_state=random_state,
        )
    return GEFConfig(
        n_univariate=5,
        n_interactions=1,
        interaction_strategy="gain-path",
        n_samples=1_000 if quick else 5_000,
        k_points=32 if quick else 64,
        random_state=random_state,
    )


def _serve_config(quick: bool) -> ServeConfig:
    """The ``repro serve`` CLI defaults, spelled out."""
    return ServeConfig(
        max_batch=32,
        batch_delay_s=0.002,
        queue_limit=256,
        request_timeout_s=30.0,
        surrogate_capacity=4,
        gef=GEFConfig(
            n_univariate=5,
            n_interactions=0,
            sampling_strategy="equi-size",
            k_points=50 if quick else 200,
            n_samples=2_000 if quick else 20_000,
            random_state=0,
        ),
    )


# ----------------------------------------------------------------------
# surrogate probes (both kinds of workload)
# ----------------------------------------------------------------------
def _probe_surrogate(surrogate, rows, rng, checks, what):
    """``GAM_PROBES`` predictions on 1 or 16 rows and ``LOCAL_PROBES``
    local explanations; returns their seconds, ``(predict, local)``."""
    gam, local = [], []
    for _ in range(GAM_PROBES):
        X = rows[rng.choice(len(rows), rng.choice(GAM_ROWS))]
        t0 = time.perf_counter()
        surrogate.predict(X)
        gam.append(time.perf_counter() - t0)
    for _ in range(LOCAL_PROBES):
        x = rows[rng.integers(len(rows))]
        t0 = time.perf_counter()
        breakdown = surrogate.local_explanation(x)
        local.append(time.perf_counter() - t0)
        # The break-down must add up to the surrogate's prediction.
        expected = float(surrogate.predict(x[None, :])[0])
        checks.expect(
            abs(breakdown.prediction - expected) <= 1e-9 * (1 + abs(expected)),
            f"{what}: local prediction {breakdown.prediction!r} != "
            f"surrogate prediction {expected!r}",
        )
    checks.op(GAM_PROBES + LOCAL_PROBES)
    return gam, local


# ----------------------------------------------------------------------
# explain workloads
# ----------------------------------------------------------------------
def run_explain(name, *, seed, seconds, quick, reps, probe=None):
    """Sequential ``GEF.explain`` calls, each with a fresh random_state.

    Returns ``(result, checks)``.
    """
    # One CPU for the whole run: the explains and the speed measurements
    # then run on the same CPU.
    cpus = [min(os.sched_getaffinity(0))]
    os.sched_setaffinity(0, cpus)
    rows, forest = _train(name, quick)
    floor = FIDELITY_FLOOR[name]
    rng = np.random.default_rng([seed, 1])
    checks = Checks()
    speed = HostSpeed()
    r2 = []

    setup_raw, setup_s = [], []
    for rep in range(reps):
        invalidate_model_caches(forest)
        cold_rows = rows[rng.choice(len(rows), 256)]
        before = speed.measure(cpus)
        start = time.perf_counter()
        forest.predict_raw(cold_rows)  # encodes the engine
        config = _explain_config(name, quick, _derive(seed, 2, rep))
        warm = GEF(config).explain(forest)
        setup_raw.append(time.perf_counter() - start)
        bulk = slowdown("bulk", before, speed.measure(cpus))
        setup_s.append(setup_raw[-1] / bulk)
        checks.op()
        checks.explanation(warm, floor, f"set-up explain {rep}")
        r2.append(float(warm.fidelity["r2"]))

    cpu_ms, wall_ms, gam_ms, local_ms = [], [], [], []
    slowdowns = {"bulk": [], "calls": []}
    if probe is not None:
        probe.start_timed()
    start = time.perf_counter()
    deadline = start + seconds
    mark = speed.measure(cpus)
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        config = _explain_config(name, quick, _derive(seed, 3, i))
        c0, t0 = time.process_time(), time.perf_counter()
        explanation = GEF(config).explain(forest)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        after_explain = speed.measure(cpus)
        checks.op()
        checks.explanation(explanation, floor, f"explain {i}")
        r2.append(float(explanation.fidelity["r2"]))
        gam, local = _probe_surrogate(
            explanation, rows, rng, checks, f"explain {i}"
        )
        mark_next = speed.measure(cpus)
        bulk = slowdown("bulk", mark, after_explain)
        calls = slowdown("calls", after_explain, mark_next)
        mark = mark_next
        slowdowns["bulk"].append(bulk)
        slowdowns["calls"].append(calls)
        wall_ms.append(wall * 1e3)
        cpu_ms.append(cpu * 1e3 / bulk)
        gam_ms += [t * 1e3 / calls for t in gam]
        local_ms += [t * 1e3 / calls for t in local]
        i += 1
    loop_s = time.perf_counter() - start
    if probe is not None:
        probe.stop_timed()

    result = {
        "end_to_end": {
            "setup_s": _median(setup_s),
            "cpu_ms_per_op": _median(cpu_ms),
            "gam_predict_ms.p50": _median(gam_ms),
            "explain_local_ms.p50": _median(local_ms),
            "fidelity_r2": _median(r2),
            "peak_rss_mb": peak_rss_mb(),
        },
        "diagnostics": {
            "explains": len(cpu_ms),
            **_slowdown_summary(slowdowns),
            "raw.latency_ms.p50": _p(wall_ms, 50),
            "raw.latency_ms.p90": _p(wall_ms, 90),
            "raw.latency_ms.max": max(wall_ms),
            "raw.ops_per_s": len(wall_ms) / loop_s,
            "gam_predict_ms.p90": _p(gam_ms, 90),
            "explain_local_ms.p90": _p(local_ms, 90),
            "raw.setup_s": setup_raw,
            "setup_s.all": setup_s,
            "loop_s": loop_s,
        },
    }
    if probe is not None:
        result["per_layer"], result["trace"] = probe.collect(
            ops=len(cpu_ms),
            latency_ms_p50=_p(wall_ms, 50),
            setups=reps,
        )
    return result, checks


# ----------------------------------------------------------------------
# serve workloads
# ----------------------------------------------------------------------
def _request(rng, path: str, n_rows: int) -> bytes:
    """One JSON request body for ``path``, drawn from ``rng``."""
    if path == "/explain":
        instance = rng.standard_normal(SERVE_FEATURES).tolist()
        body = {"instance": instance, "top": 5}
    else:
        rows = rng.standard_normal((n_rows, SERVE_FEATURES))
        body = {"rows": rows.tolist()}
    body["model"] = MODEL_ID
    return json.dumps(body).encode("utf-8")


def _stream(name: str, seed: int, client: int) -> list:
    """The requests one client cycles through: ``(path, body)`` pairs."""
    rng = np.random.default_rng([seed, 10, client])
    shapes = []
    for path, count in STREAMS[name].items():
        sizes = {"/predict": PREDICT_ROWS, "/gam/predict": GAM_ROWS}.get(
            path, (0,)
        )
        shapes += [(path, sizes[k % len(sizes)]) for k in range(count)]
    return [
        (shapes[k][0], _request(rng, *shapes[k]))
        for k in rng.permutation(len(shapes))
    ]


def _build_app(name: str, forest, quick: bool):
    """Set-up of one serve workload: construct, register, start, first fit."""
    config = _serve_config(quick)
    if name == "serve_fleet":
        fleet = FleetConfig(workers=CLIENTS, replication=CLIENTS)
        app = FleetApp(config, fleet)
    else:
        app = ServeApp(config)
    app.add_model(MODEL_ID, forest)
    if name == "serve_fleet":
        # The CLI's default heartbeat interval.
        app.start_fleet(supervise_interval_s=1.0)
    response = app.handle(
        "POST", "/explain", json.dumps({"model": MODEL_ID}).encode("utf-8")
    )
    return app, response


class _Client:
    """One closed-loop client: sends its next request after each reply.

    It keeps its place in its stream from one segment to the next."""

    def __init__(self, app, stream):
        self.app = app
        self.stream = stream
        self.position = 0
        self.latencies: dict[str, list] = {
            "/predict": [], "/gam/predict": [], "/explain": []
        }
        self.statuses: list[int] = []
        self.kept: list[tuple] = []  # (path, request body, reply body)

    def run_until(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            path, body = self.stream[self.position % len(self.stream)]
            self.position += 1
            t0 = time.perf_counter()
            response = self.app.handle("POST", path, body)
            self.latencies[path].append(time.perf_counter() - t0)
            self.statuses.append(response.status)
            if len(self.statuses) % CHECK_EVERY == 1:
                self.kept.append((path, body, response.body))


def _check_replies(checks, kept, forest, surrogate) -> None:
    for path, request, reply in kept:
        sent = json.loads(request)
        got = json.loads(reply)
        if path == "/predict":
            expected = forest.predict_raw(np.asarray(sent["rows"])).tolist()
            checks.expect(
                got["predictions"] == expected,
                "/predict reply differs from forest.predict_raw",
            )
        elif path == "/gam/predict":
            expected = np.asarray(
                surrogate.predict(np.asarray(sent["rows"])), dtype=np.float64
            ).tolist()
            checks.expect(
                got["predictions"] == expected,
                "/gam/predict reply differs from GEFExplanation.predict",
            )
        else:
            checks.expect(
                not got["degraded"] and len(got["local"]["contributions"]) > 0,
                f"/explain reply degraded or without a local break-down: "
                f"{got}",
            )


def _probe_quietly(surrogate, rows, rng, checks, speed, seconds):
    """Surrogate probes for ``seconds`` from this thread, pinned to one
    CPU, each batch between two speed measurements on that CPU.

    Returns the probe times in ms at the reference speed,
    ``(predict, local)``, and the ``calls`` slowdowns.
    """
    former = os.sched_getaffinity(0)
    cpus = [min(former)]
    os.sched_setaffinity(0, cpus)
    gam_ms, local_ms, slowdowns = [], [], []
    try:
        mark = speed.measure(cpus)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            gam, local = _probe_surrogate(
                surrogate, rows, rng, checks, "served surrogate"
            )
            mark_next = speed.measure(cpus)
            calls = slowdown("calls", mark, mark_next)
            mark = mark_next
            slowdowns.append(calls)
            gam_ms += [t * 1e3 / calls for t in gam]
            local_ms += [t * 1e3 / calls for t in local]
    finally:
        os.sched_setaffinity(0, former)
    return gam_ms, local_ms, slowdowns


def run_serve(name, *, seed, seconds, quick, reps, probe=None):
    """Two closed-loop clients against a ServeApp or a 2-worker FleetApp,
    then probes of the served surrogate.

    Returns ``(result, checks)``.
    """
    _, forest = _train(name, quick)
    floor = FIDELITY_FLOOR[name]
    checks = Checks()
    speed = HostSpeed()
    cpus = sorted(os.sched_getaffinity(0))
    if get_metrics() is None:
        # `repro serve` always runs with metrics on.
        enable_metrics()

    setup_raw, setup_s = [], []
    app = None
    try:
        for rep in range(reps):
            if app is not None:
                app.close(drain=True)
            invalidate_model_caches(forest)
            before = speed.measure(cpus)
            start = time.perf_counter()
            app, response = _build_app(name, forest, quick)
            setup_raw.append(time.perf_counter() - start)
            bulk = slowdown("bulk", before, speed.measure(cpus))
            setup_s.append(setup_raw[-1] / bulk)
            checks.op()
            checks.expect(
                response.status == 200,
                f"set-up /explain status {response.status}",
            )
            reply = response.json()
            checks.expect(
                not reply.get("degraded", True), "set-up surrogate degraded"
            )
            fidelity = float(reply.get("fidelity", {}).get("r2", float("nan")))
            checks.expect(
                fidelity >= floor,
                f"surrogate fidelity R² {fidelity:.4f} < {floor}",
            )
        worker_pids = []
        if name == "serve_fleet":
            worker_pids = [
                w["pid"] for w in app.fleet.view()["workers"].values()
            ]
        surrogate = app.surrogates.peek(app.registry.get(MODEL_ID).fingerprint)

        clients = [
            _Client(app, _stream(name, seed, c)) for c in range(CLIENTS)
        ]
        loop_s = seconds * (1.0 - PROBE_SHARE) / SEGMENTS
        cpu_scaled, requests, wall, mixed_all = 0.0, 0, 0.0, []
        if probe is not None:
            probe.start_timed()
        mark = speed.measure(cpus)
        for _ in range(SEGMENTS):
            sent = sum(len(c.statuses) for c in clients)
            cpu0, start = cpu_seconds(worker_pids), time.perf_counter()
            threads = [
                threading.Thread(
                    target=c.run_until, args=(start + loop_s,), daemon=True
                )
                for c in clients
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall += time.perf_counter() - start
            cpu = cpu_seconds(worker_pids) - cpu0
            mark_next = speed.measure(cpus)
            mixed = slowdown("mixed", mark, mark_next)
            mark = mark_next
            mixed_all.append(mixed)
            cpu_scaled += cpu / mixed
            requests += sum(len(c.statuses) for c in clients) - sent
        if probe is not None:
            probe.stop_timed()

        statuses = [s for c in clients for s in c.statuses]
        checks.op(len(statuses))
        bad = [s for s in statuses if s != 200]
        checks.expect(
            not bad,
            f"{len(bad)} requests failed: {sorted(set(bad))}",
            len(bad),
        )
        _check_replies(
            checks, [k for c in clients for k in c.kept], forest, surrogate
        )
        registry = get_metrics()
        fallback = registry.counter("fleet.local_fallback")
        checks.expect(
            fallback == 0, f"{fallback:g} fleet predicts fell back in-process"
        )
        fits = registry.counter("surrogate.fits")
        checks.expect(
            fits == reps, f"{fits:g} surrogate fits for {reps} set-ups"
        )
        if name == "serve_fleet":
            workers = app.fleet.view()["workers"]
            restarts = sum(w["restarts"] for w in workers.values())
            checks.expect(restarts == 0, f"{restarts} fleet worker restarts")

        mix = {
            path: [s * 1e3 for c in clients for s in c.latencies[path]]
            for path in ("/predict", "/gam/predict", "/explain")
        }
        predict = mix["/predict"]
        per_layer = trace = None
        if probe is not None:
            per_layer, trace = probe.collect(
                ops=len(predict),
                latency_ms_p50=_p(predict, 50),
                setups=reps,
                fleet=app.fleet if name == "serve_fleet" else None,
            )
        rss_mb = peak_rss_mb(worker_pids)
    finally:
        if app is not None:
            app.close(drain=True)

    # The probes run once the app is closed.  Next to a live fleet front
    # end, with its supervisor and reader threads, the same calls grew
    # with the host's slowdown to the power 1.3, against 1.0 alone.
    rng = np.random.default_rng([seed, 12])
    gam_ms, local_ms, calls_all = _probe_quietly(
        surrogate, rng.standard_normal((1_000, SERVE_FEATURES)), rng,
        checks, speed, seconds * PROBE_SHARE,
    )
    result = {
        "end_to_end": {
            "setup_s": _median(setup_s),
            "cpu_ms_per_op": cpu_scaled * 1e3 / requests,
            "gam_predict_ms.p50": _median(gam_ms),
            "explain_local_ms.p50": _median(local_ms),
            "fidelity_r2": fidelity,
            "peak_rss_mb": rss_mb,
        },
        "diagnostics": {
            "mix_requests": {path: len(v) for path, v in mix.items()},
            "probes": len(gam_ms),
            **_slowdown_summary({"mixed": mixed_all, "calls": calls_all}),
            "raw.latency_ms.p50": _p(predict, 50),
            "raw.latency_ms.p90": _p(predict, 90),
            "raw.latency_ms.p99": _p(predict, 99),
            "raw.ops_per_s": requests / wall,
            "raw.mix_gam_predict_ms.p50": _p(mix["/gam/predict"], 50),
            "raw.mix_explain_local_ms.p50": _p(mix["/explain"], 50),
            "gam_predict_ms.p90": _p(gam_ms, 90),
            "explain_local_ms.p90": _p(local_ms, 90),
            "raw.setup_s": setup_raw,
            "setup_s.all": setup_s,
            "loop_s": wall,
        },
    }
    if probe is not None:
        result["per_layer"], result["trace"] = per_layer, trace
    return result, checks


def run(name, *, seed, seconds, quick, probe=None) -> dict:
    """Run workload ``name``; returns its JSON-ready result."""
    reps = 1 if quick else SETUP_REPS
    runner = run_explain if name in EXPLAIN_WORKLOADS else run_serve
    result, checks = runner(
        name, seed=seed, seconds=seconds, quick=quick, reps=reps, probe=probe
    )
    if probe is not None:
        coverage = result["per_layer"]["stage.coverage"]
        checks.expect(
            coverage >= 0.95,
            f"stage spans cover {coverage:.1%} of explain time",
        )
    result.update(
        workload=name,
        attempted=checks.attempted,
        failed=checks.failed,
        failures=checks.failures[:20],
    )
    return result
