"""Command-line interface: train, inspect and explain forests.

Usage::

    python -m repro train --dataset d-prime --out forest.json
    python -m repro inspect forest.json
    python -m repro explain forest.json --splines 5 --report report.txt

The ``train`` command exists so the whole hand-off scenario is scriptable:
one party trains on a built-in dataset and ships the JSON; another party
(with no access to anything else) runs ``explain`` on the file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]

_DATASETS = ("d-prime", "d-double-prime", "superconductivity", "census")


def _load_dataset(name: str, seed: int):
    """Returns (X_train, y_train, X_test, y_test, feature_names, is_clf)."""
    if name == "d-prime":
        from .datasets import make_d_prime

        data = make_d_prime(seed=seed)
        return data.X_train, data.y_train, data.X_test, data.y_test, None, False
    if name == "d-double-prime":
        from .datasets import make_d_double_prime

        data = make_d_double_prime([(0, 1), (0, 4), (1, 4)], seed=seed)
        return data.X_train, data.y_train, data.X_test, data.y_test, None, False
    if name == "superconductivity":
        from .datasets import load_superconductivity

        data = load_superconductivity(n=8_000, seed=seed)
        return (data.X_train, data.y_train, data.X_test, data.y_test,
                data.feature_names, False)
    if name == "census":
        from .datasets import load_census

        data = load_census(n=12_000, seed=seed)
        return (data.X_train, data.y_train, data.X_test, data.y_test,
                data.feature_names, True)
    raise ValueError(f"unknown dataset {name!r}")


def _cmd_train(args) -> int:
    from .forest import (
        GradientBoostingClassifier,
        GradientBoostingRegressor,
        save_forest,
    )
    from .metrics import accuracy, r2_score

    X_train, y_train, X_test, y_test, _, is_clf = _load_dataset(
        args.dataset, args.seed
    )
    model_cls = GradientBoostingClassifier if is_clf else GradientBoostingRegressor
    model = model_cls(
        n_estimators=args.trees,
        num_leaves=args.leaves,
        learning_rate=args.learning_rate,
        random_state=args.seed,
    )
    model.fit(X_train, y_train)
    if is_clf:
        score = accuracy(y_test, model.predict(X_test))
        print(f"trained {model.n_trees_} trees; test accuracy = {score:.4f}")
    else:
        score = r2_score(y_test, model.predict(X_test))
        print(f"trained {model.n_trees_} trees; test R2 = {score:.4f}")
    save_forest(model, args.out)
    print(f"model structure written to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    from .forest import forest_summary, load_forest

    forest = load_forest(args.model)
    print(forest_summary(forest))
    return 0


def _cmd_explain(args) -> int:
    from .core import GEF, explanation_report, save_explanation
    from .forest import forest_fingerprint, load_forest

    forest = load_forest(args.model)
    fingerprint = forest_fingerprint(forest)
    gef = GEF(
        n_univariate=args.splines,
        n_interactions=args.interactions,
        sampling_strategy=args.strategy,
        k_points=args.k,
        n_samples=args.samples,
        random_state=args.seed,
        strict=args.strict,
    )
    tracer = None
    if args.trace:
        from .obs import enable_metrics, enable_tracing

        tracer = enable_tracing()
        enable_metrics()
    try:
        explanation = gef.explain(forest, verbose=args.verbose)
    finally:
        if tracer is not None:
            from .obs import disable_metrics, disable_tracing

            registry = disable_metrics()
            tracer = disable_tracing()
            tracer.write(
                args.trace,
                extra={"metrics": registry.snapshot()},
            )
            print(
                f"trace written to {args.trace} "
                f"({len(tracer.spans())} spans); view in chrome://tracing "
                f"or summarize with `repro trace summarize {args.trace}`"
            )
    if explanation.stage_report is not None and explanation.stage_report.degraded:
        print(
            f"warning: degraded explanation "
            f"({explanation.stage_report.summary()})",
            file=sys.stderr,
        )
    instance = None
    if args.instance:
        instance = np.asarray(
            [float(v) for v in args.instance.split(",")], dtype=np.float64
        )
        if len(instance) != forest.n_features_:
            print(
                f"error: instance has {len(instance)} values, the forest "
                f"expects {forest.n_features_}",
                file=sys.stderr,
            )
            return 2
    report = explanation_report(
        explanation, instance=instance, top_components=args.top,
        fingerprint=fingerprint,
    )
    if args.save:
        save_explanation(explanation, args.save)
        print(f"explanation archive written to {args.save}")
    if args.ledger:
        from .core.config import explain_config_hash
        from .ledger import LedgerStore, record_model, record_surrogate

        store = LedgerStore(args.ledger)
        model_entry = record_model(store, forest)
        surrogate_entry = record_surrogate(store, explanation, fingerprint)
        print(
            f"ledgered: model entry {model_entry.short_id}, surrogate "
            f"entry {surrogate_entry.short_id} "
            f"(fingerprint {fingerprint}, config "
            f"{explain_config_hash(explanation.config)}) in {args.ledger}"
        )
    if args.report:
        Path(args.report).write_text(report)
        print(f"fidelity R2 on D* = {explanation.fidelity['r2']:.4f}; "
              f"forest fingerprint {fingerprint}; "
              f"report written to {args.report}")
    else:
        print(report)
    return 0


def _cmd_serve(args) -> int:
    import threading

    from .core.config import GEFConfig
    from .obs import default_slo_config, enable_metrics
    from .serve import FleetApp, FleetConfig, ServeApp, ServeConfig, start_server
    from .serve.http import set_server

    config = ServeConfig(
        max_batch=args.max_batch,
        batch_delay_s=args.batch_delay_ms / 1e3,
        queue_limit=args.queue_limit,
        request_timeout_s=args.timeout,
        surrogate_capacity=args.surrogate_capacity,
        gef=GEFConfig(
            n_univariate=args.splines,
            n_interactions=args.interactions,
            sampling_strategy=args.strategy,
            k_points=args.k,
            n_samples=args.samples,
            random_state=args.seed,
        ),
        slo=(
            default_slo_config(
                fidelity_warn=args.slo_fidelity_warn,
                fidelity_breach=args.slo_fidelity_breach,
                p99_s=args.slo_p99_ms / 1e3,
                error_budget=args.slo_error_budget,
                breach_action=args.slo_breach_action,
            )
            if args.slo
            else None
        ),
        ledger_path=args.ledger,
    )
    enable_metrics()
    if args.workers > 0:
        app = FleetApp(
            config,
            FleetConfig(
                workers=args.workers,
                replication=args.replication or args.workers,
                quorum=args.quorum,
            ),
        )
    else:
        app = ServeApp(config)
    for path in args.models:
        entry = app.add_model(Path(path).stem, path)
        print(
            f"registered {entry.model_id!r} "
            f"(fingerprint {entry.fingerprint}, "
            f"{entry.n_features} features) from {path}"
        )
    if args.workers > 0:
        app.start_fleet(supervise_interval_s=args.heartbeat_interval)
        print(
            f"fleet up: {args.workers} worker(s), "
            f"replication {args.replication or args.workers}, "
            f"quorum {args.quorum}, heartbeat every "
            f"{args.heartbeat_interval:g}s"
        )
    slo_stop = None
    if args.slo:
        slo_stop = threading.Event()

        def _slo_loop() -> None:
            while not slo_stop.is_set():
                app.slo_tick()
                slo_stop.wait(args.slo_interval)

        threading.Thread(
            target=_slo_loop, name="repro-serve-slo", daemon=True
        ).start()
        print(
            f"SLO monitor on: fidelity warn<{args.slo_fidelity_warn:g} "
            f"breach<{args.slo_fidelity_breach:g}, "
            f"p99<{args.slo_p99_ms:g}ms, error budget "
            f"{args.slo_error_budget:g}, tick every {args.slo_interval:g}s"
        )
    handle = start_server(app, host=args.host, port=args.port)
    set_server(handle)
    print(
        f"serving {len(app.registry)} model(s) on {handle.url} "
        f"(max_batch={config.max_batch}, "
        f"queue_limit={config.queue_limit}); Ctrl-C to drain and stop"
    )
    try:
        handle.thread.join()
    except KeyboardInterrupt:
        print("\ndraining...", file=sys.stderr)
    finally:
        from .serve.http import stop_server

        if slo_stop is not None:
            slo_stop.set()
        stop_server(drain=True)
    return 0


def _cmd_ledger(args) -> int:
    import json as _json

    from .ledger import (
        LedgerStore,
        diff_entries,
        forest_from_entry,
        model_lineage,
        previous_model_entry,
        record_event,
        render_diff,
        render_verify,
        verify_entry,
    )

    store = LedgerStore(args.path)
    if args.action == "log":
        if args.audit:
            verified = store.audit()
            print(f"audit ok: {verified} segment(s) verified")
        entries = store.entries(kind=args.kind, key=args.key)
        for entry in entries:
            detail = ""
            if entry.kind == "event":
                detail = f" action={entry.payload.get('action')}"
            elif entry.kind == "surrogate":
                detail = f" config={entry.payload.get('config_hash')}"
            print(
                f"{entry.seq:6d}  {entry.short_id}  {entry.kind:<9s} "
                f"{entry.key}{detail}"
            )
        print(f"{len(entries)} entr{'y' if len(entries) == 1 else 'ies'}")
        return 0
    if args.action == "show":
        entry = store.get(args.entry)
        header = {
            "seq": entry.seq,
            "entry_id": entry.entry_id,
            "kind": entry.kind,
            "key": entry.key,
            "parent": entry.parent,
        }
        if not args.payload:
            # The full payload of a model/surrogate entry is the whole
            # archive — megabytes; summarize unless asked.
            header["payload_keys"] = sorted(entry.payload)
            print(_json.dumps(header, indent=2))
        else:
            header["payload"] = entry.payload
            print(_json.dumps(header, indent=2))
        return 0
    if args.action == "diff":
        report = diff_entries(store.get(args.a), store.get(args.b))
        if args.json:
            print(_json.dumps(report, indent=2))
        else:
            print(render_diff(report))
        return 0
    if args.action == "verify":
        report = verify_entry(store, args.entry)
        print(render_verify(report))
        return 0 if report["match"] else 1
    if args.action == "rollback":
        from .forest import save_forest

        lineage = model_lineage(store, args.model)
        if not lineage:
            print(
                f"error [ledger]: no ledgered lineage for model "
                f"{args.model!r}",
                file=sys.stderr,
            )
            return 1
        current = lineage[-1]["fingerprint"]
        target = previous_model_entry(store, args.model, current)
        forest = forest_from_entry(target)
        save_forest(forest, args.out)
        record_event(
            store,
            "rollback",
            key=args.model,
            data={
                "fingerprint": int(target.payload["fingerprint"]),
                "from_fingerprint": current,
                "model_entry": target.entry_id,
                "via": "cli",
            },
        )
        print(
            f"rolled {args.model!r} back: fingerprint {current} -> "
            f"{target.payload['fingerprint']}; forest written to {args.out}"
        )
        return 0
    raise ValueError(f"unknown ledger action {args.action!r}")


def _cmd_check(args) -> int:
    from .devtools.check import run_from_args

    return run_from_args(args)


def _cmd_trace(args) -> int:
    from .obs import load_trace, summarize_trace, validate_chrome_trace

    try:
        payload = load_trace(args.trace_file)
        validate_chrome_trace(payload)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    print(summarize_trace(payload))
    return 0


def _cmd_report(args) -> int:
    from .core import explanation_report, load_explanation

    explanation = load_explanation(args.explanation)
    instance = None
    if args.instance:
        instance = np.asarray(
            [float(v) for v in args.instance.split(",")], dtype=np.float64
        )
    print(explanation_report(explanation, instance=instance, top_components=args.top))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GEF: data-free GAM explanations of tree forests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a forest on a built-in dataset")
    train.add_argument("--dataset", choices=_DATASETS, required=True)
    train.add_argument("--out", required=True, help="output model JSON path")
    train.add_argument("--trees", type=int, default=150)
    train.add_argument("--leaves", type=int, default=32)
    train.add_argument("--learning-rate", type=float, default=0.07)
    train.add_argument("--seed", type=int, default=0)
    train.set_defaults(func=_cmd_train)

    inspect = sub.add_parser("inspect", help="print a forest's structure summary")
    inspect.add_argument("model", help="model JSON path")
    inspect.set_defaults(func=_cmd_inspect)

    explain = sub.add_parser("explain", help="run GEF on a forest JSON")
    explain.add_argument("model", help="model JSON path")
    explain.add_argument("--splines", type=int, default=5,
                         help="|F'|: number of univariate components")
    explain.add_argument("--interactions", type=int, default=0,
                         help="|F''|: number of bi-variate components")
    explain.add_argument("--strategy", default="equi-size",
                         choices=("all-thresholds", "k-quantile", "equi-width",
                                  "k-means", "equi-size"))
    explain.add_argument("--k", type=int, default=200,
                         help="K: sampling-domain size per feature")
    explain.add_argument("--samples", type=int, default=20_000,
                         help="N: size of the synthetic dataset D*")
    explain.add_argument("--instance", default=None,
                         help="comma-separated feature values for a local view")
    explain.add_argument("--top", type=int, default=None,
                         help="limit the global section to the top components")
    explain.add_argument("--report", default=None,
                         help="write the report to this file instead of stdout")
    explain.add_argument("--save", default=None,
                         help="archive the fitted explanation to this JSON path")
    explain.add_argument("--ledger", default=None, metavar="DIR",
                         help="record the forest and the fitted surrogate in "
                              "this ledger directory (audit with "
                              "`repro ledger verify`)")
    explain.add_argument("--trace", default=None, metavar="TRACE_JSON",
                         help="record a pipeline trace and write it to this "
                              "path in Chrome trace-event format "
                              "(chrome://tracing / Perfetto)")
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument("--strict", action="store_true",
                         help="fail fast: disable retries and the fit "
                              "degradation ladder")
    explain.add_argument("--verbose", action="store_true")
    explain.set_defaults(func=_cmd_explain)

    serve = sub.add_parser(
        "serve",
        help="serve forests over HTTP: batched /predict, cached /explain",
    )
    serve.add_argument("models", nargs="+", metavar="MODEL_JSON",
                       help="model JSON paths (id = file stem)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch flush size (1 disables coalescing)")
    serve.add_argument("--batch-delay-ms", type=float, default=2.0,
                       help="max queueing delay before a partial flush")
    serve.add_argument("--queue-limit", type=int, default=256,
                       help="per-model pending bound; beyond it predicts "
                            "shed with HTTP 429")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-request budget in seconds (504 beyond it)")
    serve.add_argument("--surrogate-capacity", type=int, default=4,
                       help="fitted GAM surrogates kept in the LRU cache")
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes for the serving fleet "
                            "(0 = single-process in-proc serving)")
    serve.add_argument("--replication", type=int, default=0,
                       help="replicas per model across the fleet "
                            "(0 = replicate to every worker)")
    serve.add_argument("--quorum", type=int, default=1,
                       help="minimum up workers before the fleet degrades "
                            "to in-proc serving")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       help="supervisor tick interval in seconds "
                            "(heartbeats, crash detection, restarts)")
    serve.add_argument("--slo", action="store_true",
                       help="enable the SLO engine + fidelity drift "
                            "monitor (state surfaced in /healthz)")
    serve.add_argument("--slo-fidelity-warn", type=float, default=0.9,
                       help="rolling forest-GAM R2 below this warns")
    serve.add_argument("--slo-fidelity-breach", type=float, default=0.8,
                       help="rolling forest-GAM R2 below this breaches")
    serve.add_argument("--slo-p99-ms", type=float, default=250.0,
                       help="p99 request latency objective in ms")
    serve.add_argument("--slo-error-budget", type=float, default=0.01,
                       help="tolerated 5xx fraction per SLO tick")
    serve.add_argument("--slo-interval", type=float, default=5.0,
                       help="SLO evaluation interval in seconds")
    serve.add_argument("--slo-breach-action", default="log",
                       choices=("log", "invalidate"),
                       help="action when a rule enters breach: log only, or "
                            "additionally invalidate every cached surrogate")
    serve.add_argument("--ledger", default=None, metavar="DIR",
                       help="versioned ledger directory: write-through of "
                            "models and surrogates, warm-surrogate restart, "
                            "and the /models versions/rollback/diff endpoints")
    serve.add_argument("--splines", type=int, default=5,
                       help="|F'| for surrogate fits behind /explain")
    serve.add_argument("--interactions", type=int, default=0,
                       help="|F''| for surrogate fits")
    serve.add_argument("--strategy", default="equi-size",
                       choices=("all-thresholds", "k-quantile", "equi-width",
                                "k-means", "equi-size"))
    serve.add_argument("--k", type=int, default=200)
    serve.add_argument("--samples", type=int, default=20_000,
                       help="N: size of the synthetic dataset D*")
    serve.add_argument("--seed", type=int, default=0)
    serve.set_defaults(func=_cmd_serve)

    check = sub.add_parser(
        "check", help="run the AST lint rules against the source tree"
    )
    from .devtools.check import add_check_arguments

    add_check_arguments(check)
    check.set_defaults(func=_cmd_check)

    trace = sub.add_parser(
        "trace", help="inspect a pipeline trace written by explain --trace"
    )
    trace_sub = trace.add_subparsers(dest="action", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="print the per-stage time/percentage table"
    )
    summarize.add_argument("trace_file", help="trace JSON path")
    summarize.set_defaults(func=_cmd_trace)

    ledger = sub.add_parser(
        "ledger",
        help="inspect, audit, diff, verify and roll back the versioned "
             "model + explanation ledger",
    )
    ledger.add_argument("--path", required=True, metavar="DIR",
                        help="ledger directory (as passed to serve/explain "
                             "--ledger)")
    ledger_sub = ledger.add_subparsers(dest="action", required=True)
    ledger_log = ledger_sub.add_parser(
        "log", help="list ledger entries in replay order"
    )
    ledger_log.add_argument("--kind", default=None,
                            choices=("model", "surrogate", "event"))
    ledger_log.add_argument("--key", default=None,
                            help="filter by chain key (fingerprint, model id, "
                                 "'slo', ...)")
    ledger_log.add_argument("--audit", action="store_true",
                            help="strictly re-verify every segment's content "
                                 "address first")
    ledger_log.set_defaults(func=_cmd_ledger)
    ledger_show = ledger_sub.add_parser(
        "show", help="print one entry (id or unique prefix)"
    )
    ledger_show.add_argument("entry")
    ledger_show.add_argument("--payload", action="store_true",
                             help="include the full payload (may be large)")
    ledger_show.set_defaults(func=_cmd_ledger)
    ledger_diff = ledger_sub.add_parser(
        "diff", help="which splines/terms changed between two surrogates"
    )
    ledger_diff.add_argument("a", help="surrogate entry id (or prefix)")
    ledger_diff.add_argument("b", help="surrogate entry id (or prefix)")
    ledger_diff.add_argument("--json", action="store_true")
    ledger_diff.set_defaults(func=_cmd_ledger)
    ledger_verify = ledger_sub.add_parser(
        "verify",
        help="reproduce an entry from the ledger alone and compare "
             "bit-for-bit (exit 1 on mismatch)",
    )
    ledger_verify.add_argument("entry")
    ledger_verify.set_defaults(func=_cmd_ledger)
    ledger_rollback = ledger_sub.add_parser(
        "rollback",
        help="write the previous ledgered version of a model to a file",
    )
    ledger_rollback.add_argument("model", help="model id (lineage chain key)")
    ledger_rollback.add_argument("--out", required=True,
                                 help="output forest JSON path")
    ledger_rollback.set_defaults(func=_cmd_ledger)

    report = sub.add_parser(
        "report", help="render a report from a saved explanation archive"
    )
    report.add_argument("explanation", help="explanation JSON path")
    report.add_argument("--instance", default=None,
                        help="comma-separated feature values for a local view")
    report.add_argument("--top", type=int, default=None)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Pipeline failures surface as a one-line ``error [<stage>]`` message
    on stderr and exit code 1 — never as a traceback.
    """
    from .core.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        stage = getattr(exc, "stage", None) or "pipeline"
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
