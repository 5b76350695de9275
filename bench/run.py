"""The benchmark: one command, four workloads, end-to-end and layer metrics.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds T]
                         [--trace [0|1]] [--quick] [--out FILE]

Each workload runs in its own spawned process, which isolates engine
caches and peak memory and is safe for the spawn-based fleet.  Without
``--workload`` every workload in ``BENCHMARK.json`` runs, one after the
other.  The run checks the program's outputs and prints every metric as
``workload metric value unit``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace`` switches from the end-to-end metrics to the per-layer ones.
Each workload then runs twice, for half of ``--seconds`` each: once
untraced and once traced.  The traced run writes one Chrome trace per
workload next to ``--out`` (``bench/out/`` without it).  ``trace_overhead``
is the traced ``cpu_ms_per_op`` over the untraced one, minus 1.

BLAS runs one thread in every workload process (``WORKLOAD_ENV``): with
more threads than the host's few cores, idle BLAS threads spin and the
scheduler, not the program, sets the times.

``--out`` writes the full result: every metric, diagnostics, the output
check failures, and a provenance block.  ``bench/compare.py`` compares
two sets of such files.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Default ``--seconds`` of ``--quick``.
QUICK_SECONDS = 0.5

#: Hard limit on one workload, both processes of a traced run included.
WORKLOAD_TIMEOUT_S = 160.0

#: Environment of the workload processes, which start a fresh
#: interpreter: one BLAS thread, and one string-hash seed so that every
#: run lays out its dicts and sets alike.
WORKLOAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: What each timed phase includes, recorded in every result.
PHASES = {
    "training": "untimed: each workload trains its forest with seed 0 "
    "before any set-up",
    "setup_s": "cold: starts from a forest whose engine encodings were "
    "dropped (invalidate_model_caches). Explain workloads: the first "
    "predict_raw, which encodes the engine, plus one warm-up explain. "
    "Serve workloads: constructing the app, add_model, start_fleet and "
    "the first /explain, which fits the surrogate. Median of the set-ups "
    "made in one process",
    "timed": "warm: after the last set-up, in the same process. Every "
    "explain uses a new random_state, so D* is never a cached prediction; "
    "serve requests follow the first /explain, so the surrogate is cached",
    "scaling": "every end-to-end time is divided by the host's slowdown, "
    "measured with bench/hostspeed.py before and after the timed work, "
    "so it reads as the time at the reference speed; raw times are in "
    "diagnostics",
}


def _git(*args: str) -> str | None:
    """Output of a git command in this checkout, or None outside a repo."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, or None."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    """Where and how a result was measured."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    return {
        "git_sha": sha,
        "git_dirty": (
            None if sha is None else bool(_git("status", "--porcelain"))
        ),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "phases": PHASES,
    }


def _child(conn, name, seed, seconds, trace, quick, trace_path) -> None:
    """Workload process: run one workload, send its result back."""
    try:
        import workloads

        if trace:
            from layers import LayerProbe

            with LayerProbe() as probe:
                result = workloads.run(
                    name, seed=seed, seconds=seconds, quick=quick, probe=probe
                )
            trace_payload = result.pop("trace")
            from repro.obs import validate_chrome_trace

            result["trace_events"] = validate_chrome_trace(trace_payload)
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            trace_path.write_text(json.dumps(trace_payload))
            result["trace_file"] = str(trace_path)
        else:
            result = workloads.run(
                name, seed=seed, seconds=seconds, quick=quick
            )
        conn.send(("ok", result))
    except Exception:  # the parent reports the traceback and fails the run
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _spawn(name, seed, seconds, trace, quick, trace_path, deadline) -> dict:
    """Run one workload in a fresh spawned process and wait for it."""
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child,
        args=(sender, name, seed, seconds, trace, quick, trace_path),
        name=f"bench-{name}",
    )
    proc.start()
    sender.close()
    try:
        if not receiver.poll(max(0.0, deadline - time.monotonic())):
            raise RuntimeError(
                f"{name}: no result after {WORKLOAD_TIMEOUT_S:g}s"
            )
        status, payload = receiver.recv()
    except EOFError:
        status, payload = "error", f"{name}: workload process died"
    finally:
        receiver.close()
        proc.join(10)
        if proc.is_alive():
            proc.terminate()
            proc.join()
    if status != "ok":
        raise RuntimeError(payload)
    return payload


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process that ``multiprocessing`` starts
    for spawned processes, so that no process outlives the run.  The
    tracker has no public stop call; without one it exits by itself
    shortly after this process does."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(name, *, seed, seconds, trace, quick, trace_dir) -> dict:
    """One workload's record: its metrics plus checks and diagnostics."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    if not trace:
        return _spawn(name, seed, seconds, False, quick, None, deadline)
    plain = _spawn(name, seed, seconds / 2, False, quick, None, deadline)
    traced = _spawn(
        name, seed, seconds / 2, True, quick,
        trace_dir / f"{name}-seed{seed}.trace.json", deadline,
    )
    traced["per_layer"]["trace_overhead"] = (
        traced["end_to_end"]["cpu_ms_per_op"]
        / plain["end_to_end"]["cpu_ms_per_op"] - 1.0
    )
    traced["traced_end_to_end"] = traced.pop("end_to_end")
    traced["end_to_end"] = plain["end_to_end"]
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] += plain["failures"]
    return traced


def _metric_block(record: dict, declared: list[dict], key: str) -> dict:
    values = record[key]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{record['workload']}: no value for {missing}")
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def _run_and_print(name, declared, key, **options) -> tuple:
    """Run one workload and print its metric lines and failed checks."""
    record = run_workload(name, **options)
    metrics = _metric_block(record, declared, key)
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    print(
        f"{name} error_rate {record['failed'] / record['attempted']!r} "
        f"failed/attempted"
    )
    for failure in record["failures"]:
        print(f"{name} FAILED {failure}")
    return name, record, metrics


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny forests and counts: a smoke run of every code path",
    )
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC_DIR}", file=sys.stderr)
        return 2
    # Spawned workload processes and fleet workers inherit this path and
    # the environment.
    sys.path.insert(0, str(SRC_DIR))
    os.environ.update(WORKLOAD_ENV)

    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(spec["run_seconds"])
    trace = bool(args.trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    key = "per_layer" if trace else "end_to_end"
    trace_dir = args.out.parent if args.out else BENCH_DIR / "out"
    selected = [args.workload] if args.workload else names

    load_before = os.getloadavg()
    try:
        records = [
            _run_and_print(
                name, declared, key, seed=args.seed, seconds=seconds,
                trace=trace, quick=args.quick, trace_dir=trace_dir,
            )
            for name in selected
        ]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _stop_resource_tracker()

    attempted = sum(r["attempted"] for _, r, _ in records)
    failed = sum(r["failed"] for _, r, _ in records)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "provenance": provenance(),
            "load_average": {"before": load_before, "after": os.getloadavg()},
            "seed": args.seed,
            "seconds": seconds,
            "trace": trace,
            "quick": args.quick,
            "results": [record for _, record, _ in records],
        }
        args.out.write_text(json.dumps(document, indent=2) + "\n")
    metrics = (
        records[0][2] if args.workload
        else {name: block for name, _, block in records}
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
