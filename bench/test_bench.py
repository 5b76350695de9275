"""Checks of the benchmark itself, on a ``--quick --trace`` run.

Run with ``python -m pytest bench/`` from the repository root (about
half a minute).  One traced quick run of every workload feeds all checks:
the printed result follows the schema, every workload and metric named in
``BENCHMARK.json`` is emitted with its unit, and each Chrome trace is
valid.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from compare import verdict  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--trace",
         "--seed", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())


def test_printed_result_follows_the_schema(quick_run):
    last, _ = quick_run
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert last["failed"] == 0
    for block in last["metrics"].values():
        for entry in block.values():
            assert set(entry) == {"value", "unit"}
            assert isinstance(entry["value"], float)


def test_every_declared_workload_and_metric_is_emitted(quick_run):
    last, document = quick_run
    names = [w["name"] for w in SPEC["workloads"]]
    assert list(last["metrics"]) == names
    assert [r["workload"] for r in document["results"]] == names
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in names:
        emitted = {k: v["unit"] for k, v in last["metrics"][name].items()}
        assert emitted == per_layer
    for result in document["results"]:
        assert set(result["end_to_end"]) == {
            m["name"] for m in SPEC["end_to_end"]
        }
        assert all(v > 0 for v in result["end_to_end"].values()), result
    for key in ("git_sha", "cpu_count", "blas_threads", "phases"):
        assert key in document["provenance"]


def test_traces_are_valid_chrome_traces(quick_run):
    _, document = quick_run
    for result in document["results"]:
        trace = json.loads(Path(result["trace_file"]).read_text())
        assert validate_chrome_trace(trace) == result["trace_events"] > 0


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.2, 10.3, 10.1, 10.2], "ok"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "regression"),
        ([10.0, 14.0, 7.0, 10.0], [10.0, 12.0, 9.0, 11.0], "unresolved"),
        ([10.0, 14.0, 7.0, 10.0], [5.0, 6.0, 5.5, 4.0], "ok"),
    ],
)
def test_compare_verdicts(a, b, expected):
    assert verdict(a, b, bound=0.1, better="lower") == expected
