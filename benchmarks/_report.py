"""Reporting helpers shared by the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  Results are

* printed to the real stdout — pytest's capture is suspended around each
  write (via the capture manager handed over by ``conftest.py``), so the
  reproduced tables land in a ``tee``'d ``bench_output.txt``;
* appended to ``benchmarks/artifacts/report.log``, a local run log that
  git ignores; and
* exported as CSV under ``benchmarks/artifacts/`` by the benchmarks
  themselves.  CSVs of pinned values are committed; those that hold only
  timings (``efficiency_gef_vs_shap.csv``) are ignored like the log.
"""

from __future__ import annotations

import sys
from pathlib import Path

ARTIFACTS = Path(__file__).parent / "artifacts"

#: pytest's CaptureManager, injected by the autouse fixture in conftest.py.
_capture_manager = None


def _write_through_capture(text: str) -> None:
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            sys.stdout.write(text)
            sys.stdout.flush()
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def report(*lines: str) -> None:
    """Print reproduction output past pytest's capture and log it."""
    text = "".join(line + "\n" for line in lines)
    _write_through_capture(text)
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    with (ARTIFACTS / "report.log").open("a") as f:
        f.write(text)


def artifact_path(name: str) -> Path:
    """Location for a named CSV artifact."""
    ARTIFACTS.mkdir(parents=True, exist_ok=True)
    return ARTIFACTS / name


def header(title: str) -> None:
    """Banner separating one experiment's output from the next."""
    report("", "=" * 78, title, "=" * 78)
