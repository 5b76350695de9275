"""Compare two sets of benchmark results, metric by metric.

Usage (from the repository root)::

    python3 bench/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is a ``bench/run.py --out`` result.  Set A is the baseline and
set B the candidate.  For every (workload, end-to-end metric) the script
prints the median and quartiles of each set and a verdict, using the
metric's bound and direction from ``BENCHMARK.json``:

- ``unresolved``: one set's own spread (interquartile range over median)
  is wider than the bound, and B's runs do not all beat A's;
- ``regression``: B's median is worse than A's by more than the bound;
- ``ok``: otherwise.

The exit code is 1 when any pair is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(a: list[float], b: list[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    return sign * (median_b - median_a) / abs(median_a) if median_a else 0.0


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    """``ok``, ``regression`` or ``unresolved`` for baseline ``a`` vs ``b``."""
    spread = max(
        (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
        for q in (quartiles(a), quartiles(b))
    )
    if spread > bound:
        sign = 1.0 if better == "lower" else -1.0
        b_wins = all(sign * (y - x) < 0 for x in a for y in b)
        return "ok" if b_wins else "unresolved"
    return "regression" if worse_by(a, b, better) > bound else "ok"


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per file]}`` over result files."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for result in document["results"]:
            for metric, value in result["end_to_end"].items():
                values.setdefault((result["workload"], metric), []).append(
                    float(value)
                )
    return values


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    baseline, candidate = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads(SPEC_PATH.read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    print(
        f"{'workload':<22}{'metric':<22}{'A q1/med/q3':>30}{'B q1/med/q3':>30}"
        f"{'worse by':>10}{'bound':>7}  verdict"
    )
    for (workload, name), a in sorted(baseline.items()):
        b = candidate.get((workload, name))
        if b is None or name not in metrics:
            continue
        m = metrics[name]
        outcome = verdict(a, b, m["bound"], m["better"])
        regressions += outcome == "regression"
        print(
            f"{workload:<22}{name:<22}{_fmt(quartiles(a)):>30}"
            f"{_fmt(quartiles(b)):>30}{worse_by(a, b, m['better']):>10.1%}"
            f"{m['bound']:>7g}  {outcome}"
        )
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main())
