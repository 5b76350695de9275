"""Schema validation for committed benchmark artifacts.

The repo-root ``BENCH_*.json`` files are trajectory artifacts: CI and
future sessions read them to compare performance claims across commits,
so their schema must not drift silently when a benchmark is refactored.
This module holds the validators the benchmarks and CI both call —
:func:`validate_bench_predict` for the loop-versus-bitvector
``predict_raw`` grid (``BENCH_serve.json`` has its own validator next to its generator,
:func:`repro.devtools.loadgen.validate_bench_serve`).
"""

from __future__ import annotations

__all__ = ["validate_bench_predict"]

#: Engines every predict cell must time: the reference loop, then bitvector.
_ENGINES = ("loop", "bitvector")

_CELL_REQUIRED = (
    "n_rows",
    "n_trees",
    "identical",
    *(f"{engine}_seconds" for engine in _ENGINES),
    *(f"{engine}_rows_per_sec" for engine in _ENGINES),
    "bitvector_speedup_vs_loop",
)


def validate_bench_predict(payload: dict) -> int:
    """Schema check for ``BENCH_predict.json``; returns the cell count.

    Raises ``ValueError`` on the first violation — the CI gate that keeps
    the artifact machine-readable across refactors.
    """
    if payload.get("benchmark") != "predict_raw":
        raise ValueError("benchmark key must be 'predict_raw'")
    for key in ("forest", "engines", "python", "numpy", "cells"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    if tuple(payload["engines"]) != _ENGINES:
        raise ValueError(f"engines must be {list(_ENGINES)}, got {payload['engines']}")
    cells = payload["cells"]
    if not isinstance(cells, list) or not cells:
        raise ValueError("cells must be a non-empty list")
    for cell in cells:
        for key in _CELL_REQUIRED:
            if key not in cell:
                raise ValueError(f"cell missing key {key!r}: {cell}")
        for engine in _ENGINES:
            if not cell[f"{engine}_seconds"] > 0:
                raise ValueError(f"{engine}_seconds must be positive: {cell}")
            if not cell[f"{engine}_rows_per_sec"] > 0:
                raise ValueError(f"{engine}_rows_per_sec must be positive: {cell}")
        if cell["identical"] is not True:
            raise ValueError(f"cell outputs are not bitwise identical: {cell}")
    return len(cells)
