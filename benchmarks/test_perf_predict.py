"""Tier-2 perf smoke: the bitvector engine against the per-tree loop.

Times ``predict_raw`` for the per-tree loop and the traversal-free
bitvector engine over the (N, T) grid {10k, 100k} x {50, 500} on a deep
leaf-wise GBDT (num_leaves=31, the paper's forest shape) and writes a
schema-validated ``BENCH_predict.json`` trajectory artifact at the repo
root.  The run *fails* if the bitvector engine is not at least ``2x``
faster than the loop at the largest cell (N=100k, T=500), or if any
cell's outputs are not bitwise identical across the two engines —
keeping the perf claim and the correctness contract pinned in CI.

Run with ``pytest benchmarks/test_perf_predict.py -q``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.devtools.benchval import validate_bench_predict
from repro.forest import (
    GradientBoostingRegressor,
    bitvector_for,
    set_prediction_engine,
)
from repro.forest.engines import DEFAULT_ENGINE

from _report import header, report

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Timed engines: the reference loop first, then bitvector.
ENGINES = ("loop", "bitvector")
ROW_COUNTS = (10_000, 100_000)
TREE_COUNTS = (50, 500)
N_FEATURES = 12
SEED = 0

#: The perf gate: bitvector over the loop at the largest grid cell.
BITVECTOR_MIN_SPEEDUP = 2.0


def _train_forest(n_trees: int) -> tuple[GradientBoostingRegressor, np.ndarray]:
    rng = np.random.default_rng(SEED)
    n_train = 4_000
    X = rng.standard_normal((n_train, N_FEATURES))
    y = (
        X[:, 0] * 2
        + np.sin(3 * X[:, 1])
        + X[:, 2] * X[:, 3]
        + 0.1 * rng.standard_normal(n_train)
    )
    model = GradientBoostingRegressor(
        n_estimators=n_trees, num_leaves=31, learning_rate=0.1, random_state=SEED
    )
    model.fit(X, y)
    X_eval = rng.standard_normal((max(ROW_COUNTS), N_FEATURES))
    return model, X_eval


def _time_predict(
    model, X: np.ndarray, engine: str, repeats: int = 2
) -> tuple[float, np.ndarray]:
    """Best-of-``repeats`` wall time; the minimum filters scheduler noise."""
    set_prediction_engine(engine)
    try:
        if engine == "bitvector":
            # Warm the encoding once so the timing isolates evaluation.
            encoded = bitvector_for(model)
            assert encoded is not None
            run = lambda: encoded.predict_raw(X)
        else:
            run = lambda: model.predict_raw(X)
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            out = run()
            best = min(best, time.perf_counter() - start)
        return best, out
    finally:
        set_prediction_engine(DEFAULT_ENGINE)


def test_perf_predict():
    header("Prediction engines (loop / bitvector): predict_raw rows/sec")
    model_full, X_eval = _train_forest(max(TREE_COUNTS))

    cells = []
    for n_trees in TREE_COUNTS:
        # Prefix forests share trained trees: boosting is additive, so the
        # first T trees of the big model are themselves a valid model.
        model = GradientBoostingRegressor(
            n_estimators=n_trees, num_leaves=31, learning_rate=0.1, random_state=SEED
        )
        model.trees_ = model_full.trees_[:n_trees]
        model.init_score_ = model_full.init_score_
        model.n_features_ = model_full.n_features_
        for n_rows in ROW_COUNTS:
            X = X_eval[:n_rows]
            seconds = {}
            outputs = {}
            for engine in ENGINES:
                seconds[engine], outputs[engine] = _time_predict(model, X, engine)
            identical = bool(np.array_equal(outputs["loop"], outputs["bitvector"]))
            cell = {
                "n_rows": n_rows,
                "n_trees": n_trees,
                "identical": identical,
            }
            for engine, spent in seconds.items():
                cell[f"{engine}_seconds"] = round(spent, 4)
                cell[f"{engine}_rows_per_sec"] = round(n_rows / spent, 1)
            cell["bitvector_speedup_vs_loop"] = round(
                seconds["loop"] / seconds["bitvector"], 2
            )
            cells.append(cell)
            report(
                f"N={n_rows:>7,} T={n_trees:>3}: "
                f"loop {cell['loop_rows_per_sec']:>10,.0f} rows/s  "
                f"bitvector {cell['bitvector_rows_per_sec']:>10,.0f} rows/s  "
                f"bv/loop {cell['bitvector_speedup_vs_loop']:.2f}x  "
                f"identical={identical}"
            )

    artifact = {
        "benchmark": "predict_raw",
        "forest": {"num_leaves": 31, "n_features": N_FEATURES, "seed": SEED},
        "engines": list(ENGINES),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cells": cells,
    }
    for cell in cells:
        assert cell["identical"], f"engine outputs differ at {cell}"
    assert validate_bench_predict(artifact) == len(cells)
    (REPO_ROOT / "BENCH_predict.json").write_text(json.dumps(artifact, indent=2) + "\n")

    largest = next(
        c
        for c in cells
        if c["n_rows"] == max(ROW_COUNTS) and c["n_trees"] == max(TREE_COUNTS)
    )
    assert largest["bitvector_speedup_vs_loop"] >= BITVECTOR_MIN_SPEEDUP, (
        f"bitvector engine below the {BITVECTOR_MIN_SPEEDUP}x-over-loop gate "
        f"at the largest cell: {largest}"
    )
