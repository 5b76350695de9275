"""Ablation: GCV-selected shared lambda vs. fixed smoothing choices.

The paper tunes a single lambda, shared by all terms, with Generalized
Cross Validation.  This ablation compares the GCV choice against fixed
under- and over-smoothed settings, both on D* and off-grid.
"""

import numpy as np

from repro.core import GEF, GEFConfig, build_sampling_domains
from repro.core.dataset import generate_dataset
from repro.core.feature_selection import feature_thresholds
from repro.core.gam_builder import build_gam
from repro.metrics import rmse
from repro.viz import export_table

from _report import artifact_path, header, report

FIXED_LAMBDAS = (1e-4, 1.0, 1e4)


def test_ablation_gcv(benchmark, d_prime_forest):
    forest = d_prime_forest
    rng = np.random.default_rng(4)
    probe = rng.uniform(0, 1, (3_000, 5))

    config = GEFConfig(
        n_univariate=5,
        sampling_strategy="equi-size",
        k_points=400,
        n_splines=20,
        n_samples=20_000,
        random_state=0,
    )
    thresholds = feature_thresholds(forest)
    domains = build_sampling_domains(thresholds, "equi-size", k=400)
    dataset = generate_dataset(forest, domains, config.n_samples, random_state=0)
    features = [0, 1, 2, 3, 4]

    def fit(lam=None):
        gam = build_gam(features, [], thresholds, config, is_classifier=False)
        if lam is None:
            gam.gridsearch(dataset.X_train, dataset.y_train)
        else:
            gam.lam = lam
            gam.fit(dataset.X_train, dataset.y_train)
        on = rmse(dataset.y_test, gam.predict(dataset.X_test))
        off = rmse(forest.predict_raw(probe), gam.predict(probe))
        return gam.lam, on, off

    gcv_lam, gcv_on, gcv_off = benchmark.pedantic(fit, rounds=1, iterations=1)

    rows = [["gcv", f"{gcv_lam:g}", f"{gcv_on:.4f}", f"{gcv_off:.4f}"]]
    fixed = {}
    for lam in FIXED_LAMBDAS:
        _, on, off = fit(lam)
        fixed[lam] = (on, off)
        rows.append([f"fixed", f"{lam:g}", f"{on:.4f}", f"{off:.4f}"])

    header("Ablation — GCV-selected lambda vs fixed smoothing")
    report(f"{'mode':>6s} {'lambda':>10s} {'RMSE on D*':>12s} {'off-grid':>10s}")
    for row in rows:
        report(f"{row[0]:>6s} {row[1]:>10s} {row[2]:>12s} {row[3]:>10s}")
    export_table(
        artifact_path("ablation_gcv.csv"),
        ["mode", "lambda", "rmse_dstar", "rmse_offgrid"],
        rows,
    )

    # --- checks ---
    # 1. GCV is at least as good on D* as every fixed candidate.
    for lam, (on, _) in fixed.items():
        assert gcv_on <= on * 1.02, f"GCV lost to fixed lam={lam}"
    # 2. Extreme over-smoothing visibly hurts (the splines flatten out).
    assert fixed[1e4][0] > gcv_on * 1.5

    benchmark.extra_info["gcv_lambda"] = gcv_lam
    benchmark.extra_info["rmse"] = {
        "gcv": [gcv_on, gcv_off],
        **{f"{lam:g}": list(v) for lam, v in fixed.items()},
    }
