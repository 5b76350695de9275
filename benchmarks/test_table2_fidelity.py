"""Table 2: R^2 of the forest and the GEF explainer on D' and D''.

The paper measures two fidelities on the *original* test splits (which GEF
itself never sees): R^2 of the GAM against the forest's predictions
(surrogate fidelity) and against the true labels (task accuracy).  On D''
the interactions are fixed to {(f1,f2), (f1,f5), (f2,f5)} and the GAM gets
|F''| = 3 tensor terms.

Paper's numbers: forest 0.980/0.986 vs labels; GAM 0.986/0.938 vs forest
and 0.982/0.931 vs labels.  Our generators' noise caps R^2 against the
labels below those: the noise-free generator itself (the Bayes ceiling)
reads about 0.953 on D' and 0.926 on D'', and no forest can beat it.
"""

import numpy as np

from repro.core import GEF
from repro.datasets import g_double_prime, g_prime
from repro.metrics import r2_score
from repro.viz import export_table

from _report import artifact_path, header, report

from conftest import TABLE2_PAIRS


def _explain(forest, n_interactions):
    gef = GEF(
        n_univariate=5,
        n_interactions=n_interactions,
        interaction_strategy="gain-path",
        sampling_strategy="equi-size",
        k_points=600,
        n_samples=40_000,
        n_splines=20,
        random_state=0,
    )
    return gef.explain(forest)


def test_table2_fidelity(
    benchmark, d_prime, d_prime_forest, d_double_prime, d_double_prime_forest
):
    explanation_prime = benchmark.pedantic(
        lambda: _explain(d_prime_forest, 0), rounds=1, iterations=1
    )
    explanation_double = _explain(d_double_prime_forest, 3)

    rows = []
    results = {}
    ceilings = {}
    for name, data, forest, explanation, truth in (
        ("D'", d_prime, d_prime_forest, explanation_prime, g_prime),
        ("D''", d_double_prime, d_double_prime_forest, explanation_double,
         lambda X: g_double_prime(X, TABLE2_PAIRS)),
    ):
        X, y = data.X_test, data.y_test
        forest_pred = forest.predict(X)
        gam_pred = explanation.predict(X)
        r2_forest_y = r2_score(y, forest_pred)
        r2_gam_forest = r2_score(forest_pred, gam_pred)
        r2_gam_y = r2_score(y, gam_pred)
        results[name] = (r2_forest_y, r2_gam_forest, r2_gam_y)
        # The Bayes ceiling: R^2 of the noise-free generator on y.
        ceilings[name] = r2_score(y, truth(X))
        rows.append([name, f"{r2_forest_y:.3f}", f"{r2_gam_forest:.3f}",
                     f"{r2_gam_y:.3f}"])

    header("Table 2 — R^2 on the original test splits of D' and D''")
    report(f"{'dataset':>8s} {'forest|y':>10s} {'GAM|forest':>11s} "
           f"{'GAM|y':>8s} {'ceiling|y':>10s}")
    for row in rows:
        report(f"{row[0]:>8s} {row[1]:>10s} {row[2]:>11s} {row[3]:>8s} "
               f"{ceilings[row[0]]:>10.3f}")
    report("paper:   D'  0.980      0.986       0.982")
    report("         D'' 0.986      0.938       0.931")
    report(f"selected interactions on D'': {explanation_double.pairs} "
           f"(injected: {TABLE2_PAIRS})")
    export_table(
        artifact_path("table2_fidelity.csv"),
        ["dataset", "r2_forest_vs_y", "r2_gam_vs_forest", "r2_gam_vs_y"],
        rows,
    )

    # --- reproduction checks ---
    r2_fy_p, r2_gf_p, r2_gy_p = results["D'"]
    r2_fy_pp, r2_gf_pp, r2_gy_pp = results["D''"]

    # No model beats the noise-free generator on the noisy labels.
    assert r2_fy_p < ceilings["D'"]
    assert r2_fy_pp < ceilings["D''"]
    # Surrogate fidelity is high on both datasets.
    assert r2_gf_p > 0.95
    assert r2_gf_pp > 0.85
    # The GAM's task accuracy tracks the forest's closely.
    assert abs(r2_gy_p - r2_fy_p) < 0.05
    assert abs(r2_gy_pp - r2_fy_pp) < 0.08
    # As in the paper, the additive dataset is at least as easy to explain
    # as the one with injected interactions (we allow a small margin: with
    # well-chosen tensor terms the gap nearly closes at this scale).
    assert r2_gf_p > r2_gf_pp - 0.02

    benchmark.extra_info["table2"] = {
        name: {"forest_vs_y": v[0], "gam_vs_forest": v[1], "gam_vs_y": v[2]}
        for name, v in results.items()
    }
    benchmark.extra_info["bayes_ceiling_r2"] = ceilings
