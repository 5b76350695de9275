"""Section 3.1's surrogate-family trade-off: GAM vs. linear vs. tree.

The paper argues a GAM is the sweet spot between interpretability and
flexibility: a plain linear regression is even easier to read but "cannot
approximate [the sinusoid] reasonably well", while tree-prototyping
(related work) turns the forest into axis-aligned steps.  We fit all three
surrogate families on the *same* synthetic dataset D* and compare fidelity
on D' (whose generator contains exactly the sinusoid the paper uses as
the linear model's counter-example).
"""

import numpy as np

from repro.core import (
    GEF,
    build_sampling_domains,
    feature_thresholds,
    generate_dataset,
)
from repro.metrics import r2_score
from repro.viz import export_table
from repro.xai import LinearSurrogate, TreeSurrogate

from _report import artifact_path, header, report


def test_baseline_surrogates(benchmark, d_prime, d_prime_forest):
    forest = d_prime_forest

    # One shared D* so the comparison isolates the surrogate family.
    domains = build_sampling_domains(feature_thresholds(forest), "equi-size", k=400)
    dataset = generate_dataset(forest, domains, 25_000, random_state=0)

    gef = GEF(
        n_univariate=5,
        sampling_strategy="equi-size",
        k_points=400,
        n_samples=25_000,
        n_splines=20,
        random_state=0,
    )
    explanation = benchmark.pedantic(
        lambda: gef.explain(forest), rounds=1, iterations=1
    )
    linear = LinearSurrogate().fit(dataset.X_train, dataset.y_train)
    tree_small = TreeSurrogate(num_leaves=8, min_samples_leaf=20).fit(
        dataset.X_train, dataset.y_train
    )
    tree_big = TreeSurrogate(num_leaves=64, min_samples_leaf=20).fit(
        dataset.X_train, dataset.y_train
    )

    X = d_prime.X_test
    target = forest.predict(X)
    scores = {
        "GEF GAM (5 splines)": r2_score(target, explanation.predict(X)),
        "linear regression": r2_score(target, linear.predict(X)),
        "tree (8 leaves)": r2_score(target, tree_small.predict(X)),
        "tree (64 leaves)": r2_score(target, tree_big.predict(X)),
    }

    header("Section 3.1 — surrogate families on the same D* (fidelity on D')")
    report(f"{'surrogate':>22s} {'R2 vs forest':>13s}")
    rows = []
    for name, r2 in scores.items():
        report(f"{name:>22s} {r2:>13.3f}")
        rows.append([name, f"{r2:.4f}"])
    export_table(
        artifact_path("baseline_surrogates.csv"), ["surrogate", "r2_vs_forest"], rows
    )
    report("")
    report("linear coefficients: "
           + ", ".join(f"{n}={c:+.3f}" for n, c in linear.explanation()))

    # --- checks (the paper's qualitative ordering) ---
    # 1. The GAM dominates: it bends where the generator bends.
    assert scores["GEF GAM (5 splines)"] > scores["linear regression"] + 0.2
    assert scores["GEF GAM (5 splines)"] > scores["tree (8 leaves)"]
    # 2. The linear surrogate fails on the sinusoidal component: far from
    #    a faithful explanation even though it is the most interpretable.
    assert scores["linear regression"] < 0.8
    # 3. Trees trade leaves for fidelity but stay below the GAM at any
    #    human-readable size.
    assert scores["tree (8 leaves)"] < scores["tree (64 leaves)"]
    assert scores["tree (64 leaves)"] < scores["GEF GAM (5 splines)"]

    benchmark.extra_info["r2_by_surrogate"] = scores
