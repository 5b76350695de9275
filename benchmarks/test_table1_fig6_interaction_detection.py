"""Table 1 + Figure 6: interaction detection over all 120 interaction sets.

For every one of the C(10,3) = 120 possible triples of feature pairs, the
paper builds g''_Pi, trains a forest, and scores how well each of the four
heuristics (Pair-Gain, Count-Path, Gain-Path, H-Stat) ranks the injected
pairs, measured by Average Precision.  Table 1 reports mean/SD/min/max per
strategy; Figure 6 plots each strategy's APs sorted descending; a Welch
t-test backs the claim that no strategy differs significantly from
Gain-Path at alpha = 0.05.

Scale-down vs. the paper: 3,000-row datasets and 50-tree forests per
realization (the paper uses 10,000 rows and 1,000-tree forests); H-Stat
uses a 40-instance sample of D*.
"""

import numpy as np

from repro.core import (
    build_sampling_domains,
    feature_thresholds,
    generate_dataset,
    rank_interactions,
    select_univariate,
)
from repro.datasets import all_interaction_triples, all_pairs, make_d_double_prime
from repro.forest import GradientBoostingRegressor
from repro.metrics import average_precision, welch_ttest
from repro.viz import export_series, export_table

from _report import artifact_path, header, report

STRATEGIES = ("pair-gain", "count-path", "gain-path", "h-stat")
N_ROWS = 3_000
N_TREES = 50
HSTAT_SAMPLE = 40

#: Exact worst-case AP for 3 relevant items of 10 (all ranked last):
#: (1/8 + 2/9 + 3/10) / 3 — the paper's observed minimum of 0.216.
WORST_CASE_AP = (1 / 8 + 2 / 9 + 3 / 10) / 3


def _ap_per_strategy(triple, seed):
    data = make_d_double_prime(list(triple), n=N_ROWS, seed=seed)
    forest = GradientBoostingRegressor(
        n_estimators=N_TREES, num_leaves=24, learning_rate=0.12, random_state=0
    )
    forest.fit(data.X_train, data.y_train)
    features = select_univariate(forest)

    domains = build_sampling_domains(feature_thresholds(forest), "equi-size", k=100)
    sample = generate_dataset(
        forest, domains, 400, random_state=0
    ).X_train[:HSTAT_SAMPLE]

    candidates = all_pairs()
    relevance = np.array([pair in triple for pair in candidates])
    out = {}
    for strategy in STRATEGIES:
        ranked = rank_interactions(forest, features, strategy, sample=sample)
        scores = dict(ranked)
        out[strategy] = average_precision(
            relevance, np.array([scores.get(p, 0.0) for p in candidates])
        )
    return out


def test_table1_fig6_interaction_detection(benchmark):
    triples = all_interaction_triples()
    assert len(triples) == 120

    aps = {s: [] for s in STRATEGIES}

    def run_sweep():
        for index, triple in enumerate(triples):
            result = _ap_per_strategy(triple, seed=index)
            for strategy in STRATEGIES:
                aps[strategy].append(result[strategy])
        return aps

    benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    arrays = {s: np.asarray(v) for s, v in aps.items()}

    header("Table 1 — AP of interaction detection strategies (120 triples)")
    report(f"{'':>6s} " + " ".join(f"{s:>11s}" for s in STRATEGIES))
    rows = []
    for stat_name, fn in (
        ("Mean", np.mean),
        ("SD", np.std),
        ("Min", np.min),
        ("Max", np.max),
    ):
        values = [float(fn(arrays[s])) for s in STRATEGIES]
        rows.append([stat_name] + [f"{v:.3f}" for v in values])
        report(f"{stat_name:>6s} " + " ".join(f"{v:11.3f}" for v in values))
    report("paper:  Mean 0.450/0.445/0.463/0.457   SD ~0.17-0.19   "
           "Min 0.216   Max 1.000")
    export_table(
        artifact_path("table1_interaction_ap.csv"),
        ["stat"] + list(STRATEGIES),
        rows,
    )

    # Figure 6: per-strategy APs sorted descending.
    sorted_aps = {s: np.sort(arrays[s])[::-1] for s in STRATEGIES}
    export_series(
        artifact_path("fig6_sorted_ap.csv"),
        {"rank": np.arange(1, 121, dtype=float), **sorted_aps},
    )
    report("")
    report("Figure 6 — sorted AP curves (first/median/last of each strategy):")
    for s in STRATEGIES:
        curve = sorted_aps[s]
        report(f"  {s:>11s}: best={curve[0]:.3f} median={curve[60]:.3f} "
               f"worst={curve[-1]:.3f}")

    # Welch two-tailed t-tests vs Gain-Path (paper: none significant).
    report("")
    report("Welch t-test vs Gain-Path (alpha = 0.05):")
    p_values = {}
    for s in STRATEGIES:
        if s == "gain-path":
            continue
        result = welch_ttest(arrays[s], arrays["gain-path"])
        p_values[s] = result.p_value
        verdict = "significant" if result.significant() else "not significant"
        report(f"  {s:>11s}: t={result.statistic:+.3f} p={result.p_value:.3f} "
               f"-> {verdict}")

    # --- reproduction checks (shape, not absolute numbers) ---
    for s in STRATEGIES:
        mean_ap = arrays[s].mean()
        # All strategies rank far better than chance (3 relevant of 10
        # => random-ranking AP ~ 0.36 in expectation? conservative: beat
        # the analytic worst case by a wide margin).
        assert mean_ap > WORST_CASE_AP + 0.1, f"{s} mean AP {mean_ap:.3f}"
        assert arrays[s].min() >= WORST_CASE_AP - 1e-9
        assert arrays[s].max() <= 1.0 + 1e-9

    # At least one strategy achieves a perfect ranking somewhere (paper:
    # every strategy maxes at 1.000).
    assert max(arrays[s].max() for s in STRATEGIES) == 1.0

    benchmark.extra_info["mean_ap"] = {s: float(arrays[s].mean()) for s in STRATEGIES}
    benchmark.extra_info["welch_p_vs_gain_path"] = p_values
