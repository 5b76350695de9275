"""Bi-variate component selection: the four heuristics of section 3.4.

Candidate pairs follow the heredity principle — both features must already
be main effects in F' — and are ranked by an interaction importance
I(f_i, f_j) computed one of four ways:

* **Pair-Gain** — the sum of the two univariate gain importances (the
  cheap baseline; blind to actual co-occurrence);
* **Count-Path** — the number of ancestor/descendant split-node pairs
  testing the two features on a common decision path, over all trees;
* **Gain-Path** — like Count-Path but accumulating ``min(gain_a, gain_d)``
  for each such node pair (a gain-weighted co-occurrence count);
* **H-Stat** — Friedman's H^2 statistic estimated from partial dependence
  on a sample of D* (the accurate but expensive reference).

Count-Path and Gain-Path read only the forest structure, in O(sum of node
depths) over the forest's node table (:mod:`repro.core.node_table`) with
no recursion; H-Stat needs O(N |F'|^2) forest evaluations.
"""

from __future__ import annotations

import numpy as np

from ..xai.hstat import h_statistic_matrix
from .errors import SelectionError
from .feature_selection import forest_feature_gains
from .node_table import forest_table

__all__ = [
    "candidate_pairs",
    "pair_gain_scores",
    "count_path_scores",
    "gain_path_scores",
    "h_stat_scores",
    "rank_interactions",
    "select_interactions",
]

Pair = tuple[int, int]


def candidate_pairs(features: list[int]) -> list[Pair]:
    """All unordered pairs of F' (the heredity-principle candidate set)."""
    feats = sorted(set(int(f) for f in features))
    if len(feats) < 2:
        return []
    return [
        (feats[a], feats[b])
        for a in range(len(feats))
        for b in range(a + 1, len(feats))
    ]


def _normalize_pair(i: int, j: int) -> Pair:
    return (i, j) if i < j else (j, i)


def pair_gain_scores(forest, features: list[int]) -> dict[Pair, float]:
    """I(f_i, f_j) = I(f_i) + I(f_j) with I the accumulated gain."""
    gains = forest_feature_gains(forest)
    return {
        (i, j): float(gains[i] + gains[j]) for i, j in candidate_pairs(features)
    }


def _path_scores(forest, features: list[int], want_gain: bool) -> dict[Pair, float]:
    """Count-/Gain-Path over the forest's node table, one level at a time.

    Every test node on an F' feature climbs its ancestors through
    ``parent`` in lockstep; each step adds the (ancestor, descendant)
    pairs on F' features onto an |F'| x |F'| grid with one
    ``np.bincount``.  Same-feature pairs land on the diagonal, which no
    candidate pair reads.
    """
    pairs = candidate_pairs(features)
    if not pairs:
        return {}
    feats = np.unique(np.asarray(features, dtype=np.int64))
    m = feats.size
    table = forest_table(forest)
    slot = np.searchsorted(feats, table.feature)
    slot[~table.internal | (feats[np.minimum(slot, m - 1)] != table.feature)] = -1
    desc = np.flatnonzero(slot >= 0)
    anc = table.parent[desc]
    grid = np.zeros(m * m)
    while desc.size:
        desc, anc = desc[anc >= 0], anc[anc >= 0]
        hit = slot[anc] >= 0
        a, d = anc[hit], desc[hit]
        weights = np.minimum(table.gain[a], table.gain[d]) if want_gain else None
        grid += np.bincount(slot[a] * m + slot[d], weights, minlength=m * m)
        anc = table.parent[anc]
    grid = grid.reshape(m, m)
    grid = grid + grid.T  # an unordered pair, from either end of the path
    index = {int(f): k for k, f in enumerate(feats)}
    return {(i, j): float(grid[index[i], index[j]]) for i, j in pairs}


def count_path_scores(forest, features: list[int]) -> dict[Pair, float]:
    """Count of common-decision-path split pairs, summed over all trees."""
    return _path_scores(forest, features, want_gain=False)


def gain_path_scores(forest, features: list[int]) -> dict[Pair, float]:
    """Gain-weighted Count-Path: accumulates min(gain, gain) per node pair."""
    return _path_scores(forest, features, want_gain=True)


def h_stat_scores(
    forest,
    features: list[int],
    sample: np.ndarray,
    background: np.ndarray | None = None,
) -> dict[Pair, float]:
    """Friedman H^2 per candidate pair, from PDs over a sample of D*."""
    sample = np.atleast_2d(np.asarray(sample, dtype=np.float64))
    if sample.shape[0] < 2:
        raise SelectionError("H-Stat needs at least two sample rows")
    feats = sorted(set(int(f) for f in features))
    raw = h_statistic_matrix(forest.predict_raw, sample, feats, background)
    return {_normalize_pair(i, j): v for (i, j), v in raw.items()}


def rank_interactions(
    forest,
    features: list[int],
    strategy: str = "gain-path",
    sample: np.ndarray | None = None,
) -> list[tuple[Pair, float]]:
    """Candidate pairs with scores, sorted by decreasing importance.

    ``sample`` (rows of D*) is required by the ``h-stat`` strategy only.
    """
    if strategy == "pair-gain":
        scores = pair_gain_scores(forest, features)
    elif strategy == "count-path":
        scores = count_path_scores(forest, features)
    elif strategy == "gain-path":
        scores = gain_path_scores(forest, features)
    elif strategy == "h-stat":
        if sample is None:
            raise SelectionError("the h-stat strategy requires a data sample")
        scores = h_stat_scores(forest, features, sample)
    else:
        raise SelectionError(f"unknown interaction strategy {strategy!r}")
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def select_interactions(
    forest,
    features: list[int],
    n_interactions: int,
    strategy: str = "gain-path",
    sample: np.ndarray | None = None,
) -> list[Pair]:
    """F'': the top ``n_interactions`` pairs under the chosen heuristic."""
    if n_interactions < 0:
        raise SelectionError("n_interactions must be >= 0")
    if n_interactions == 0:
        return []
    ranked = rank_interactions(forest, features, strategy, sample)
    return [pair for pair, _ in ranked[:n_interactions]]
