"""Sampling-domain construction: the five strategies of section 3.3.

Each strategy turns the sorted list of split thresholds V_i of a feature
into a finite *sampling domain* D_i — the values from which synthetic
instances are drawn uniformly at random:

* **All-Thresholds** — every midpoint between consecutive distinct
  thresholds, plus the epsilon-extended extremes (Cohen et al.'s method);
* **K-Quantile** — the K quantiles of V_i (threshold values reused);
* **Equi-Width** — K evenly spaced points over the extended range;
* **K-Means** — centroids of a k-means clustering of V_i;
* **Equi-Size** — V_i cut into K contiguous equally sized runs, each
  averaged (follows the threshold *density*, like K-Quantile, but
  smooths instead of reusing exact values).
"""

from __future__ import annotations

import numpy as np

from ..cluster import kmeans_1d_centroids
from ..obs.metrics import inc as metric_inc
from .errors import SamplingError
from .numerics import assert_strictly_increasing

__all__ = [
    "all_thresholds_domain",
    "k_quantile_domain",
    "equi_width_domain",
    "k_means_domain",
    "equi_size_domain",
    "build_domain",
    "build_sampling_domains",
]


def _validate_thresholds(thresholds: np.ndarray) -> np.ndarray:
    thresholds = np.sort(np.asarray(thresholds, dtype=np.float64).ravel())
    if thresholds.size == 0:
        raise SamplingError("a feature with no thresholds has no sampling domain")
    return thresholds


def _epsilon(thresholds: np.ndarray, fraction: float) -> float:
    span = float(thresholds[-1] - thresholds[0])
    if span > 0.0:
        return fraction * span
    # Degenerate single-valued threshold list: fall back to a scale-aware
    # absolute widening so the domain still has two distinct points.
    return fraction * max(abs(float(thresholds[0])), 1.0)


def all_thresholds_domain(
    thresholds: np.ndarray, epsilon_fraction: float = 0.05
) -> np.ndarray:
    """Midpoints of consecutive *distinct* thresholds plus extended extremes.

    Midpoints avoid the corner case of sampling exactly on a split value;
    the epsilon extension probes slightly beyond the outermost splits.
    """
    thresholds = _validate_thresholds(thresholds)
    eps = _epsilon(thresholds, epsilon_fraction)
    distinct = np.unique(thresholds)
    midpoints = (distinct[:-1] + distinct[1:]) / 2.0
    domain = np.concatenate(
        [[distinct[0] - eps], midpoints, [distinct[-1] + eps]]
    )
    return np.unique(domain)


def k_quantile_domain(thresholds: np.ndarray, k: int) -> np.ndarray:
    """The K-quantiles of the (multiplicity-preserving) threshold list."""
    thresholds = _validate_thresholds(thresholds)
    if k < 2:
        raise SamplingError("k must be >= 2")
    qs = np.linspace(0.0, 1.0, k)
    return np.unique(np.quantile(thresholds, qs))


def equi_width_domain(
    thresholds: np.ndarray, k: int, epsilon_fraction: float = 0.05
) -> np.ndarray:
    """K evenly spaced points over the epsilon-extended threshold range."""
    thresholds = _validate_thresholds(thresholds)
    if k < 2:
        raise SamplingError("k must be >= 2")
    eps = _epsilon(thresholds, epsilon_fraction)
    return np.linspace(thresholds[0] - eps, thresholds[-1] + eps, k)


def k_means_domain(
    thresholds: np.ndarray, k: int, random_state: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Centroids of a 1-D k-means over the thresholds (k = min(|V_i|, K))."""
    thresholds = _validate_thresholds(thresholds)
    if k < 1:
        raise SamplingError("k must be >= 1")
    return kmeans_1d_centroids(thresholds, k, random_state=random_state)


def equi_size_domain(thresholds: np.ndarray, k: int) -> np.ndarray:
    """Averages of K contiguous equal-size runs of the sorted thresholds."""
    thresholds = _validate_thresholds(thresholds)
    if k < 1:
        raise SamplingError("k must be >= 1")
    k = min(k, thresholds.size)
    # np.array_split's runs (r of q + 1 values, then k - r of q), each
    # row mean reducing its contiguous run exactly as np.mean does.
    q, r = divmod(thresholds.size, k)
    head = thresholds[: r * (q + 1)].reshape(r, q + 1).mean(axis=1)
    tail = thresholds[r * (q + 1) :].reshape(k - r, q).mean(axis=1)
    return np.unique(np.concatenate([head, tail]))


def _widen_collapsed(
    domain: np.ndarray, thresholds: np.ndarray, epsilon_fraction: float
) -> np.ndarray:
    """Rescue a domain that collapsed to a single point.

    When the forest has neighbouring distinct thresholds around the
    collapsed value the domain is widened to their midpoints (staying
    inside the region the forest actually discriminates); a feature with
    one distinct threshold falls back to a scale-aware epsilon widening.
    The epsilon floor guarantees two distinct points even when the caller
    set ``epsilon_fraction=0``.
    """
    center = float(domain[0])
    distinct = np.unique(np.asarray(thresholds, dtype=np.float64))
    points = [center]
    if distinct.size >= 2:
        below = distinct[distinct < center]
        above = distinct[distinct > center]
        if below.size:
            points.append((float(below[-1]) + center) / 2.0)
        if above.size:
            points.append((center + float(above[0])) / 2.0)
    if len(points) < 2:
        eps = max(epsilon_fraction, 0.05) * max(abs(center), 1.0)
        points = [center - eps, center + eps]
    return np.unique(np.asarray(points, dtype=np.float64))


def build_domain(
    thresholds: np.ndarray,
    strategy: str,
    k: int = 64,
    epsilon_fraction: float = 0.05,
    random_state: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """Sampling domain of one feature under the named strategy.

    Degenerate safeguard: a feature with a single distinct threshold (e.g.
    a one-hot column always split at 0.5) would collapse to a one-point
    domain under the threshold-reusing strategies — and a point sitting
    exactly on the split never exercises the right branch.  Collapsed
    domains are widened via the midpoints to the neighbouring distinct
    thresholds (or an epsilon extension when there are none) instead of
    propagating a one-point domain downstream.
    """
    if strategy == "all-thresholds":
        domain = all_thresholds_domain(thresholds, epsilon_fraction)
    elif strategy == "k-quantile":
        domain = k_quantile_domain(thresholds, k)
    elif strategy == "equi-width":
        domain = equi_width_domain(thresholds, k, epsilon_fraction)
    elif strategy == "k-means":
        domain = k_means_domain(thresholds, k, random_state)
    elif strategy == "equi-size":
        domain = equi_size_domain(thresholds, k)
    else:
        raise SamplingError(f"unknown sampling strategy {strategy!r}")
    if len(domain) < 2 and strategy != "all-thresholds":
        domain = all_thresholds_domain(thresholds, epsilon_fraction)
    if len(domain) < 2:
        domain = _widen_collapsed(domain, thresholds, epsilon_fraction)
        metric_inc("sample.domains_widened")
    assert_strictly_increasing(domain, f"sampling domain [{strategy}]")
    return domain


def build_sampling_domains(
    thresholds: list[np.ndarray],
    strategy: str,
    k: int = 64,
    epsilon_fraction: float = 0.05,
    random_state: int | np.random.Generator | None = 0,
) -> dict[int, np.ndarray]:
    """Sampling domains for every feature the forest splits on.

    ``thresholds`` is V_i per feature, as
    :func:`~repro.core.feature_selection.feature_thresholds` returns it.
    Features without thresholds are omitted: the forest's output does not
    depend on them, so any constant value works when querying it.
    """
    domains: dict[int, np.ndarray] = {}
    for feature, values in enumerate(thresholds):
        if values.size == 0:
            continue
        domains[feature] = build_domain(
            values, strategy, k, epsilon_fraction, random_state
        )
    if not domains:
        raise SamplingError("the forest contains no splits; nothing to sample")
    return domains
