"""Shared fixtures: small, deterministic models reused across test modules.

Everything expensive is session-scoped so the suite stays fast on one core.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.numerics import set_numerics_mode
from repro.datasets import load_census, make_d_double_prime, make_d_prime
from repro.forest import GradientBoostingClassifier, GradientBoostingRegressor

# The whole suite runs with the numerics sanitizer armed: non-finite
# values or broken post-conditions inside the hot kernels fail loudly
# instead of surfacing as mysteriously bad fidelity numbers.
set_numerics_mode("strict")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def d_prime_small():
    """A reduced D' (2,500 rows) for fast end-to-end tests."""
    return make_d_prime(n=2_500, seed=7)


@pytest.fixture(scope="session")
def d_double_prime_small():
    """A reduced D'' with the paper's fixed interaction triple."""
    return make_d_double_prime([(0, 1), (0, 4), (1, 4)], n=2_500, seed=7)


@pytest.fixture(scope="session")
def small_forest(d_prime_small):
    """A 40-tree GBDT on the reduced D' (regression)."""
    model = GradientBoostingRegressor(
        n_estimators=40, num_leaves=16, learning_rate=0.15, random_state=0
    )
    model.fit(d_prime_small.X_train, d_prime_small.y_train)
    return model


@pytest.fixture(scope="session")
def interaction_forest(d_double_prime_small):
    """A 60-tree GBDT on the reduced D'' (has real interactions)."""
    model = GradientBoostingRegressor(
        n_estimators=60, num_leaves=24, learning_rate=0.12, random_state=0
    )
    model.fit(d_double_prime_small.X_train, d_double_prime_small.y_train)
    return model


@pytest.fixture(scope="session")
def classification_data(rng):
    """A separable binary task with five features."""
    local = np.random.default_rng(99)
    X = local.uniform(0, 1, (2_000, 5))
    logits = 6.0 * (X[:, 0] + np.sin(6 * X[:, 1]) - 0.8)
    y = (local.uniform(size=2_000) < 1 / (1 + np.exp(-logits))).astype(float)
    return X, y


@pytest.fixture(scope="session")
def small_classifier(classification_data):
    """A 40-tree GBDT classifier."""
    X, y = classification_data
    model = GradientBoostingClassifier(
        n_estimators=40, num_leaves=16, learning_rate=0.2, random_state=0
    )
    model.fit(X, y)
    return model


@pytest.fixture(scope="session")
def bench_forests():
    """The benchmark's three forests, trained as ``bench/workloads.py`` does.

    Spline (D', 200 trees), census (classifier, 120 trees, 51 features)
    and serve (200 trees x 31 leaves, 12 features): the structure-only
    passes are pinned against their references on the exact forests the
    benchmark explains and serves.
    """
    spline = make_d_prime(n=10_000, seed=0)
    census = load_census(n=12_000, seed=0)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3_000, 12))
    y = 2 * X[:, 0] + np.sin(3 * X[:, 1]) + X[:, 2] * X[:, 3]
    y = y + 0.1 * rng.standard_normal(3_000)
    return {
        "spline": GradientBoostingRegressor(
            n_estimators=200, num_leaves=32, learning_rate=0.05, random_state=0
        ).fit(spline.X_train, spline.y_train),
        "census": GradientBoostingClassifier(
            n_estimators=120, num_leaves=32, learning_rate=0.1, random_state=0
        ).fit(census.X_train, census.y_train),
        "serve": GradientBoostingRegressor(
            n_estimators=200, num_leaves=31, learning_rate=0.1, random_state=0
        ).fit(X, y),
    }
