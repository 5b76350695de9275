"""The randomness discipline: ``as_generator`` semantics and Generator
passthrough across the public ``random_state`` parameters."""

from __future__ import annotations

import numpy as np

from repro._rng import as_generator


class TestAsGenerator:
    def test_int_seed_matches_default_rng(self):
        a = as_generator(123).uniform(size=8)
        b = np.random.default_rng(123).uniform(size=8)
        np.testing.assert_array_equal(a, b)

    def test_generator_passes_through_unchanged(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_none_gives_fresh_entropy(self):
        a = as_generator(None).uniform(size=8)
        b = as_generator(None).uniform(size=8)
        assert not np.array_equal(a, b)


class TestGeneratorPropagation:
    def test_dataset_accepts_generator(self):
        from repro.datasets import make_d_prime

        seeded = make_d_prime(n=200, seed=42)
        via_gen = make_d_prime(n=200, seed=np.random.default_rng(42))
        np.testing.assert_array_equal(seeded.X_train, via_gen.X_train)
        np.testing.assert_array_equal(seeded.y_train, via_gen.y_train)

    def test_forest_accepts_generator(self):
        from repro.forest import RandomForestRegressor

        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (200, 3))
        y = X[:, 0] + rng.normal(0, 0.1, 200)
        seeded = RandomForestRegressor(n_estimators=5, random_state=11)
        seeded.fit(X, y)
        gen = RandomForestRegressor(
            n_estimators=5, random_state=np.random.default_rng(11)
        )
        gen.fit(X, y)
        np.testing.assert_array_equal(seeded.predict(X), gen.predict(X))

    def test_shared_generator_advances_across_calls(self):
        from repro.datasets import make_d_prime

        rng = np.random.default_rng(0)
        first = make_d_prime(n=100, seed=rng)
        second = make_d_prime(n=100, seed=rng)  # same stream, further along
        assert not np.array_equal(first.X_train, second.X_train)

    def test_config_accepts_generator(self, small_forest):
        from repro.core.config import GEFConfig
        from repro.core.dataset import generate_dataset
        from repro.core.feature_selection import feature_thresholds
        from repro.core.sampling import build_sampling_domains

        domains = build_sampling_domains(
            feature_thresholds(small_forest), "equi-size", k=8
        )
        seeded = generate_dataset(
            small_forest, domains, n_samples=200, random_state=5
        )
        via_gen = generate_dataset(
            small_forest, domains, n_samples=200,
            random_state=np.random.default_rng(5),
        )
        np.testing.assert_array_equal(seeded.X_train, via_gen.X_train)
        # And the config dataclass type-accepts a Generator.
        cfg = GEFConfig(random_state=np.random.default_rng(3))
        assert isinstance(cfg.random_state, np.random.Generator)
