"""Tests for permutation feature importance."""

import numpy as np
import pytest

from repro.metrics import r2_score
from repro.xai import permutation_importance


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (800, 4))
    y = 4 * X[:, 0] + np.sin(6 * X[:, 2]) + rng.normal(0, 0.02, 800)
    return X, y


class TestPermutationImportance:
    def test_signal_features_dominate(self, setup):
        X, y = setup
        model = lambda A: 4 * A[:, 0] + np.sin(6 * A[:, 2])
        imp = permutation_importance(model, X, y, r2_score, random_state=0)
        assert imp[0] > imp[1] and imp[0] > imp[3]
        assert imp[2] > imp[1] and imp[2] > imp[3]

    def test_noise_features_near_zero(self, setup):
        X, y = setup
        model = lambda A: 4 * A[:, 0] + np.sin(6 * A[:, 2])
        imp = permutation_importance(model, X, y, r2_score, random_state=0)
        assert abs(imp[1]) < 0.01
        assert abs(imp[3]) < 0.01

    def test_agrees_with_forest_gain_ranking(self, setup):
        """Permutation and gain importances rank the same features on top."""
        from repro.forest import GradientBoostingRegressor

        X, y = setup
        forest = GradientBoostingRegressor(n_estimators=30, random_state=0)
        forest.fit(X, y)
        perm = permutation_importance(
            forest.predict, X, y, r2_score, random_state=0
        )
        gain = forest.feature_importance("gain")
        assert set(np.argsort(-perm)[:2]) == set(np.argsort(-gain)[:2]) == {0, 2}

    def test_input_left_unmodified(self, setup):
        X, y = setup
        before = X.copy()
        permutation_importance(lambda A: A[:, 0], X, y, r2_score, random_state=0)
        np.testing.assert_array_equal(X, before)

    def test_deterministic_given_seed(self, setup):
        X, y = setup
        model = lambda A: A[:, 0]
        a = permutation_importance(model, X, y, r2_score, random_state=3)
        b = permutation_importance(model, X, y, r2_score, random_state=3)
        np.testing.assert_array_equal(a, b)

    def test_validation(self, setup):
        X, y = setup
        with pytest.raises(ValueError):
            permutation_importance(lambda A: A[:, 0], X, y[:-1], r2_score)
        with pytest.raises(ValueError):
            permutation_importance(
                lambda A: A[:, 0], X, y, r2_score, n_repeats=0
            )


class TestStagedPredict:
    def test_stages_converge_to_final(self, setup):
        from repro.forest import GradientBoostingRegressor

        X, y = setup
        forest = GradientBoostingRegressor(n_estimators=12, random_state=0)
        forest.fit(X, y)
        stages = list(forest.staged_predict_raw(X[:50]))
        assert len(stages) == 12
        assert np.array_equal(stages[-1], forest.predict_raw(X[:50]))

    def test_stages_improve_monotonically(self, setup):
        from repro.forest import GradientBoostingRegressor

        X, y = setup
        forest = GradientBoostingRegressor(n_estimators=15, random_state=0)
        forest.fit(X, y)
        errors = [
            float(np.mean((y[:200] - stage) ** 2))
            for stage in forest.staged_predict_raw(X[:200])
        ]
        assert errors[-1] < errors[0]
