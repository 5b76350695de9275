"""Tests for GEFConfig validation."""

import json

import numpy as np
import pytest

from repro.core import GEFConfig
from repro.core.config import config_from_dict, config_to_dict, explain_config_hash


class TestGEFConfig:
    def test_defaults_valid(self):
        cfg = GEFConfig()
        assert cfg.sampling_strategy == "equi-size"
        assert cfg.interaction_strategy == "gain-path"
        assert cfg.categorical_threshold == 10  # the paper's L

    def test_unknown_sampling_strategy(self):
        with pytest.raises(ValueError, match="sampling strategy"):
            GEFConfig(sampling_strategy="stratified")

    def test_unknown_interaction_strategy(self):
        with pytest.raises(ValueError, match="interaction strategy"):
            GEFConfig(interaction_strategy="anova")

    def test_n_univariate_bounds(self):
        with pytest.raises(ValueError):
            GEFConfig(n_univariate=0)
        assert GEFConfig(n_univariate=None).n_univariate is None

    def test_n_interactions_bounds(self):
        with pytest.raises(ValueError):
            GEFConfig(n_interactions=-1)

    def test_k_points_bounds(self):
        with pytest.raises(ValueError):
            GEFConfig(k_points=1)

    def test_n_samples_bounds(self):
        with pytest.raises(ValueError):
            GEFConfig(n_samples=5)

    def test_test_fraction_bounds(self):
        with pytest.raises(ValueError):
            GEFConfig(test_fraction=0.0)
        with pytest.raises(ValueError):
            GEFConfig(test_fraction=1.0)

    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            GEFConfig(epsilon_fraction=-0.1)

    def test_label_values(self):
        with pytest.raises(ValueError):
            GEFConfig(label="logit")
        for ok in ("auto", "raw", "probability"):
            assert GEFConfig(label=ok).label == ok


class TestConfigDict:
    def test_round_trip(self):
        cfg = GEFConfig(
            lam_grid=np.logspace(-3, 3, 7), stage_timeout={"fit": 2.0}
        )
        data = config_to_dict(cfg)
        assert data["lam_grid"] == np.logspace(-3, 3, 7).tolist()
        assert json.loads(json.dumps(data)) == data
        back = config_from_dict(data)
        np.testing.assert_array_equal(back.lam_grid, cfg.lam_grid)
        assert config_to_dict(back) == data

    @pytest.mark.parametrize(
        "config, digest",
        [
            (GEFConfig(), "0476b00c759a06da"),
            (
                GEFConfig(
                    lam_grid=np.logspace(-3, 3, 7),
                    stage_timeout={"fit": 2.0},
                    n_interactions=2,
                ),
                "4f4af1b63a68e702",
            ),
            (GEFConfig(random_state=np.random.default_rng(0)), "00d3823a3487e217"),
        ],
    )
    def test_hash_is_pinned(self, config, digest):
        """Ledger keys depend on these digests: they must never drift."""
        assert explain_config_hash(config) == digest
