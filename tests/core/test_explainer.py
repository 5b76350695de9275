"""End-to-end tests of the GEF pipeline."""

import numpy as np
import pytest

from repro.core import GEF, GEFConfig, SamplingError, StageTimeoutError
from repro.core.errors import StageFailureError
from repro.metrics import r2_score


@pytest.fixture(scope="module")
def explanation(small_forest):
    # Note the modest basis size: Equi-Size concentrates domain points in
    # high-threshold-density regions, so an oversized basis would leave
    # unsupported splines in the sparse tails (the K-sensitivity the paper
    # reports for this strategy in Figures 5 and 8).
    gef = GEF(
        n_univariate=5,
        n_interactions=0,
        sampling_strategy="equi-size",
        k_points=60,
        n_samples=6000,
        n_splines=10,
        random_state=0,
    )
    return gef.explain(small_forest)


class TestPipeline:
    def test_high_fidelity_to_forest(self, explanation):
        assert explanation.fidelity["r2"] > 0.9

    def test_fidelity_on_original_data(self, explanation, small_forest, d_prime_small):
        """The surrogate tracks the forest on the *original* distribution."""
        X = d_prime_small.X_test
        r2 = r2_score(small_forest.predict(X), explanation.predict(X))
        assert r2 > 0.9

    def test_selected_features(self, explanation):
        assert sorted(explanation.features) == [0, 1, 2, 3, 4]

    def test_no_interactions_requested(self, explanation):
        assert explanation.pairs == []

    def test_summary_text(self, explanation):
        text = explanation.summary()
        assert "|F'| = 5" in text
        assert "equi-size" in text

    def test_config_or_kwargs_exclusive(self):
        with pytest.raises(TypeError):
            GEF(GEFConfig(), n_univariate=3)

    def test_feature_names_length_checked(self, small_forest):
        gef = GEF(n_samples=100)
        with pytest.raises(ValueError):
            gef.explain(small_forest, feature_names=["a", "b"])


class TestWithInteractions:
    def test_tensor_terms_improve_fit(self, interaction_forest):
        base_cfg = dict(
            n_univariate=5,
            sampling_strategy="equi-size",
            k_points=50,
            n_samples=6000,
            n_splines=12,
            random_state=0,
        )
        without = GEF(n_interactions=0, **base_cfg).explain(interaction_forest)
        with_pairs = GEF(
            n_interactions=3, interaction_strategy="gain-path", **base_cfg
        ).explain(interaction_forest)
        assert with_pairs.fidelity["rmse"] < without.fidelity["rmse"]

    def test_pairs_recorded(self, interaction_forest):
        expl = GEF(
            n_univariate=5,
            n_interactions=2,
            n_samples=2000,
            random_state=0,
        ).explain(interaction_forest)
        assert len(expl.pairs) == 2
        for i, j in expl.pairs:
            assert i in expl.features and j in expl.features


class TestClassifierExplanation:
    def test_probability_surrogate(self, small_classifier):
        gef = GEF(
            n_univariate=2,
            n_samples=4000,
            sampling_strategy="k-quantile",
            k_points=40,
            n_splines=10,
            random_state=0,
        )
        expl = gef.explain(small_classifier)
        assert expl.gam.link.name == "logit"
        preds = expl.predict(expl.dataset.X_test)
        assert np.all((preds >= 0) & (preds <= 1))
        # Fidelity to the forest's probabilities.
        assert expl.fidelity["rmse"] < 0.15

    def test_raw_label_mode(self, small_classifier):
        gef = GEF(
            n_univariate=2,
            n_samples=2000,
            label="raw",
            n_splines=10,
            random_state=0,
        )
        expl = gef.explain(small_classifier)
        assert expl.gam.link.name == "identity"


class TestLinearComponentMode:
    def test_glm_surrogate_underfits_the_sine(self, small_forest):
        """component_type='linear' builds the §3.1 GLM: interpretable but
        unable to bend, so its fidelity is far below the spline GAM's."""
        base = dict(
            n_univariate=5,
            sampling_strategy="equi-size",
            k_points=100,
            n_samples=5000,
            random_state=0,
        )
        glm = GEF(component_type="linear", **base).explain(small_forest)
        gam = GEF(component_type="spline", n_splines=14, **base).explain(
            small_forest
        )
        assert gam.fidelity["r2"] > glm.fidelity["r2"] + 0.2

    def test_glm_local_explanation_works(self, small_forest):
        expl = GEF(
            component_type="linear",
            n_univariate=3,
            n_samples=2000,
            random_state=0,
        ).explain(small_forest)
        local = expl.local_explanation(np.full(5, 0.5))
        assert len(local.contributions) == 3
        # Linear components carry no what-if window (nothing to zoom).
        assert all(c.window_grid is None for c in local.contributions)


class TestDataFreeProperty:
    def test_explanation_uses_only_forest(self, small_forest, d_prime_small):
        """Serializing the forest and explaining the clone must agree:
        nothing outside the forest structure can influence GEF."""
        from repro.forest import forest_from_dict, forest_to_dict

        clone = forest_from_dict(forest_to_dict(small_forest))
        cfg = dict(
            n_univariate=3, n_samples=2000, k_points=30, random_state=0
        )
        original = GEF(**cfg).explain(small_forest)
        from_clone = GEF(**cfg).explain(clone)
        X = d_prime_small.X_test[:100]
        np.testing.assert_allclose(
            original.predict(X), from_clone.predict(X), atol=1e-10
        )


class TestStageRunner:
    """The one attempt loop, driven with synthetic attempts."""

    @staticmethod
    def _run(attempts, recoverable=(SamplingError,), fallback=None, **config):
        from repro.core.explainer import _StageRunner
        from repro.core.stages import StageReport

        report = StageReport()
        runner = _StageRunner(GEFConfig(**config), report, verbose=False)
        value = runner.run(
            "s", attempts, recoverable=recoverable, fallback=fallback
        )
        return value, report["s"]

    @staticmethod
    def _failing(message="injected"):
        def fn():
            raise SamplingError(message)

        return fn

    def test_first_attempt_is_ok(self):
        value, record = self._run([(lambda: 7, (0, None), None)])
        assert value == 7
        assert record.status == "ok"
        assert record.fallback is None
        assert [a.outcome for a in record.attempts] == ["ok"]

    def test_retry_on_the_same_step_recovers(self):
        value, record = self._run(
            [
                (self._failing(), (0, "full"), None),
                (lambda: 1, (0, "full"), "retrying"),
            ]
        )
        assert value == 1
        assert record.status == "recovered"
        assert record.fallback is None
        assert [(a.outcome, a.note) for a in record.attempts] == [
            ("retry", "retrying (backoff 0s)"),
            ("ok", None),
        ]

    def test_new_step_degrades_with_its_rung(self):
        value, record = self._run(
            [
                (self._failing(), (0, "full"), None),
                (lambda: 2, (1, "linear"), "linear fallback"),
            ]
        )
        assert value == 2
        assert record.status == "degraded"
        assert record.fallback == "linear"
        assert [(a.outcome, a.note) for a in record.attempts] == [
            ("degraded", "linear fallback"),
            ("ok", None),
        ]

    def test_unrecoverable_failure_is_wrapped_typed(self):
        def crash():
            raise RuntimeError("boom")

        with pytest.raises(StageFailureError) as excinfo:
            self._run(
                [(crash, (0, None), None), (lambda: 1, (0, None), "retrying")]
            )
        assert excinfo.value.stage == "s"

    def test_exhausted_attempts_raise_the_last_error(self):
        with pytest.raises(SamplingError, match="second") as excinfo:
            self._run(
                [
                    (self._failing("first"), (0, None), None),
                    (self._failing("second"), (0, None), "retrying"),
                ]
            )
        assert excinfo.value.stage == "s"

    def test_fallback_replaces_a_terminal_failure(self):
        value, record = self._run(
            [(self._failing(), (0, None), None)],
            recoverable=(),
            fallback=("nothing", [], "gave up"),
        )
        assert value == []
        assert record.status == "degraded"
        assert record.fallback == "nothing"
        assert record.error is None
        assert [(a.outcome, a.note) for a in record.attempts] == [
            ("degraded", "gave up")
        ]

    def test_strict_keeps_the_first_attempt_and_no_fallback(self):
        with pytest.raises(SamplingError):
            self._run(
                [
                    (self._failing(), (0, None), None),
                    (lambda: 1, (0, None), "retrying"),
                ],
                fallback=("nothing", [], "gave up"),
                strict=True,
            )

    def test_attempts_are_drawn_lazily(self):
        drawn = []

        def attempts():
            for n in range(5):
                drawn.append(n)
                yield (lambda: n, (0, None), None)

        value, _ = self._run(attempts())
        assert value == 0
        assert drawn == [0]

    def test_retry_backoff_counts_against_the_budget(self):
        attempts = [
            (self._failing(), (0, None), None),
            (self._failing(), (0, None), "retrying"),
            (lambda: 1, (0, None), "retrying"),
        ]
        with pytest.raises(StageTimeoutError) as excinfo:
            self._run(
                attempts, retry_backoff=0.02, stage_timeout={"s": 0.03}
            )
        assert excinfo.value.stage == "s"
        value, _ = self._run(attempts, stage_timeout={"s": 0.03})
        assert value == 1
