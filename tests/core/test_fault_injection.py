"""Chaos suite: every injected fault ends in a typed error or a degraded
explanation whose StageReport names the fallback — never a raw traceback.

Runs under ``REPRO_NUMERICS=strict`` like the whole suite (conftest arms
the sanitizer), so injected numerics faults and real ones take the same
path through the stage runner.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GEF,
    FitDivergenceError,
    ForestValidationError,
    GEFConfig,
    ReproError,
    SamplingError,
    StageReport,
    StageTimeoutError,
    explanation_from_dict,
    explanation_to_dict,
    get_stage_hook,
)
from repro.core.errors import StageFailureError
from repro.core.stages import STAGE_NAMES, set_stage_hook
from repro.devtools import (
    FOREST_FAULTS,
    corrupt_forest,
    fail_stage,
    force_kernel_fault,
    stall_stage,
)
from repro.forest import GradientBoostingRegressor
from repro.obs.trace import advance as clock_advance


@pytest.fixture(scope="module")
def forest():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(500, 5))
    y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) + X[:, 2] * X[:, 3]
    model = GradientBoostingRegressor(
        n_estimators=25, num_leaves=8, random_state=0
    )
    model.fit(X, y)
    return model


def _attempts(record) -> list[tuple[str, str | None]]:
    return [(a.outcome, a.note) for a in record.attempts]


def _gef(**overrides) -> GEF:
    base = dict(
        n_univariate=3, n_interactions=1, n_samples=1_500, random_state=0
    )
    base.update(overrides)
    return GEF(GEFConfig(**base))


# ----------------------------------------------------------------------
# corrupted forests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fault", FOREST_FAULTS)
def test_corrupted_forest_fails_typed(forest, fault):
    with pytest.raises(ForestValidationError) as excinfo:
        _gef().explain(corrupt_forest(forest, fault))
    assert excinfo.value.stage == "validate"


def test_validation_can_be_skipped(forest):
    """validate_inputs=False trades safety for speed — by explicit choice."""
    explanation = _gef(validate_inputs=False).explain(forest)
    assert "validate" not in explanation.stage_report


# ----------------------------------------------------------------------
# kernel numerics faults and the fit ladder
# ----------------------------------------------------------------------
def test_transient_kernel_fault_recovers(forest):
    with force_kernel_fault("GCV", count=1):
        explanation = _gef().explain(forest)
    record = explanation.stage_report["fit"]
    assert record.status == "recovered"
    assert record.fallback is None
    assert explanation.pairs  # nothing was dropped
    assert any(a.outcome == "retry" for a in record.attempts)


@pytest.mark.parametrize(
    "count, rung",
    [(3, "drop-tensor"), (6, "univariate-only"), (9, "linear")],
)
def test_ladder_descends_rung_by_rung(forest, count, rung):
    with force_kernel_fault("GCV", count=count):
        explanation = _gef().explain(forest)
    record = explanation.stage_report["fit"]
    assert record.status == "degraded"
    assert record.fallback == rung
    assert explanation.pairs == []
    assert explanation.stage_report.degraded
    assert rung in explanation.stage_report.fallbacks
    assert rung in explanation.summary()
    assert np.isfinite(explanation.fidelity["r2"])


def test_persistent_kernel_fault_exhausts_ladder(forest):
    with pytest.raises(FitDivergenceError) as excinfo:
        with force_kernel_fault("GCV", repeat=True):
            _gef().explain(forest)
    assert excinfo.value.stage == "fit"
    assert "ladder" in str(excinfo.value)


def test_fit_retry_note_names_the_next_recovery(forest):
    with force_kernel_fault("GCV", count=1):
        explanation = _gef().explain(forest)
    record = explanation.stage_report["fit"]
    assert _attempts(record) == [
        ("retry", "lambda grid escalated (backoff 0s)"),
        ("ok", None),
    ]
    assert "injected numerics fault" in record.attempts[0].error


def test_fit_ladder_attempt_list(forest):
    """One attempt per rung × trial; no marker after the degraded one."""
    with force_kernel_fault("GCV", count=3):
        explanation = _gef().explain(forest)
    record = explanation.stage_report["fit"]
    assert _attempts(record) == [
        ("retry", "lambda grid escalated (backoff 0s)"),
        ("retry", "lambda grid escalated + ridge bump (backoff 0s)"),
        ("degraded", "dropped tensor term te(0,1)"),
        ("ok", None),
    ]
    assert all(
        "injected numerics fault" in a.error for a in record.attempts[:-1]
    )
    assert record.error is None


def test_strict_mode_fails_fast(forest):
    with pytest.raises(FitDivergenceError) as excinfo:
        with force_kernel_fault("GCV", count=1):
            _gef(strict=True).explain(forest)
    assert "strict" in str(excinfo.value)


def test_clean_run_never_degrades(forest):
    """Acceptance criterion: the ladder is a no-op when nothing fails."""
    explanation = _gef().explain(forest)
    report = explanation.stage_report
    assert not report.degraded
    assert report.fallbacks == []
    for record in report.records:
        assert record.status == "ok"
        assert len(record.attempts) == 1


# ----------------------------------------------------------------------
# stage kills, stalls and retries
# ----------------------------------------------------------------------
def test_untyped_crash_is_wrapped(forest):
    with pytest.raises(StageFailureError) as excinfo:
        with fail_stage("select"):
            _gef().explain(forest)
    assert excinfo.value.stage == "select"
    assert "RuntimeError" in str(excinfo.value)


def test_stall_beyond_budget_times_out(forest):
    gef = _gef(stage_timeout={"sample": 5.0})
    with pytest.raises(StageTimeoutError) as excinfo:
        with stall_stage("sample", 60.0):
            gef.explain(forest)
    assert excinfo.value.stage == "sample"
    assert "budget" in str(excinfo.value)


def test_budget_spans_every_attempt_of_a_stage(forest):
    """Three 3 s sample attempts overrun a 5 s budget although none does
    alone: the budget runs from the stage's start."""
    calls = [0]

    def hook(stage):
        calls[0] += 1
        clock_advance(3.0)
        if calls[0] <= 2:
            raise SamplingError("injected degenerate D*")

    set_stage_hook("sample", hook)
    try:
        with pytest.raises(StageTimeoutError) as excinfo:
            _gef(stage_timeout={"sample": 5.0}).explain(forest)
    finally:
        set_stage_hook("sample", None)
    assert excinfo.value.stage == "sample"
    assert calls[0] == 3


def test_stall_within_budget_passes(forest):
    gef = _gef(stage_timeout={"sample": 120.0})
    with stall_stage("sample", 1.0):
        explanation = gef.explain(forest)
    assert explanation.stage_report["sample"].status == "ok"
    assert explanation.stage_report["sample"].elapsed >= 1.0


def test_scalar_timeout_applies_to_every_stage(forest):
    gef = _gef(stage_timeout=5.0)
    with pytest.raises(StageTimeoutError) as excinfo:
        with stall_stage("domains", 60.0):
            gef.explain(forest)
    assert excinfo.value.stage == "domains"


def test_transient_sampling_fault_reseeds(forest):
    with fail_stage("sample", exc=SamplingError("injected degenerate D*")):
        explanation = _gef().explain(forest)
    record = explanation.stage_report["sample"]
    assert record.status == "recovered"
    assert [a.outcome for a in record.attempts] == ["retry", "ok"]


def test_persistent_sampling_fault_is_typed(forest):
    with pytest.raises(SamplingError) as excinfo:
        with fail_stage(
            "sample", exc=SamplingError("injected degenerate D*"), repeat=True
        ):
            _gef().explain(forest)
    assert excinfo.value.stage == "sample"


def test_strict_mode_disables_retries(forest):
    with pytest.raises(SamplingError):
        with fail_stage("sample", exc=SamplingError("injected")):
            _gef(strict=True).explain(forest)


def test_interactions_failure_degrades_to_univariate(forest):
    with fail_stage("interactions", repeat=True):
        explanation = _gef().explain(forest)
    record = explanation.stage_report["interactions"]
    assert record.status == "degraded"
    assert record.fallback == "no-interactions"
    assert explanation.pairs == []
    assert np.isfinite(explanation.fidelity["r2"])
    assert _attempts(record) == [
        ("degraded", "interaction selection failed; |F''| = 0")
    ]
    assert "injected failure" in record.attempts[0].error


def test_interactions_failure_strict_raises(forest):
    with pytest.raises(StageFailureError) as excinfo:
        with fail_stage("interactions", repeat=True):
            _gef(strict=True).explain(forest)
    assert excinfo.value.stage == "interactions"


@pytest.mark.parametrize("stage", STAGE_NAMES)
def test_every_stage_kill_ends_typed(forest, stage):
    """Zero unhandled tracebacks: whatever stage dies, the failure is a
    ReproError or a successful degraded explanation."""
    try:
        with fail_stage(stage, repeat=True):
            explanation = _gef().explain(forest)
    except ReproError as exc:
        assert exc.stage == stage
    else:
        assert explanation.stage_report.degraded


def test_hooks_are_restored_after_injection(forest):
    with fail_stage("select"):
        assert get_stage_hook("select") is not None
    assert get_stage_hook("select") is None


# ----------------------------------------------------------------------
# the stage report artifact
# ----------------------------------------------------------------------
def test_stage_report_roundtrip(forest):
    with force_kernel_fault("GCV", count=3):
        explanation = _gef().explain(forest)
    data = explanation_to_dict(explanation)
    restored = explanation_from_dict(data)
    assert isinstance(restored.stage_report, StageReport)
    assert restored.stage_report.to_dict() == explanation.stage_report.to_dict()
    assert restored.stage_report["fit"].fallback == "drop-tensor"
    assert restored.stage_report.degraded


def test_stage_report_summary_names_everything(forest):
    explanation = _gef().explain(forest)
    summary = explanation.stage_report.summary()
    for stage in STAGE_NAMES:
        assert stage in summary


def test_degenerate_dataset_detection(forest):
    """A forest labelling every instance identically is a SamplingError."""
    from repro.core.explainer import _check_dataset

    class Flat:
        X_train = np.ones((8, 5))
        y_train = np.zeros(8)
        y_test = np.zeros(4)

    with pytest.raises(SamplingError, match="identically"):
        _check_dataset(Flat(), [0])

    class FlatFeature:
        X_train = np.concatenate(
            [np.ones((8, 1)), np.arange(8.0)[:, None]], axis=1
        )
        y_train = np.arange(8.0)
        y_test = np.arange(4.0)

    with pytest.raises(SamplingError, match="constant"):
        _check_dataset(FlatFeature(), [0])
    _check_dataset(FlatFeature(), [1])  # non-constant column passes
