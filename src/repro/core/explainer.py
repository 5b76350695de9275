"""The GEF pipeline: forest in, GAM explanation out (Figure 1).

``GEF.explain`` chains the paper's steps: univariate selection from the
forest's gains, sampling-domain construction from its thresholds, synthetic
dataset D* labelled by querying the forest, interaction selection, and a
GCV-tuned GAM fit.  Crucially, *no training data is touched* — the only
inputs are the forest structure and the forest's own query API.

Because that forest is an arbitrary, untrusted artifact, the pipeline is
wrapped in a resilience layer (DESIGN.md §9): every step runs as a named
*stage* under an optional wall-clock budget, recoverable failures are
retried deterministically (reseeded resampling on a degenerate D*,
lambda-grid escalation and a ridge bump on a divergent fit), and the GAM
fit falls down a degradation ladder — drop the lowest-ranked tensor term,
then factor terms, then all the way to a linear (GLM) surrogate — rather
than crash.  Every decision is recorded in a machine-readable
:class:`~repro.core.stages.StageReport` attached to the explanation;
``GEFConfig(strict=True)`` disables all recovery and fails fast with a
typed :class:`~repro.core.errors.ReproError`.
"""

from __future__ import annotations

import time

import numpy as np

from ..gam.gcv import default_lam_grid
from ..metrics import r2_score, rmse
from ..obs.metrics import inc as metric_inc, set_gauge as metric_gauge
from ..obs.trace import advance as clock_advance, get_tracer, monotonic
from ..obs.trace import span as obs_span
from .config import GEFConfig
from .dataset import generate_dataset
from .errors import (
    FitDivergenceError,
    ForestValidationError,
    ReproError,
    SamplingError,
    StageFailureError,
    StageTimeoutError,
)
from .explanation import GEFExplanation
from .feature_selection import feature_thresholds, select_univariate
from .gam_builder import build_gam
from .interactions import select_interactions
from .numerics import NumericsError
from .sampling import build_sampling_domains
from .stages import StageAttempt, StageRecord, StageReport, get_stage_hook
from .validate import validate_domains, validate_forest

__all__ = ["GEF"]

#: Failures the fit ladder treats as recoverable: divergent/singular
#: solves and numerics faults inside the guarded kernels.
_FIT_FAULTS = (FitDivergenceError, FloatingPointError, np.linalg.LinAlgError)

#: Multiplier of the lambda-grid escalation retry (heavier smoothing
#: regularizes an ill-conditioned design).
_LAM_ESCALATION = 100.0

#: Ridge floor applied by the ridge-bump retry (vs. the 1e-8 default).
_RIDGE_BUMP = 1e-4

#: Prime stride used to derive deterministic retry seeds.
_RESEED_STRIDE = 7919


def _timeout_for(stage_timeout, stage: str) -> float | None:
    if stage_timeout is None:
        return None
    if isinstance(stage_timeout, dict):
        budget = stage_timeout.get(stage)
        return None if budget is None else float(budget)
    return float(stage_timeout)


def _reseed(random_state, attempt: int):
    """Deterministic per-attempt seed for resampling retries."""
    if isinstance(random_state, np.random.Generator):
        return random_state  # a Generator streams fresh draws by itself
    base = 0 if random_state is None else int(random_state)
    return base + _RESEED_STRIDE * (attempt - 1)


class _StageRunner:
    """Executes pipeline stages with budgets, retries and fault hooks.

    ``run`` calls ``fn(attempt)`` (attempt starts at 1) and returns its
    value.  Exceptions in ``recoverable`` are retried up to the config's
    ``max_retries`` with deterministic exponential backoff; anything else
    is recorded and re-raised as (or wrapped into) a typed
    :class:`ReproError` carrying the stage name.  A stage hook installed
    via :func:`repro.core.stages.set_stage_hook` runs first and may kill
    the stage (by raising) or stall it (by returning synthetic seconds
    that count against the wall-clock budget).
    """

    def __init__(self, config: GEFConfig, report: StageReport, verbose: bool):
        self.config = config
        self.report = report
        self.verbose = verbose

    def run(self, stage: str, fn, recoverable: tuple = ()):
        cfg = self.config
        retries = 0 if cfg.strict else cfg.max_retries
        timeout = _timeout_for(cfg.stage_timeout, stage)
        record = self.report.record(stage)
        # All timing below reads the pipeline clock (repro.obs.trace):
        # synthetic stall seconds charged by fault hooks advance that
        # clock, so budgets, records and spans agree deterministically.
        tracer = get_tracer()
        stage_span = None
        if tracer is not None:
            stage_span = tracer.start(f"stage.{stage}")
            record.span_id = stage_span.span_id
        stage_start = monotonic()
        try:
            return self._attempt_loop(
                stage, fn, recoverable, retries, timeout, record, stage_span
            )
        finally:
            record.duration_s = monotonic() - stage_start
            if stage_span is not None:
                stage_span.set(
                    status=record.status,
                    attempts=len(record.attempts),
                    fallback=record.fallback,
                )
                tracer.finish(stage_span)

    def _attempt_loop(
        self, stage, fn, recoverable, retries, timeout, record, stage_span
    ):
        tracer = get_tracer()
        attempt = 0
        while True:
            attempt += 1
            attempt_span = None
            if tracer is not None:
                attempt_span = tracer.start(
                    f"stage.{stage}.attempt", attempt=attempt
                )
            penalty = 0.0
            start = monotonic()
            try:
                hook = get_stage_hook(stage)
                if hook is not None:
                    penalty = float(hook(stage) or 0.0)
                    # Synthetic stall seconds enter every downstream
                    # duration through the shared clock offset.
                    clock_advance(penalty)
                    if timeout is not None and penalty > timeout:
                        raise StageTimeoutError(
                            f"stage '{stage}' stalled for {penalty:.1f}s "
                            f"(budget {timeout:.1f}s)",
                            stage=stage,
                        )
                value = fn(attempt)
            except Exception as exc:  # noqa: we always re-raise (typed)
                attempt_elapsed = monotonic() - start
                record.elapsed += attempt_elapsed
                if attempt_span is not None:
                    attempt_span.set(error=str(exc))
                    tracer.finish(attempt_span)
                if (
                    isinstance(exc, recoverable)
                    and not isinstance(exc, StageTimeoutError)
                    and attempt <= retries
                ):
                    delay = self.config.retry_backoff * (2 ** (attempt - 1))
                    metric_inc(f"{stage}.retries")
                    record.attempts.append(
                        StageAttempt(
                            outcome="retry",
                            error=str(exc),
                            note=f"retrying (backoff {delay:g}s)",
                            duration_s=attempt_elapsed,
                        )
                    )
                    if self.verbose:
                        print(f"[gef] {stage}: retrying after {exc}")
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if isinstance(exc, ReproError):
                    typed = exc
                    if typed.stage is None:
                        typed.stage = stage
                else:
                    typed = StageFailureError(
                        f"stage '{stage}' crashed: "
                        f"{type(exc).__name__}: {exc}",
                        stage=stage,
                    )
                record.attempts.append(
                    StageAttempt(
                        outcome="failed",
                        error=str(exc),
                        duration_s=attempt_elapsed,
                    )
                )
                record.status = "failed"
                record.error = str(typed)
                if typed is exc:
                    raise
                raise typed from exc
            elapsed = monotonic() - start
            record.elapsed += elapsed
            if attempt_span is not None:
                tracer.finish(attempt_span)
            if timeout is not None and elapsed > timeout:
                timed_out = StageTimeoutError(
                    f"stage '{stage}' took {elapsed:.1f}s "
                    f"(budget {timeout:.1f}s)",
                    stage=stage,
                )
                record.attempts.append(
                    StageAttempt(
                        outcome="failed",
                        error=str(timed_out),
                        duration_s=elapsed,
                    )
                )
                record.status = "failed"
                record.error = str(timed_out)
                raise timed_out
            record.attempts.append(
                StageAttempt(outcome="ok", duration_s=elapsed)
            )
            record.status = "ok" if attempt == 1 else "recovered"
            return value


def _check_dataset(dataset, features: list[int]) -> None:
    """Reject a degenerate D* (recoverable: the sample stage reseeds)."""
    y = np.concatenate([dataset.y_train, dataset.y_test])
    if y.size and float(np.ptp(y)) == 0.0:  # repro: allow(float-eq) exact degeneracy sentinel; test_degenerate_dataset_is_retried
        raise SamplingError(
            "degenerate D*: the forest labels every sampled instance "
            "identically"
        )
    for f in features:
        if float(np.ptp(dataset.X_train[:, f])) == 0.0:  # repro: allow(float-eq) exact degeneracy sentinel; test_degenerate_dataset_is_retried
            raise SamplingError(
                f"degenerate D*: selected feature {f} is constant in the "
                f"training split"
            )


def _rung_plan(pairs: list[tuple[int, int]]) -> list[tuple[str, list, str | None]]:
    """(rung, pairs_subset, note) triples of the degradation ladder."""
    plan: list[tuple[str, list, str | None]] = [("full", pairs, None)]
    for keep in range(len(pairs) - 1, -1, -1):
        dropped = pairs[keep]
        plan.append(
            (
                "drop-tensor",
                pairs[:keep],
                f"dropped tensor term te({dropped[0]},{dropped[1]})",
            )
        )
    plan.append(
        ("univariate-only", [], "dropped factor terms; splines only")
    )
    plan.append(("linear", [], "linear (GLM) fallback"))
    return plan


class GEF:
    """GAM-based Explanation of Forests.

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.GEFConfig`; keyword overrides may be
        given instead (``GEF(n_univariate=7, sampling_strategy="equi-size")``).

    Examples
    --------
    >>> gef = GEF(n_univariate=5, n_interactions=0, n_samples=20_000)
    >>> explanation = gef.explain(forest)            # doctest: +SKIP
    >>> explanation.fidelity["r2"]                   # doctest: +SKIP
    0.98
    >>> explanation.stage_report.degraded            # doctest: +SKIP
    False
    """

    def __init__(self, config: GEFConfig | None = None, **overrides):
        if config is None:
            config = GEFConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config object or keyword overrides")
        self.config = config

    # ------------------------------------------------------------------
    # stage bodies
    # ------------------------------------------------------------------
    def _validate_stage(self, forest, feature_names):
        if feature_names is not None and len(feature_names) != int(
            forest.n_features_
        ):
            raise ForestValidationError(
                f"feature_names has {len(feature_names)} entries, "
                f"forest has {forest.n_features_} features"
            )
        return validate_forest(forest)

    def _fit_stage(
        self,
        dataset,
        features,
        pairs,
        thresholds,
        is_classifier,
        feature_names,
        record: StageRecord,
        verbose: bool,
    ):
        """Fit the surrogate GAM, descending the degradation ladder.

        Within every rung up to two recoverable retries run first —
        lambda-grid escalation, then a ridge bump — before the ladder
        drops to a simpler model.  In strict mode the first failure
        raises; on clean inputs the first attempt of the ``full`` rung
        succeeds and the ladder is a no-op.
        """
        cfg = self.config
        in_rung_retries = 0 if cfg.strict else min(cfg.max_retries, 2)
        plan = _rung_plan(pairs)
        if cfg.strict:
            plan = plan[:1]
        last_error: Exception | None = None
        for rung_index, (rung, rung_pairs, note) in enumerate(plan):
            if rung_index > 0:
                metric_inc("fit.rung_descents")
                metric_gauge("degrade.rung", rung_index)
            for trial in range(1 + in_rung_retries):
                trial_start = monotonic()
                gam = build_gam(
                    features, rung_pairs, thresholds, cfg,
                    is_classifier, feature_names, rung,
                )
                lam_grid = np.asarray(
                    default_lam_grid() if cfg.lam_grid is None else cfg.lam_grid,
                    dtype=np.float64,
                )
                trial_note = None
                if trial >= 1:
                    lam_grid = lam_grid * _LAM_ESCALATION
                    trial_note = "lambda grid escalated"
                if trial >= 2:
                    gam.ridge = max(gam.ridge, _RIDGE_BUMP)
                    trial_note = "lambda grid escalated + ridge bump"
                try:
                    with obs_span("fit.rung", rung=rung, trial=trial):
                        gam.gridsearch(
                            dataset.X_train, dataset.y_train, lam_grid=lam_grid
                        )
                except _FIT_FAULTS as exc:
                    last_error = exc
                    more_trials = trial < in_rung_retries
                    more_rungs = rung_index < len(plan) - 1
                    outcome = (
                        "retry" if more_trials
                        else ("degraded" if more_rungs else "failed")
                    )
                    record.attempts.append(
                        StageAttempt(
                            outcome=outcome,
                            error=str(exc),
                            note=(
                                trial_note if more_trials
                                else (
                                    plan[rung_index + 1][2]
                                    if more_rungs else None
                                )
                            ),
                            duration_s=monotonic() - trial_start,
                        )
                    )
                    if verbose:
                        print(f"[gef] fit [{rung}] failed: {exc}")
                    continue
                if rung != "full":
                    record.fallback = rung
                    if note:
                        record.attempts.append(
                            StageAttempt(outcome="degraded", note=note)
                        )
                return gam, rung_pairs
        message = "the GAM fit failed on every rung of the degradation ladder"
        if cfg.strict:
            message = "the GAM fit diverged (strict mode: no ladder)"
        raise FitDivergenceError(
            f"{message}: {last_error}", stage="fit"
        ) from last_error

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def explain(
        self,
        forest,
        feature_names: list[str] | None = None,
        verbose: bool = False,
    ) -> GEFExplanation:
        """Run the full pipeline against a fitted forest.

        Returns a :class:`~repro.core.explanation.GEFExplanation` whose
        ``stage_report`` records every retry, fallback and budget
        decision.  Failures surface as typed
        :class:`~repro.core.errors.ReproError` subclasses naming the
        failing stage.
        """
        cfg = self.config
        report = StageReport()
        runner = _StageRunner(cfg, report, verbose)
        with obs_span(
            "explain",
            n_trees=int(getattr(forest, "n_trees_", 0) or 0),
            n_features=int(forest.n_features_),
            n_samples=int(cfg.n_samples),
        ):
            explanation = self._explain_pipeline(
                forest, feature_names, verbose, runner, report
            )
        return explanation

    def _explain_pipeline(
        self, forest, feature_names, verbose, runner, report
    ) -> GEFExplanation:
        cfg = self.config

        if cfg.validate_inputs:
            runner.run(
                "validate", lambda attempt: self._validate_stage(forest, feature_names)
            )
        elif feature_names is not None and len(feature_names) != int(
            forest.n_features_
        ):
            raise ForestValidationError(
                f"feature_names has {len(feature_names)} entries, "
                f"forest has {forest.n_features_} features"
            )

        def _select(attempt):
            thresholds = feature_thresholds(forest)
            features = select_univariate(forest, cfg.n_univariate)
            return thresholds, features

        thresholds, features = runner.run("select", _select)
        if verbose:
            print(f"[gef] F' = {features}")

        def _domains(attempt):
            domains = build_sampling_domains(
                forest,
                cfg.sampling_strategy,
                k=cfg.k_points,
                epsilon_fraction=cfg.epsilon_fraction,
                random_state=cfg.random_state,
            )
            if cfg.validate_inputs:
                validate_domains(domains, int(forest.n_features_))
            return domains

        domains = runner.run("domains", _domains)

        def _sample(attempt):
            random_state = cfg.random_state
            if attempt > 1:
                random_state = _reseed(cfg.random_state, attempt)
            dataset = generate_dataset(
                forest,
                domains,
                n_samples=cfg.n_samples,
                test_fraction=cfg.test_fraction,
                label=cfg.label,
                random_state=random_state,
            )
            _check_dataset(dataset, features)
            return dataset

        dataset = runner.run(
            "sample", _sample, recoverable=(SamplingError, NumericsError)
        )
        if verbose:
            print(
                f"[gef] D*: {dataset.n_samples} instances over "
                f"{len(domains)} features"
            )

        pairs: list[tuple[int, int]] = []
        if cfg.n_interactions > 0:

            def _interactions(attempt):
                sample = None
                if cfg.interaction_strategy == "h-stat":
                    sample = dataset.X_train[: cfg.hstat_sample]
                return select_interactions(
                    forest,
                    features,
                    cfg.n_interactions,
                    strategy=cfg.interaction_strategy,
                    sample=sample,
                )

            try:
                pairs = runner.run("interactions", _interactions)
            except ReproError as exc:
                if cfg.strict:
                    raise
                # The Audemard trade: a simpler explanation beats none.
                record = report["interactions"]
                record.status = "degraded"
                record.fallback = "no-interactions"
                record.attempts.append(
                    StageAttempt(
                        outcome="degraded",
                        error=str(exc),
                        note="interaction selection failed; |F''| = 0",
                    )
                )
                pairs = []
            if verbose:
                print(f"[gef] F'' = {pairs}")

        is_classifier = hasattr(forest, "predict_proba")

        def _fit(attempt):
            return self._fit_stage(
                dataset,
                features,
                pairs,
                thresholds,
                is_classifier,
                feature_names,
                report["fit"],
                verbose,
            )

        gam, kept_pairs = runner.run("fit", _fit)
        fit_record = report["fit"]
        if fit_record.fallback is not None:
            fit_record.status = "degraded"
        elif any(a.outcome == "retry" for a in fit_record.attempts):
            fit_record.status = "recovered"
        if verbose:
            print(f"[gef] GCV selected lam = {gam.lam:g}")

        with obs_span("fidelity", rows=int(len(dataset.X_test))):
            y_hat = gam.predict_mu(dataset.X_test)
            fidelity = {
                "rmse": rmse(dataset.y_test, y_hat),
                "r2": r2_score(dataset.y_test, y_hat),
            }
        return GEFExplanation(
            gam=gam,
            features=features,
            pairs=list(kept_pairs),
            dataset=dataset,
            config=cfg,
            feature_names=feature_names,
            fidelity=fidelity,
            stage_report=report,
        )
