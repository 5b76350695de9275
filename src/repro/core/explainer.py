"""The GEF pipeline: forest in, GAM explanation out (Figure 1).

``GEF.explain`` chains the paper's steps: univariate selection from the
forest's gains, sampling-domain construction from its thresholds, synthetic
dataset D* labelled by querying the forest, interaction selection, and a
GCV-tuned GAM fit.  Crucially, *no training data is touched* — the only
inputs are the forest structure and the forest's own query API.

Because that forest is an arbitrary, untrusted artifact, the pipeline is
wrapped in a resilience layer (DESIGN.md §9): every step runs as a named
*stage* under an optional wall-clock budget, and one attempt loop handles
every recovery — reseeded resampling on a degenerate D*, lambda-grid
escalation and a ridge bump on a divergent fit, a degradation ladder that
drops the lowest-ranked tensor term, then factor terms, then all the way
to a linear (GLM) surrogate, and |F''| = 0 when interaction selection
fails — rather than crash.  Every decision is recorded in a
machine-readable :class:`~repro.core.stages.StageReport` attached to the
explanation; ``GEFConfig(strict=True)`` disables all recovery and fails
fast with a typed :class:`~repro.core.errors.ReproError`.
"""

from __future__ import annotations

import itertools
import time
from functools import partial

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
from .stages import StageAttempt, StageReport, get_stage_hook
from .validate import validate_domains, validate_forest

__all__ = ["GEF"]

#: Failures the fit ladder treats as recoverable: divergent/singular
#: solves and numerics faults inside the guarded kernels.
_FIT_FAULTS = (FitDivergenceError, FloatingPointError, np.linalg.LinAlgError)

#: The trials of one ladder rung: (lambda-grid scale, ridge floor, note).
#: The plain fit, then the grid escalated ×100 (heavier smoothing
#: regularizes an ill-conditioned design), then a ridge bump on top of it
#: (1e-4 vs. the 1e-8 default).
_FIT_TRIALS = (
    (1.0, 0.0, None),
    (100.0, 0.0, "lambda grid escalated"),
    (100.0, 1e-4, "lambda grid escalated + ridge bump"),
)

#: The step of a stage without a degradation ladder.
_NO_LADDER = (0, None)

#: Prime stride used to derive deterministic retry seeds.
_RESEED_STRIDE = 7919


def _reseed(random_state, attempt: int):
    """Deterministic per-attempt seed for resampling retries."""
    if attempt == 1 or isinstance(random_state, np.random.Generator):
        return random_state  # a Generator streams fresh draws by itself
    base = 0 if random_state is None else int(random_state)
    return base + _RESEED_STRIDE * (attempt - 1)


def _once(fn) -> list:
    """The attempts of a stage without recovery: ``fn`` once."""
    return [(fn, _NO_LADDER, None)]


class _StageRunner:
    """Executes pipeline stages: the pipeline's one attempt loop.

    ``run`` tries ``attempts`` — ``(fn, step, note)`` triples, where
    ``step`` is the ``(index, rung)`` of the degradation-ladder step the
    attempt runs and ``note`` the recovery that leads to it — and returns
    the first ``fn()`` value.  A failure in ``recoverable`` moves on to the
    next attempt: a ``"retry"`` on the same step (after deterministic
    exponential backoff), ``"degraded"`` onto a new one.  The runner alone
    sets the record's status: ``ok`` on the first attempt, ``recovered``
    on the first step, ``degraded`` (``fallback`` naming the rung)
    otherwise.  A terminal failure takes ``fallback`` — a
    ``(name, value, note)`` triple — when given, and is raised as (or
    wrapped into) a typed :class:`ReproError` carrying the stage name
    otherwise.  The stage's ``stage_timeout`` budget runs from its start,
    backoff included.  Strict mode runs the first attempt only and takes
    no fallback.  A stage hook installed via
    :func:`repro.core.stages.set_stage_hook` runs before every attempt and
    may kill it (by raising) or stall it (by returning synthetic seconds).
    """

    def __init__(self, config: GEFConfig, report: StageReport, verbose: bool):
        self.config = config
        self.report = report
        self.verbose = verbose

    def run(self, stage: str, attempts, recoverable: tuple = (), fallback=None):
        cfg = self.config
        budget = cfg.stage_timeout
        if isinstance(budget, dict):
            budget = budget.get(stage)
        attempts = iter(attempts)
        if cfg.strict:
            attempts, fallback = itertools.islice(attempts, 1), None
        record = self.report.record(stage)
        # All timing below reads the pipeline clock (repro.obs.trace):
        # synthetic stall seconds charged by fault hooks advance that
        # clock, so budgets, records and spans agree deterministically.
        tracer = get_tracer()
        stage_span = None
        if tracer is not None:
            stage_span = tracer.start(f"stage.{stage}")
            record.span_id = stage_span.span_id
        started = monotonic()
        try:
            return self._attempt_loop(
                stage, attempts, recoverable, fallback, budget, record, started
            )
        finally:
            record.duration_s = monotonic() - started
            if stage_span is not None:
                stage_span.set(
                    status=record.status,
                    attempts=len(record.attempts),
                    fallback=record.fallback,
                )
                tracer.finish(stage_span)

    def _attempt_loop(
        self, stage, attempts, recoverable, fallback, budget, record, started
    ):
        tracer = get_tracer()
        fn, step, _ = next(attempts)
        first_step = step
        step_retries = 0
        for number in itertools.count(1):
            attempt_span = None
            if tracer is not None:
                attempt_span = tracer.start(
                    f"stage.{stage}.attempt", attempt=number, rung=step[1]
                )
            start = monotonic()
            try:
                hook = get_stage_hook(stage)
                if hook is not None:
                    # Synthetic stall seconds enter every downstream
                    # duration through the shared clock offset.
                    clock_advance(float(hook(stage) or 0.0))
                _check_budget(stage, budget, started)
                value = fn()
                _check_budget(stage, budget, started)
            except Exception as exc:
                duration = _end_attempt(record, tracer, attempt_span, start, exc)
                upcoming = (
                    next(attempts, None) if isinstance(exc, recoverable) else None
                )
                if upcoming is None and fallback is None:
                    typed = _typed(exc, stage)
                    record.attempts.append(
                        StageAttempt("failed", str(exc), None, duration)
                    )
                    record.status, record.error = "failed", str(typed)
                    if typed is exc:
                        raise
                    raise typed from exc
                if upcoming is None:
                    name, value, note = fallback
                    record.attempts.append(
                        StageAttempt("degraded", str(exc), note, duration)
                    )
                    record.status, record.fallback = "degraded", name
                    return value
                fn, next_step, note = upcoming
                delay = 0.0
                if next_step == step:
                    outcome = "retry"
                    delay = self.config.retry_backoff * 2**step_retries
                    step_retries += 1
                    note = f"{note} (backoff {delay:g}s)"
                    metric_inc(f"{stage}.retries")
                else:
                    outcome, step_retries = "degraded", 0
                    metric_inc(f"{stage}.rung_descents")
                    metric_gauge("degrade.rung", next_step[0])
                record.attempts.append(
                    StageAttempt(outcome, str(exc), note, duration)
                )
                if self.verbose:
                    print(f"[gef] {stage}: {outcome} after {exc}")
                if delay > 0:
                    time.sleep(delay)
                step = next_step
                continue
            duration = _end_attempt(record, tracer, attempt_span, start)
            record.attempts.append(StageAttempt("ok", duration_s=duration))
            if number == 1:
                record.status = "ok"
            elif step == first_step:
                record.status = "recovered"
            else:
                record.status, record.fallback = "degraded", step[1]
            return value


def _end_attempt(record, tracer, attempt_span, start: float, error=None) -> float:
    """Close an attempt's span and book its duration; returns it."""
    duration = monotonic() - start
    record.elapsed += duration
    if attempt_span is not None:
        if error is not None:
            attempt_span.set(error=str(error))
        tracer.finish(attempt_span)
    return duration


def _typed(exc: Exception, stage: str) -> ReproError:
    """``exc`` as a typed :class:`ReproError` naming ``stage``."""
    if isinstance(exc, ReproError):
        if exc.stage is None:
            exc.stage = stage
        return exc
    return StageFailureError(
        f"stage '{stage}' crashed: {type(exc).__name__}: {exc}", stage=stage
    )


def _check_budget(stage: str, budget, started: float) -> None:
    """Raise :class:`StageTimeoutError` once the stage outran its budget."""
    elapsed = monotonic() - started
    if budget is not None and elapsed > budget:
        raise StageTimeoutError(
            f"stage '{stage}' took {elapsed:.1f}s (budget {budget:.1f}s)",
            stage=stage,
        )


def _check_dataset(dataset, features: list[int]) -> None:
    """Reject a degenerate D* (recoverable: the sample stage reseeds).

    Domains are strictly increasing, so a selected feature is constant
    in the training split exactly when its codes there are all equal.  A
    feature without codes is checked on its values.
    """
    y = np.concatenate([dataset.y_train, dataset.y_test])
    if y.size and y.min() == y.max():
        raise SamplingError(
            "degenerate D*: the forest labels every sampled instance "
            "identically"
        )
    codes = getattr(dataset, "codes_train", None) or {}
    for f in features:
        column = codes[f] if f in codes else dataset.X_train[:, f]
        if column.min() == column.max():
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

    def _fit_attempts(
        self, dataset, features, pairs, thresholds, is_classifier, feature_names
    ):
        """The fit stage's attempts: every rung × trial of the ladder.

        Each rung is fitted as is, then retried — up to ``max_retries``
        times, at most twice — with the lambda grid escalated and then a
        ridge bump, before the ladder drops to a simpler model.  The last
        attempt (the first in strict mode) raises its divergence as a
        :class:`FitDivergenceError` naming the exhausted ladder.
        """
        cfg = self.config
        trials = _FIT_TRIALS[: 1 + min(cfg.max_retries, 2)]
        plan = _rung_plan(pairs)
        exhausted = "the GAM fit failed on every rung of the degradation ladder"
        if cfg.strict:
            exhausted = "the GAM fit diverged (strict mode: no ladder)"

        def fit(rung, rung_pairs, scale, ridge, last):
            gam = build_gam(
                features, rung_pairs, thresholds, cfg,
                is_classifier, feature_names, rung,
            )
            gam.ridge = max(gam.ridge, ridge)
            lam_grid = np.asarray(
                default_lam_grid() if cfg.lam_grid is None else cfg.lam_grid,
                dtype=np.float64,
            )
            try:
                gam.gridsearch(
                    dataset.X_train,
                    dataset.y_train,
                    lam_grid=lam_grid * scale,
                    coding=dataset.coding("train"),
                )
            except _FIT_FAULTS as exc:
                if not last:
                    raise
                raise FitDivergenceError(
                    f"{exhausted}: {exc}", stage="fit"
                ) from exc
            return gam, rung_pairs

        for index, (rung, rung_pairs, rung_note) in enumerate(plan):
            for trial, (scale, ridge, trial_note) in enumerate(trials):
                last = cfg.strict or (
                    index == len(plan) - 1 and trial == len(trials) - 1
                )
                yield (
                    partial(fit, rung, rung_pairs, scale, ridge, last),
                    (index, rung),
                    trial_note if trial else rung_note,
                )

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
        if feature_names is not None and len(feature_names) != int(
            forest.n_features_
        ):
            raise ForestValidationError(
                f"feature_names has {len(feature_names)} entries, "
                f"forest has {forest.n_features_} features",
                stage="validate",
            )
        cfg = self.config
        runner = _StageRunner(cfg, StageReport(), verbose)
        with obs_span(
            "explain",
            n_trees=int(getattr(forest, "n_trees_", 0) or 0),
            n_features=int(forest.n_features_),
            n_samples=int(cfg.n_samples),
        ):
            explanation = self._explain_pipeline(
                forest, feature_names, verbose, runner
            )
        return explanation

    def _explain_pipeline(
        self, forest, feature_names, verbose, runner
    ) -> GEFExplanation:
        cfg = self.config

        if cfg.validate_inputs:
            runner.run("validate", _once(partial(validate_forest, forest)))

        def _select():
            thresholds = feature_thresholds(forest)
            features = select_univariate(forest, cfg.n_univariate)
            return thresholds, features

        thresholds, features = runner.run("select", _once(_select))
        if verbose:
            print(f"[gef] F' = {features}")

        def _domains():
            domains = build_sampling_domains(
                thresholds,
                cfg.sampling_strategy,
                k=cfg.k_points,
                epsilon_fraction=cfg.epsilon_fraction,
                random_state=cfg.random_state,
            )
            if cfg.validate_inputs:
                validate_domains(domains, int(forest.n_features_))
            return domains

        domains = runner.run("domains", _once(_domains))

        def _sample(attempt):
            dataset = generate_dataset(
                forest,
                domains,
                n_samples=cfg.n_samples,
                test_fraction=cfg.test_fraction,
                label=cfg.label,
                random_state=_reseed(cfg.random_state, attempt),
            )
            _check_dataset(dataset, features)
            return dataset

        reseeds = [
            (partial(_sample, attempt), _NO_LADDER, "retrying")
            for attempt in range(1, cfg.max_retries + 2)
        ]
        dataset = runner.run(
            "sample", reseeds, recoverable=(SamplingError, NumericsError)
        )
        if verbose:
            print(
                f"[gef] D*: {dataset.n_samples} instances over "
                f"{len(domains)} features"
            )

        pairs: list[tuple[int, int]] = []
        if cfg.n_interactions > 0:

            def _interactions():
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

            # The Audemard trade: a simpler explanation beats none.
            pairs = runner.run(
                "interactions",
                _once(_interactions),
                fallback=(
                    "no-interactions", [], "interaction selection failed; |F''| = 0"
                ),
            )
            if verbose:
                print(f"[gef] F'' = {pairs}")

        gam, kept_pairs = runner.run(
            "fit",
            self._fit_attempts(
                dataset, features, pairs, thresholds,
                hasattr(forest, "predict_proba"), feature_names,
            ),
            recoverable=_FIT_FAULTS,
        )
        if verbose:
            print(f"[gef] GCV selected lam = {gam.lam:g}")

        with obs_span("fidelity", rows=int(len(dataset.X_test))):
            y_hat = gam.link.inverse(
                gam.coded_eta(dataset.X_test, dataset.coding("test"))
            )
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
            stage_report=runner.report,
        )
