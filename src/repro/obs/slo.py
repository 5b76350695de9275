"""Declarative SLO engine: rules, hysteresis, bounded alert log.

An :class:`SloRule` names one scalar signal (``fidelity``,
``p99_latency_s``, ``error_rate``, ...) and two thresholds; evaluating a
rule against a value yields ``ok``, ``warn`` or ``breach``.  The
:class:`SloEngine` holds a tuple of rules plus hysteresis state: a rule
escalates the moment a worse level is observed, but only de-escalates
after ``recover_after`` consecutive better evaluations — so a signal
flapping around a threshold cannot spam the alert log.  Every state
change is appended to a bounded transition log (the ``/healthz`` ``slo``
block) with the pipeline-clock timestamp, value and reason.

The engine is pure bookkeeping: it never gathers signals itself.  The
serve layer computes the values dict (fidelity from
:class:`repro.obs.drift.DriftMonitor`, p99 from the latency histogram
via :func:`quantile_from_histogram`, error rate from counter deltas) and
calls :meth:`SloEngine.evaluate` on each tick.  All timing comes from
the synthetic-offset pipeline clock, so the full ``ok -> warn -> breach
-> recovered`` cycle is testable with ``advance()`` and zero sleeps.

Stdlib-only by the layering DAG: ``obs`` is a leaf layer.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "LEVELS",
    "SloConfig",
    "SloEngine",
    "SloRule",
    "default_slo_config",
    "quantile_from_histogram",
]

#: Severity order: index compares levels (higher index = worse).
LEVELS = ("ok", "warn", "breach")


@dataclass(frozen=True)
class SloRule:
    """One declarative objective over a named scalar signal.

    ``kind="min"`` means the signal must stay *above* the thresholds
    (fidelity floors); ``kind="max"`` means it must stay *below* them
    (latency ceilings, error budgets).  ``warn`` is always the nearer
    threshold, ``breach`` the farther one.
    """

    name: str
    metric: str
    kind: str = "max"
    warn: float = 0.0
    breach: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min"):
            raise ValueError(  # repro: allow(raise-outside-taxonomy) config-time misuse, not a request failure
                f"SloRule kind must be max|min, got {self.kind!r}"
            )
        ordered = self.warn <= self.breach if self.kind == "max" else (
            self.warn >= self.breach
        )
        if not ordered:
            raise ValueError(  # repro: allow(raise-outside-taxonomy) config-time misuse, not a request failure
                f"SloRule {self.name!r}: warn {self.warn} and breach "
                f"{self.breach} are ordered the wrong way for kind "
                f"{self.kind!r}"
            )

    def level(self, value: float) -> str:
        """The raw severity of ``value`` under this rule (no hysteresis)."""
        if self.kind == "max":
            if value > self.breach:
                return "breach"
            if value > self.warn:
                return "warn"
            return "ok"
        if value < self.breach:
            return "breach"
        if value < self.warn:
            return "warn"
        return "ok"


@dataclass(frozen=True)
class SloConfig:
    """Rules plus hysteresis and the breach action.

    ``breach_action`` selects what the owner of the engine does when a
    rule *enters* breach: ``"log"`` (default — transition log + metrics
    only) or ``"invalidate"`` (additionally drop every cached surrogate,
    forcing fresh fits; the serve layer also ledgers the action).  The
    engine itself stays pure bookkeeping — the action runs in the
    ``on_transition`` hook its owner installs.
    """

    rules: tuple = ()
    recover_after: int = 2
    transition_log: int = 50
    breach_action: str = "log"

    def __post_init__(self) -> None:
        if self.recover_after < 1:
            raise ValueError("recover_after must be >= 1")  # repro: allow(raise-outside-taxonomy) config-time misuse, not a request failure
        if self.breach_action not in ("log", "invalidate"):
            raise ValueError(  # repro: allow(raise-outside-taxonomy) config-time misuse, not a request failure
                f"breach_action must be log|invalidate, got "
                f"{self.breach_action!r}"
            )


def default_slo_config(
    fidelity_warn: float = 0.9,
    fidelity_breach: float = 0.8,
    p99_s: float = 0.25,
    error_budget: float = 0.01,
    **kwargs,
) -> SloConfig:
    """The stock rule set: fidelity floor, p99 ceiling, error budget."""
    rules = (
        SloRule(
            name="fidelity_floor",
            metric="fidelity",
            kind="min",
            warn=fidelity_warn,
            breach=fidelity_breach,
        ),
        SloRule(
            name="p99_latency",
            metric="p99_latency_s",
            kind="max",
            warn=p99_s,
            breach=4.0 * p99_s,
        ),
        SloRule(
            name="error_budget",
            metric="error_rate",
            kind="max",
            warn=error_budget,
            breach=4.0 * error_budget,
        ),
    )
    return SloConfig(rules=rules, **kwargs)


class _RuleState:
    """Mutable hysteresis state for one rule."""

    __slots__ = ("level", "better_streak", "last_value", "since_s")

    def __init__(self) -> None:
        self.level = "ok"
        self.better_streak = 0
        self.last_value: float | None = None
        self.since_s: float | None = None


class SloEngine:
    """Evaluate rules with hysteresis; keep a bounded transition log.

    ``on_transition`` is an optional ``on_transition(transition_dict)``
    hook fired once per state change, *after* the engine lock is
    released (so the hook may call back into anything, including the
    engine).  A hook failure is counted in ``slo.action_errors`` and
    never poisons the evaluation.
    """

    def __init__(self, config: SloConfig, clock=None, on_transition=None):
        self.config = config
        self._clock = clock if clock is not None else _trace.monotonic
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._states = {rule.name: _RuleState() for rule in config.rules}
        self._transitions: deque = deque(maxlen=config.transition_log)
        self._evaluations = 0

    def evaluate(self, values: dict) -> str:
        """Feed one tick of signals; returns the overall state after it.

        ``values`` maps metric names to floats; a rule whose metric is
        missing or ``None`` (signal not warmed up yet) keeps its current
        state untouched.  Escalation is immediate; de-escalation needs
        ``recover_after`` consecutive evaluations at a better level.
        """
        now = self._clock()
        fired: list[dict] = []
        with self._lock:
            self._evaluations += 1
            for rule in self.config.rules:
                value = values.get(rule.metric)
                if value is None or math.isnan(value):
                    continue
                state = self._states[rule.name]
                state.last_value = float(value)
                raw = rule.level(float(value))
                cur_i = LEVELS.index(state.level)
                raw_i = LEVELS.index(raw)
                if raw_i > cur_i:
                    fired.append(
                        self._shift(rule, state, raw, now, reason="escalated")
                    )
                elif raw_i < cur_i:
                    state.better_streak += 1
                    if state.better_streak >= self.config.recover_after:
                        reason = (
                            "recovered" if raw == "ok" else "de-escalated"
                        )
                        fired.append(
                            self._shift(rule, state, raw, now, reason=reason)
                        )
                else:
                    state.better_streak = 0
            overall = self._overall_locked()
            _metrics.set_gauge("slo.level", float(LEVELS.index(overall)))
            _metrics.inc("slo.evaluations")
        if self._on_transition is not None:
            for transition in fired:
                try:
                    self._on_transition(dict(transition))
                except Exception:  # repro: allow(broad-except) a breach-action hook must never poison the SLO tick
                    _metrics.inc("slo.action_errors")
        return overall

    def _shift(self, rule, state, level, now, *, reason) -> dict:
        transition = {
            "rule": rule.name,
            "from": state.level,
            "to": level,
            "value": state.last_value,
            "reason": reason,
            "at_s": round(now, 6),
        }
        self._transitions.append(transition)
        state.level = level
        state.better_streak = 0
        state.since_s = now
        _metrics.inc(f"slo.transitions.{level}")
        return transition

    def _overall_locked(self) -> str:
        worst = 0
        for state in self._states.values():
            worst = max(worst, LEVELS.index(state.level))
        return LEVELS[worst]

    def state(self) -> str:
        """The worst current level across all rules."""
        with self._lock:
            return self._overall_locked()

    def view(self) -> dict:
        """The ``/healthz`` ``slo`` block: per-rule state + transitions."""
        with self._lock:
            rules = {}
            for rule in self.config.rules:
                state = self._states[rule.name]
                rules[rule.name] = {
                    "metric": rule.metric,
                    "kind": rule.kind,
                    "warn": rule.warn,
                    "breach": rule.breach,
                    "level": state.level,
                    "value": state.last_value,
                    "since_s": state.since_s,
                }
            return {
                "state": self._overall_locked(),
                "evaluations": self._evaluations,
                "rules": rules,
                "transitions": list(self._transitions),
            }

    def reset(self) -> None:
        """Back to all-ok with an empty transition log (tests)."""
        with self._lock:
            for state in self._states.values():
                state.level = "ok"
                state.better_streak = 0
                state.last_value = None
                state.since_s = None
            self._transitions.clear()
            self._evaluations = 0


def quantile_from_histogram(hist: dict, q: float) -> float | None:
    """Approximate the ``q``-quantile of a log2 histogram snapshot.

    Walks the cumulative bucket counts to the first upper bound covering
    ``q * count`` observations — the same upper-bound semantics as the
    Prometheus ``le`` rendering, so the answer is conservative (an upper
    estimate).  The unbounded tail falls back to the recorded ``max``.
    Returns ``None`` for an empty histogram.
    """
    count = int(hist.get("count", 0))
    if count <= 0:
        return None
    target = q * count
    buckets = hist.get("buckets", {})
    seen = 0
    for key in sorted(buckets, key=_metrics._bucket_upper_bound):
        seen += int(buckets[key])
        if seen >= target:
            upper = _metrics._bucket_upper_bound(key)
            if math.isinf(upper):
                break
            return upper
    return float(hist.get("max") or 0.0)
