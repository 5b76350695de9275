"""Fidelity drift monitor: reservoir-sampled live traffic vs surrogate.

The paper's fidelity metric — R-squared of the GAM surrogate against the
forest it explains — is computed offline at fit time.  This module turns
it into a serving-time signal: a :class:`ReservoirSampler` (Vitter's
Algorithm R, seeded ``random.Random`` so chaos tests are deterministic)
keeps a uniform sample of live ``/predict`` rows and forest scores per
model; :meth:`DriftMonitor.evaluate` replays the sample through a
caller-supplied surrogate-predict callable and recomputes rolling R²
per model plus a worst-case fleet fidelity.

The monitor never fits anything and never raises from the hot path:
:meth:`DriftMonitor.observe` is a bounded O(rows) append under one lock,
and ``evaluate`` skips any model whose surrogate is not already cached
(the callable returns ``None``).  ``set_skew`` is the fault-injection
hook: a constant offset added to every surrogate prediction, the
``corrupt_forest``-style lever that lets tests drive fidelity through
the SLO thresholds without touching a real model.

Stdlib-only by the layering DAG: ``obs`` is a leaf layer — rows and
scores arrive as plain lists, and the surrogate callable is injected by
the serve layer.
"""

from __future__ import annotations

import math
import random
import threading

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "DriftMonitor",
    "ReservoirSampler",
    "r_squared",
]


class ReservoirSampler:
    """Uniform fixed-capacity sample of a stream (Algorithm R).

    Not thread-safe on its own; :class:`DriftMonitor` serializes access.
    """

    __slots__ = ("capacity", "_rng", "_items", "_seen")

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")  # repro: allow(raise-outside-taxonomy) config-time misuse, not a request failure
        self.capacity = int(capacity)
        self._rng = random.Random(seed)
        self._items: list = []
        self._seen = 0

    def offer(self, item) -> None:
        """Consider one stream element for the reservoir."""
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        j = self._rng.randrange(self._seen)
        if j < self.capacity:
            self._items[j] = item

    def sample(self) -> list:
        """The current reservoir contents (copy)."""
        return list(self._items)

    @property
    def seen(self) -> int:
        return self._seen

    def __len__(self) -> int:
        return len(self._items)


def r_squared(truth: list, approx: list) -> float:
    """Plain-python coefficient of determination of ``approx`` vs ``truth``.

    A constant truth vector degenerates to exact-match semantics (1.0 if
    every residual is zero, else 0.0), matching the offline fidelity
    convention.
    """
    n = len(truth)
    if n == 0 or n != len(approx):
        raise ValueError(  # repro: allow(raise-outside-taxonomy) caller-contract misuse, not a request failure
            "r_squared needs two equal-length non-empty lists"
        )
    mean = sum(truth) / n
    ss_tot = sum((t - mean) ** 2 for t in truth)
    ss_res = sum((t - a) ** 2 for t, a in zip(truth, approx))
    if not ss_tot > 0.0:
        return 1.0 if not ss_res > 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


class DriftMonitor:
    """Per-model reservoirs of live (row, forest score) pairs + rolling R².

    One instance per serve app.  ``observe`` is called on the ``/predict``
    hot path; ``evaluate`` runs on the SLO tick with an injected
    ``predict_for(model_id, rows) -> list | None`` surrogate callable.
    """

    def __init__(
        self,
        capacity: int = 256,
        seed: int = 0,
        min_samples: int = 16,
        clock=None,
    ):
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.min_samples = int(min_samples)
        self._clock = clock if clock is not None else _trace.monotonic
        self._lock = threading.Lock()
        self._samplers: dict[str, ReservoirSampler] = {}
        self._skew = 0.0
        self._last: dict | None = None

    def observe(self, model_id: str, rows: list, scores: list) -> None:
        """Offer each (row, forest score) pair to the model's reservoir.

        Raise-free by contract: length mismatches are dropped rather
        than failing a live request.  A pair with a non-finite cell or
        score is not sampled: the surrogate cannot replay it.
        """
        if not rows or len(rows) != len(scores):
            return
        with self._lock:
            sampler = self._samplers.get(model_id)
            if sampler is None:
                # Per-model seed offset keeps reservoirs independent
                # while the whole run stays reproducible.
                sampler = ReservoirSampler(
                    self.capacity,
                    seed=self.seed + len(self._samplers),
                )
                self._samplers[model_id] = sampler
            for row, score in zip(rows, scores):
                if math.isfinite(score) and all(map(math.isfinite, row)):
                    sampler.offer((list(row), float(score)))
        _metrics.inc("drift.observed", len(rows))

    def set_skew(self, offset: float) -> None:
        """Fault injection: add ``offset`` to every surrogate prediction."""
        with self._lock:
            self._skew = float(offset)

    def forget(self, model_id: str) -> None:
        """Drop the reservoir of an unloaded model."""
        with self._lock:
            self._samplers.pop(model_id, None)

    def samples(self) -> dict:
        """Current reservoir contents per model (copies; tests/debug)."""
        with self._lock:
            return {k: s.sample() for k, s in self._samplers.items()}

    def evaluate(self, predict_for) -> dict:
        """Replay reservoirs through ``predict_for``; rolling fidelity.

        ``predict_for(model_id, rows)`` returns surrogate scores or
        ``None`` when no cached surrogate exists for the model (the
        monitor must never trigger a fit).  Fleet fidelity is the worst
        per-model R² — one drifting model is an incident even if the
        rest are healthy.  Returns ``{"fidelity": float | None,
        "models": {...}, "samples": int, "at_s": float}``.
        """
        with self._lock:
            batches = [
                (model_id, sampler.sample())
                for model_id, sampler in sorted(self._samplers.items())
            ]
            skew = self._skew
        models: dict[str, dict] = {}
        total = 0
        worst: float | None = None
        for model_id, pairs in batches:
            if len(pairs) < self.min_samples:
                continue
            rows = [row for row, _ in pairs]
            truth = [score for _, score in pairs]
            predicted = predict_for(model_id, rows)
            if predicted is None:
                continue
            approx = [float(v) + skew for v in predicted]
            fidelity = r_squared(truth, approx)
            models[model_id] = {
                "fidelity": fidelity,
                "samples": len(pairs),
            }
            total += len(pairs)
            worst = fidelity if worst is None else min(worst, fidelity)
        result = {
            "fidelity": worst,
            "models": models,
            "samples": total,
            "at_s": round(self._clock(), 6),
        }
        with self._lock:
            self._last = result
        if worst is not None:
            _metrics.set_gauge("drift.fidelity", worst)
        _metrics.inc("drift.evaluations")
        return result

    def last(self) -> dict | None:
        """The most recent ``evaluate`` result (``/healthz`` block)."""
        with self._lock:
            return self._last

    def reset(self) -> None:
        """Drop all reservoirs and state (tests)."""
        with self._lock:
            self._samplers.clear()
            self._skew = 0.0
            self._last = None
