"""Stage bookkeeping for the resilient GEF pipeline.

The stage runner in :mod:`repro.core.explainer` executes each pipeline
step (validate → select → domains → sample → interactions → fit) as a
list of attempts under one wall-clock budget per stage, with
deterministic retries, a degradation ladder and fallbacks.
This module holds the machine-readable record of those decisions — the
:class:`StageReport` attached to every explanation — plus the hook
registry the deterministic fault-injection harness
(:mod:`repro.devtools.faultinject`) uses to kill or stall named stages.

A stage hook is a callable ``hook(stage_name) -> float | None`` invoked
*before* every attempt of the stage body.  It may raise (killing the
attempt, which the runner then handles like any failure) or return
a number of synthetic "stalled" seconds that count against the stage's
wall-clock budget — which is how the chaos suite tests timeouts without
sleeping.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field
from typing import Callable

__all__ = [
    "StageAttempt",
    "StageRecord",
    "StageReport",
    "clear_stage_hooks",
    "get_stage_hook",
    "set_stage_hook",
]

STAGE_NAMES = ("validate", "select", "domains", "sample", "interactions", "fit")

_hooks_lock = threading.Lock()
_stage_hooks: dict[str, Callable[[str], float | None]] = {}


def set_stage_hook(stage: str, hook: Callable[[str], float | None] | None) -> None:
    """Install (or with ``None`` remove) the fault hook of one stage.

    Intended for the fault-injection harness and tests only; production
    pipelines never set hooks, and the runner's lookup is a single dict
    read.
    """
    with _hooks_lock:
        if hook is None:
            _stage_hooks.pop(stage, None)
        else:
            _stage_hooks[stage] = hook


def get_stage_hook(stage: str) -> Callable[[str], float | None] | None:
    """The installed fault hook of ``stage``, or ``None``."""
    return _stage_hooks.get(stage)


def clear_stage_hooks() -> None:
    """Remove every installed stage hook (test teardown helper)."""
    with _hooks_lock:
        _stage_hooks.clear()


@dataclass
class StageAttempt:
    """One execution attempt of a stage body.

    ``outcome`` is ``"ok"``, ``"retry"`` (failed but retried on the same
    step), ``"degraded"`` (failed and pushed the ladder down a rung, or
    onto the stage's fallback) or ``"failed"`` (terminal).
    ``note`` records the recovery decision taken *after* this attempt —
    e.g. ``"lambda grid escalated (backoff 0s)"`` or
    ``"dropped tensor term te(0,1)"``.
    ``duration_s`` is this attempt's execution time on the pipeline clock
    (:func:`repro.obs.trace.monotonic`), synthetic stall seconds included.
    """

    outcome: str
    error: str | None = None
    note: str | None = None
    duration_s: float = 0.0


@dataclass
class StageRecord:
    """The full history of one pipeline stage.

    ``status`` is ``"ok"`` (clean first attempt), ``"recovered"`` (ok after
    retries), ``"degraded"`` (succeeded on a fallback), ``"failed"`` or
    ``"skipped"``.  ``fallback`` names the degradation-ladder rung that
    finally succeeded (``None`` when no fallback was needed).

    Timing provenance: ``elapsed`` sums the attempt bodies only, while
    ``duration_s`` is the stage's end-to-end time (retry backoff included)
    on the pipeline clock.  ``span_id`` links the record to its
    ``stage.<name>`` span when the run was traced
    (:func:`repro.obs.trace.enable_tracing`); ``None`` otherwise.
    """

    stage: str
    status: str = "skipped"
    elapsed: float = 0.0
    duration_s: float = 0.0
    span_id: int | None = None
    fallback: str | None = None
    error: str | None = None
    attempts: list[StageAttempt] = field(default_factory=list)


@dataclass
class StageReport:
    """Machine-readable account of every stage decision of a GEF run.

    Attached to :class:`~repro.core.explanation.GEFExplanation` as
    ``stage_report`` and serialized with explanation archives, so a
    degraded explanation always carries the evidence of *how* it degraded.
    """

    records: list[StageRecord] = field(default_factory=list)

    def record(self, stage: str) -> StageRecord:
        """Append (and return) a fresh record for ``stage``."""
        rec = StageRecord(stage=stage)
        self.records.append(rec)
        return rec

    def __getitem__(self, stage: str) -> StageRecord:
        for rec in self.records:
            if rec.stage == stage:
                return rec
        raise KeyError(stage)

    def __contains__(self, stage: str) -> bool:
        return any(rec.stage == stage for rec in self.records)

    @property
    def degraded(self) -> bool:
        """Whether any stage succeeded only via a fallback rung."""
        return any(rec.status == "degraded" for rec in self.records)

    @property
    def fallbacks(self) -> list[str]:
        """Names of every fallback taken, in pipeline order."""
        return [rec.fallback for rec in self.records if rec.fallback]

    def summary(self) -> str:
        """One line per stage: name, status, fallback, attempt count."""
        lines = []
        for rec in self.records:
            extra = f" via {rec.fallback}" if rec.fallback else ""
            retries = len(rec.attempts) - 1
            tail = f" ({retries} retr{'y' if retries == 1 else 'ies'})" if retries > 0 else ""
            lines.append(f"{rec.stage}: {rec.status}{extra}{tail}")
        return "; ".join(lines)

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {"records": [asdict(rec) for rec in self.records]}

    @classmethod
    def from_dict(cls, data: dict) -> "StageReport":
        """Rebuild a report serialized by :meth:`to_dict`.

        Tolerant of payloads from before the timing provenance fields
        existed (``duration_s``, ``span_id``, attempt durations): missing
        keys fall back to their zero values, and unknown keys are ignored
        so newer archives load on older readers too.
        """
        records = []
        for rec in data.get("records", []):
            attempts = [
                StageAttempt(
                    outcome=a.get("outcome", "ok"),
                    error=a.get("error"),
                    note=a.get("note"),
                    duration_s=float(a.get("duration_s", 0.0)),
                )
                for a in rec.get("attempts", [])
            ]
            span_id = rec.get("span_id")
            records.append(
                StageRecord(
                    stage=rec["stage"],
                    status=rec.get("status", "skipped"),
                    elapsed=float(rec.get("elapsed", 0.0)),
                    duration_s=float(
                        rec.get("duration_s", rec.get("elapsed", 0.0))
                    ),
                    span_id=None if span_id is None else int(span_id),
                    fallback=rec.get("fallback"),
                    error=rec.get("error"),
                    attempts=attempts,
                )
            )
        return cls(records=records)
