"""Persistence for GEF explanations (save once, explain forever).

An explanation archive contains the fitted GAM (with everything needed
for predictions, partial dependence and credible intervals), the selected
components, the sampling domains, the configuration, the fidelity scores
and a capped sample of D* — enough to restore every method of
:class:`~repro.core.explanation.GEFExplanation`, without shipping the full
synthetic dataset.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..gam.serialization import gam_from_dict, gam_to_dict
from .config import config_from_dict, config_to_dict
from .dataset import ExplanationDataset
from .explanation import GEFExplanation
from .stages import StageReport

__all__ = ["canonical_json", "explanation_to_dict", "explanation_from_dict",
           "explanation_digest", "save_explanation", "load_explanation",
           "strip_stage_timings"]

#: Row caps for the embedded D* sample (keeps archives small).
_TRAIN_SAMPLE_ROWS = 2048
_TEST_SAMPLE_ROWS = 1024

#: Archive keys that carry wall-clock provenance rather than explanation
#: content: replaying the same config on the same forest reproduces
#: everything *except* these, so audit comparisons strip them first.
_VOLATILE_KEYS = frozenset({"elapsed", "duration_s", "span_id"})


def canonical_json(data) -> str:
    """The canonical JSON form used for content addressing.

    Sorted keys, no whitespace — two structurally equal payloads always
    serialize to the same bytes, so hashes over this form are stable
    across processes and Python versions (float repr is exact since 3.1).
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def strip_stage_timings(data):
    """A deep copy of ``data`` with volatile timing keys removed.

    Stage reports record wall-clock durations and span ids; those are
    provenance of one particular run, not of the explanation, and can
    never reproduce bit-for-bit.  Everything else — statuses, fallbacks,
    retry outcomes — is deterministic and is kept.
    """
    if isinstance(data, dict):
        return {
            key: strip_stage_timings(value)
            for key, value in data.items()
            if key not in _VOLATILE_KEYS
        }
    if isinstance(data, list):
        return [strip_stage_timings(item) for item in data]
    return data


def explanation_digest(data: dict | GEFExplanation) -> str:
    """A content hash of an explanation archive, timing excluded.

    Accepts either a fitted explanation or its
    :func:`explanation_to_dict` archive.  Two GEF runs with the same
    config on the same forest yield equal digests; the ledger's verify
    path asserts exactly this.
    """
    if isinstance(data, GEFExplanation):
        data = explanation_to_dict(data)
    payload = canonical_json(strip_stage_timings(data))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def explanation_to_dict(explanation: GEFExplanation) -> dict:
    """Serialize an explanation (with a capped D* sample) to a dict."""
    dataset = explanation.dataset
    return {
        "gam": gam_to_dict(explanation.gam),
        "features": list(map(int, explanation.features)),
        "pairs": [list(map(int, p)) for p in explanation.pairs],
        "feature_names": explanation.feature_names,
        "fidelity": dict(explanation.fidelity),
        "stage_report": (
            explanation.stage_report.to_dict()
            if explanation.stage_report is not None
            else None
        ),
        "config": config_to_dict(explanation.config),
        "domains": {
            str(f): d.tolist() for f, d in dataset.domains.items()
        },
        "X_train_sample": dataset.X_train[:_TRAIN_SAMPLE_ROWS].tolist(),
        "X_test_sample": dataset.X_test[:_TEST_SAMPLE_ROWS].tolist(),
        "y_train_sample": dataset.y_train[:_TRAIN_SAMPLE_ROWS].tolist(),
        "y_test_sample": dataset.y_test[:_TEST_SAMPLE_ROWS].tolist(),
    }


def explanation_from_dict(data: dict) -> GEFExplanation:
    """Rebuild a fully functional explanation from its archive dict."""
    dataset = ExplanationDataset(
        X_train=np.asarray(data["X_train_sample"], dtype=np.float64),
        y_train=np.asarray(data["y_train_sample"], dtype=np.float64),
        X_test=np.asarray(data["X_test_sample"], dtype=np.float64),
        y_test=np.asarray(data["y_test_sample"], dtype=np.float64),
        domains={
            int(f): np.asarray(d, dtype=np.float64)
            for f, d in data["domains"].items()
        },
    )
    return GEFExplanation(
        gam=gam_from_dict(data["gam"]),
        features=[int(f) for f in data["features"]],
        pairs=[tuple(int(v) for v in p) for p in data["pairs"]],
        dataset=dataset,
        config=config_from_dict(data["config"]),
        feature_names=data["feature_names"],
        fidelity=dict(data["fidelity"]),
        stage_report=(
            StageReport.from_dict(data["stage_report"])
            if data.get("stage_report") is not None
            else None
        ),
    )


def save_explanation(explanation: GEFExplanation, path: str | Path) -> None:
    """Write an explanation archive as JSON."""
    path = Path(path)
    with path.open("w") as f:
        json.dump(explanation_to_dict(explanation), f)


def load_explanation(path: str | Path) -> GEFExplanation:
    """Read an explanation archive written by :func:`save_explanation`."""
    path = Path(path)
    with path.open() as f:
        return explanation_from_dict(json.load(f))
