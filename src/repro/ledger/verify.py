"""Verification of ledgered explanations: bit for bit within a kernel.

The ledger's strongest guarantee: every served explanation can be
reproduced *from the ledger alone*.  A surrogate entry records the
explain config and points (via its fingerprint) at a model entry holding
the full forest archive; verification rebuilds the forest in a fresh
process, refits GEF with the recorded config, and asserts that the
resulting archive matches the recorded one byte for byte — after
stripping the wall-clock timing keys that are provenance of one
particular run (:data:`~repro.core.explanation_io._VOLATILE_KEYS`).

Byte equality holds only under the fit kernel that wrote the entry
(:data:`~repro.core.config.KERNEL_VERSION`, recorded with it).  An entry
from another kernel is compared within a pinned tolerance instead:
the same components, each term's contribution on the archived D* rows,
and the fidelity metrics — not raw coefficients, which a kernel change
may move along directions the design cannot see.  The report names the
version delta (``kernel 1 → 2``).

Model entries verify structurally: the archived forest must rebuild to
the recorded fingerprint and the entry's content address must check out.
"""

from __future__ import annotations

import numpy as np

from ..core.config import KERNEL_VERSION
from ..core.errors import LedgerError
from ..core.explainer import GEF
from ..core.explanation_io import (
    canonical_json,
    explanation_from_dict,
    explanation_to_dict,
    strip_stage_timings,
)
from ..obs.metrics import inc as metric_inc
from ..obs.trace import span as obs_span
from .records import (
    config_from_archive,
    forest_from_entry,
    kernel_version_of,
    model_entry_for,
)
from .store import LedgerStore, entry_id_for

__all__ = ["render_verify", "verify_entry"]

#: Cap on reported mismatch paths — enough to localize a divergence
#: without dumping two full archives.
_MAX_MISMATCHES = 20

#: Agreement pinned between a reproduction and an entry written by another
#: fit kernel: each term's contribution within this share of ``max(1, max
#: |recorded contribution|)``, and each fidelity metric within its own
#: absolute tolerance.
_CONTRIBUTION_TOL = 1e-6
_FIDELITY_TOL = 1e-6


def _mismatch_paths(a, b, path: str, out: list[str]) -> None:
    """Collect JSON paths where two stripped archives diverge."""
    if len(out) >= _MAX_MISMATCHES:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                out.append(f"{path}.{key} (only in {'b' if key in b else 'a'})")
            else:
                _mismatch_paths(a[key], b[key], f"{path}.{key}", out)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path} (length {len(a)} != {len(b)})")
            return
        for i, (xa, xb) in enumerate(zip(a, b)):
            _mismatch_paths(xa, xb, f"{path}[{i}]", out)
        return
    if a != b:
        out.append(path)


def _verify_model(store: LedgerStore, entry) -> dict:
    forest = forest_from_entry(entry)  # raises on fingerprint mismatch
    return {
        "entry": entry.entry_id,
        "kind": "model",
        "fingerprint": int(entry.payload["fingerprint"]),
        "n_trees": len(forest.trees_),
        "match": True,
        "mismatches": [],
    }


def _within_tolerance(recorded: dict, explanation) -> tuple[dict, list[str]]:
    """Compare an archive from another kernel with a reproduction.

    Returns the largest deviations found and the paths beyond the pinned
    tolerances.
    """
    archived = explanation_from_dict(recorded)
    # Term labels name each component's features: equal labels, equal
    # components (F' and F'').
    if archived.gam.term_labels() != explanation.gam.term_labels():
        return {}, ["$.gam.terms"]
    mismatches = []
    if not np.array_equal(archived.gam.lam, explanation.gam.lam):
        mismatches.append("$.gam.lam")
    X = np.vstack([archived.dataset.X_train, archived.dataset.X_test])
    then = archived.gam.decompose(X)
    now = explanation.gam.decompose(X)
    worst = {"contribution": 0.0, "fidelity": 0.0}
    for label, values in then.items():
        diff = float(np.max(np.abs(now[label] - values), initial=0.0))
        scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
        worst["contribution"] = max(worst["contribution"], diff / scale)
        if diff > _CONTRIBUTION_TOL * scale:
            mismatches.append(f"$.gam.terms[{label}]")
    for key, value in recorded["fidelity"].items():
        diff = abs(float(explanation.fidelity.get(key, np.nan)) - float(value))
        worst["fidelity"] = max(worst["fidelity"], diff)
        if not diff <= _FIDELITY_TOL:
            mismatches.append(f"$.fidelity.{key}")
    return worst, mismatches


def _verify_surrogate(store: LedgerStore, entry) -> dict:
    fingerprint = int(entry.payload["fingerprint"])
    model_entry = model_entry_for(store, fingerprint)
    forest = forest_from_entry(model_entry)
    config = config_from_archive(entry.payload["explanation"]["config"])
    explanation = GEF(config).explain(forest)
    recorded = entry.payload["explanation"]
    kernel = {"recorded": kernel_version_of(entry), "current": KERNEL_VERSION}
    report = {
        "entry": entry.entry_id,
        "kind": "surrogate",
        "fingerprint": fingerprint,
        "config_hash": entry.payload["config_hash"],
        "model_entry": model_entry.entry_id,
        "kernel": kernel,
    }
    if kernel["recorded"] != kernel["current"]:
        worst, mismatches = _within_tolerance(recorded, explanation)
        report.update(
            comparison="tolerance",
            tolerance={
                "contribution": _CONTRIBUTION_TOL, "fidelity": _FIDELITY_TOL
            },
            deviation=worst,
        )
    else:
        reproduced = strip_stage_timings(explanation_to_dict(explanation))
        recorded = strip_stage_timings(recorded)
        mismatches = []
        if canonical_json(reproduced) != canonical_json(recorded):
            _mismatch_paths(recorded, reproduced, "$", mismatches)
        report["comparison"] = "bitwise"
    report.update(match=not mismatches, mismatches=mismatches[:_MAX_MISMATCHES])
    return report


def verify_entry(store: LedgerStore, ref: str) -> dict:
    """Reproduce a ledger entry from the ledger alone and compare.

    ``ref`` is an entry id (or unique prefix).  Surrogate entries are
    refit from the recorded forest + config and compared bit-for-bit
    (timing keys excluded); model entries are rebuilt and
    re-fingerprinted.  The entry's own content address is always
    re-checked first.  Returns a JSON-ready report with ``match`` and
    the diverging JSON paths, if any.
    """
    entry = store.get(ref)
    recomputed = entry_id_for(entry.kind, entry.key, entry.payload, entry.parent)
    if recomputed != entry.entry_id:
        raise LedgerError(
            f"entry {entry.short_id} fails its content address check"
        )
    with obs_span("ledger.verify", kind=entry.kind):
        if entry.kind == "model":
            report = _verify_model(store, entry)
        elif entry.kind == "surrogate":
            report = _verify_surrogate(store, entry)
        else:
            raise LedgerError(
                f"entry {entry.short_id} is an event; only model and "
                "surrogate entries are verifiable"
            )
    metric_inc("ledger.verify.ok" if report["match"] else "ledger.verify.failed")
    return report


def render_verify(report: dict) -> str:
    """Human-readable rendering of a :func:`verify_entry` report."""
    lines = [
        f"entry {report['entry'][:16]} ({report['kind']}) "
        f"fingerprint {report['fingerprint']}",
    ]
    if report["kind"] == "surrogate":
        lines.append(
            f"config {report['config_hash']} from model entry "
            f"{report['model_entry'][:16]}"
        )
    if report.get("comparison") == "tolerance":
        kernel, tol, dev = report["kernel"], report["tolerance"], report["deviation"]
        lines.append(
            f"kernel {kernel['recorded']} → {kernel['current']}: compared "
            f"within tolerance (term contributions {tol['contribution']:g} "
            f"relative, fidelity {tol['fidelity']:g}); largest deviations "
            f"{dev.get('contribution', float('nan')):.3g} and "
            f"{dev.get('fidelity', float('nan')):.3g}"
        )
        if report["match"]:
            lines.append("VERIFIED: reproduction agrees within the kernel tolerance")
            return "\n".join(lines)
        lines.append("MISMATCH: reproduction exceeds the kernel tolerance at:")
    elif report["match"]:
        lines.append("VERIFIED: reproduction matches the ledger bit for bit")
        return "\n".join(lines)
    else:
        lines.append("MISMATCH: reproduction diverges from the ledger at:")
    lines += [f"  {p}" for p in report["mismatches"]]
    return "\n".join(lines)
