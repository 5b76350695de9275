"""Structural diff of two ledgered surrogates.

Answers the auditor's question after a hot swap or a rollback: *which
splines and terms actually changed between version A and version B?*
Works purely on the serialized archives recorded in surrogate entries —
no refitting, no numpy reconstruction — so it can diff versions whose
forests are long gone from the serving fleet.

Terms are matched by identity ``(type, features)``: a term present in
both versions is *changed* when its basis (knots, n_splines, levels) or
its coefficient segment moved, *unchanged* when both are bitwise equal.
"""

from __future__ import annotations

from ..core.errors import LedgerError
from .store import LedgerEntry

__all__ = ["diff_entries", "diff_surrogates", "render_diff", "term_identity"]


def term_identity(term: dict) -> str:
    """A stable label identifying one term across versions."""
    kind = term.get("type", "?")
    if kind == "intercept":
        return "intercept"
    if kind == "tensor":
        f_i, f_j = term.get("features", ("?", "?"))
        return f"tensor(x{f_i},x{f_j})"
    return f"{kind}(x{term.get('feature', '?')})"


def _term_width(term: dict) -> int:
    """Coefficient count of a serialized term (mirrors ``Term.n_coefs``)."""
    kind = term.get("type")
    if kind in ("intercept", "linear"):
        return 1
    if kind == "spline":
        return int(term["n_splines"])
    if kind == "factor":
        return len(term["levels"])
    if kind == "tensor":
        return int(term["n_splines"]) ** 2
    raise LedgerError(f"cannot diff unknown term type {kind!r}")


def _coef_segments(gam: dict) -> dict[str, list[float]]:
    """Slice the flat coefficient vector into per-term segments."""
    segments: dict[str, list[float]] = {}
    coef = list(gam.get("coef", []))
    offset = 0
    for term in gam.get("terms", []):
        width = _term_width(term)
        segments[term_identity(term)] = coef[offset : offset + width]
        offset += width
    return segments


def _basis_changed(a: dict, b: dict) -> list[str]:
    """Which structural fields of a shared term differ between versions."""
    changed = []
    for field in ("n_splines", "degree", "penalty_order", "knots", "levels",
                  "col_means", "mean"):
        if a.get(field) != b.get(field):
            changed.append(field)
    return changed


def _surrogate_archive(payload: dict) -> dict:
    try:
        return payload["explanation"]
    except (TypeError, KeyError) as exc:
        raise LedgerError(
            "diff needs surrogate entry payloads (with an 'explanation' "
            "archive)"
        ) from exc


def diff_surrogates(a_payload: dict, b_payload: dict) -> dict:
    """Structural diff of two surrogate entry payloads (A → B).

    Returns a JSON-ready report: per-term added/removed/changed/unchanged
    sets (with the max-abs coefficient delta and the changed basis fields
    for each shared term), plus the top-level deltas an auditor scans
    first — fidelity, selected features and pairs, the shared lambda and
    the degradation record.
    """
    arch_a = _surrogate_archive(a_payload)
    arch_b = _surrogate_archive(b_payload)
    gam_a, gam_b = arch_a["gam"], arch_b["gam"]
    terms_a = {term_identity(t): t for t in gam_a.get("terms", [])}
    terms_b = {term_identity(t): t for t in gam_b.get("terms", [])}
    coefs_a = _coef_segments(gam_a)
    coefs_b = _coef_segments(gam_b)

    added = sorted(set(terms_b) - set(terms_a))
    removed = sorted(set(terms_a) - set(terms_b))
    changed: list[dict] = []
    unchanged: list[str] = []
    for label in sorted(set(terms_a) & set(terms_b)):
        basis = _basis_changed(terms_a[label], terms_b[label])
        seg_a, seg_b = coefs_a.get(label, []), coefs_b.get(label, [])
        # Segments of different widths have no elementwise delta (None,
        # strict JSON); their basis change already names why.
        coef_delta = None
        if len(seg_a) == len(seg_b):
            coef_delta = max(
                (abs(x - y) for x, y in zip(seg_a, seg_b)), default=0.0
            )
        if not basis and coef_delta == 0.0:  # repro: allow(float-eq) bitwise-unchanged sentinel: equal archives give exactly 0
            unchanged.append(label)
        else:
            changed.append(
                {
                    "term": label,
                    "basis_changed": basis,
                    "max_abs_coef_delta": coef_delta,
                }
            )

    fid_a = arch_a.get("fidelity", {})
    fid_b = arch_b.get("fidelity", {})
    fidelity = {}
    for key in sorted(set(fid_a) | set(fid_b)):
        va, vb = fid_a.get(key), fid_b.get(key)
        fidelity[key] = {
            "a": va,
            "b": vb,
            "delta": (vb - va) if (va is not None and vb is not None) else None,
        }

    cfg_a = arch_a.get("config", {})
    cfg_b = arch_b.get("config", {})
    config_changed = sorted(
        k for k in set(cfg_a) | set(cfg_b) if cfg_a.get(k) != cfg_b.get(k)
    )

    return {
        "a": {
            "fingerprint": a_payload.get("fingerprint"),
            "config_hash": a_payload.get("config_hash"),
        },
        "b": {
            "fingerprint": b_payload.get("fingerprint"),
            "config_hash": b_payload.get("config_hash"),
        },
        "identical_forest": (
            a_payload.get("fingerprint") == b_payload.get("fingerprint")
        ),
        "terms": {
            "added": added,
            "removed": removed,
            "changed": changed,
            "unchanged": unchanged,
        },
        "features": {
            "a": arch_a.get("features", []),
            "b": arch_b.get("features", []),
        },
        "pairs": {
            "a": arch_a.get("pairs", []),
            "b": arch_b.get("pairs", []),
        },
        "lam": {"a": gam_a.get("lam"), "b": gam_b.get("lam")},
        "fidelity": fidelity,
        "config_changed": config_changed,
    }


def render_diff(diff: dict) -> str:
    """Human-readable rendering of a :func:`diff_surrogates` report."""
    lines = [
        "SURROGATE DIFF",
        "-" * 72,
        f"a: fingerprint {diff['a']['fingerprint']} "
        f"config {diff['a']['config_hash']}",
        f"b: fingerprint {diff['b']['fingerprint']} "
        f"config {diff['b']['config_hash']}",
        f"same forest: {diff['identical_forest']}",
    ]
    terms = diff["terms"]
    lines.append(
        f"terms: {len(terms['added'])} added, {len(terms['removed'])} removed, "
        f"{len(terms['changed'])} changed, {len(terms['unchanged'])} unchanged"
    )
    for label in terms["added"]:
        lines.append(f"  + {label}")
    for label in terms["removed"]:
        lines.append(f"  - {label}")
    for item in terms["changed"]:
        what = ", ".join(item["basis_changed"]) or "coefficients"
        delta = item["max_abs_coef_delta"]
        lines.append(
            f"  ~ {item['term']}: {what} (max |coef delta| "
            f"{'n/a' if delta is None else format(delta, '.6g')})"
        )
    if diff["config_changed"]:
        lines.append(f"config changed: {', '.join(diff['config_changed'])}")
    for key, cell in diff["fidelity"].items():
        if cell["delta"] is not None:
            lines.append(
                f"fidelity[{key}]: {cell['a']:.6f} -> {cell['b']:.6f} "
                f"(delta {cell['delta']:+.6f})"
            )
    if diff["lam"]["a"] != diff["lam"]["b"]:
        lines.append(f"lambda: {diff['lam']['a']} -> {diff['lam']['b']}")
    return "\n".join(lines)


def diff_entries(a: LedgerEntry, b: LedgerEntry) -> dict:
    """Diff two *surrogate* ledger entries (convenience over payload diff)."""
    for entry in (a, b):
        if entry.kind != "surrogate":
            raise LedgerError(
                f"diff needs surrogate entries; {entry.short_id} is a "
                f"{entry.kind} entry"
            )
    return diff_surrogates(a.payload, b.payload)
