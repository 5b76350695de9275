"""Runtime numerics sanitizer for the hot numerical kernels.

GEF's fidelity claims rest on exact numerics: strictly increasing
sampling domains, finite GCV scores, finite PIRLS solves, bitwise
reproducible forest evaluation.  In production those invariants are
assumed; under test they are *checked*.  ``set_numerics_mode("strict")``
(or ``REPRO_NUMERICS=strict`` in the environment — how CI and
``tests/conftest.py`` force it) arms three layers:

* :func:`numerics_guard` — a context manager wrapping a kernel with
  ``np.errstate`` escalation: invalid operations and zero divides raise
  :class:`NumericsError` instead of silently producing NaN/inf.
* non-finite detection — :func:`assert_all_finite` on kernel outputs.
* post-condition checks — :func:`assert_strictly_increasing` on sampling
  domains, :func:`assert_psd_diagonal` on penalty matrices.

All checks compile to a single mode test when the sanitizer is ``"off"``
(the default), so the hot path pays one branch, not one scan.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "NumericsError",
    "assert_all_finite",
    "assert_psd_diagonal",
    "assert_strictly_increasing",
    "get_kernel_fault_hook",
    "get_numerics_mode",
    "numerics_guard",
    "set_kernel_fault_hook",
    "set_numerics_mode",
    "strict_enabled",
]

_MODES = ("off", "strict")
_mode_lock = threading.Lock()
_mode = "off"
_fault_hook = None


class NumericsError(FloatingPointError):
    """A numerics invariant was violated inside a guarded kernel."""


def set_numerics_mode(mode: str) -> None:
    """Select the process-wide sanitizer mode: ``"off"`` or ``"strict"``."""
    global _mode
    if mode not in _MODES:
        raise ValueError(f"unknown numerics mode {mode!r}; choose from {_MODES}")
    with _mode_lock:
        _mode = mode


def get_numerics_mode() -> str:
    """The currently selected sanitizer mode."""
    return _mode


def strict_enabled() -> bool:
    """Whether strict checks are armed (the one branch hot paths pay)."""
    return _mode == "strict"


def set_kernel_fault_hook(hook) -> None:
    """Install (or with ``None`` remove) the kernel fault-injection hook.

    The hook is called as ``hook(label)`` at the entry of every
    :func:`numerics_guard`-wrapped kernel and may raise
    :class:`NumericsError` to simulate a numerics fault inside that named
    kernel — the mechanism behind
    :func:`repro.devtools.faultinject.force_kernel_fault`.  Production
    code never installs hooks; the hot path pays one ``None`` check.
    """
    global _fault_hook
    with _mode_lock:
        _fault_hook = hook


def get_kernel_fault_hook():
    """The installed kernel fault hook, or ``None``."""
    return _fault_hook


@contextmanager
def numerics_guard(label: str, over: str = "raise"):
    """Escalate floating-point faults inside a kernel to hard errors.

    In strict mode, invalid operations (NaN-producing) and zero divides
    raise :class:`NumericsError` tagged with ``label``; overflow behavior
    is ``over`` (sites whose overflow saturates harmlessly may pass
    ``"ignore"``).  Underflow stays silent — gradual underflow is benign
    everywhere in this codebase.  A no-op when the sanitizer is off.
    """
    hook = _fault_hook
    if hook is not None:
        hook(label)
    if not strict_enabled():
        yield
        return
    try:
        with np.errstate(
            invalid="raise", divide="raise", over=over, under="ignore"
        ):
            yield
    except FloatingPointError as exc:
        raise NumericsError(f"{label}: {exc}") from exc


def assert_all_finite(arr: np.ndarray, label: str) -> None:
    """Strict-mode check that ``arr`` contains no NaN/inf."""
    if not strict_enabled():
        return
    arr = np.asarray(arr)
    if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
        bad = int(np.size(arr) - np.count_nonzero(np.isfinite(arr)))
        raise NumericsError(
            f"{label}: {bad} non-finite value(s) in an array of "
            f"shape {arr.shape}"
        )


def assert_strictly_increasing(arr: np.ndarray, label: str) -> None:
    """Strict-mode check that a 1-D array strictly increases.

    This is the domain-monotonicity invariant the sampling strategies
    promise (a duplicate-centroid bug of exactly this class shipped in
    PR 1 — see ``kmeans_1d_centroids``).
    """
    if not strict_enabled():
        return
    arr = np.asarray(arr, dtype=np.float64).ravel()
    assert_all_finite(arr, label)
    if arr.size >= 2 and not np.all(np.diff(arr) > 0):
        raise NumericsError(
            f"{label}: array of size {arr.size} is not strictly increasing"
        )


def assert_psd_diagonal(mat: np.ndarray, label: str) -> None:
    """Strict-mode sanity check of a penalty matrix.

    Full PSD verification costs an eigendecomposition; the cheap necessary
    conditions — finite entries, non-negative diagonal, symmetry — catch
    every construction bug observed in practice (sign slips, transposed
    difference operators, NaN propagation).
    """
    if not strict_enabled():
        return
    mat = np.asarray(mat, dtype=np.float64)
    assert_all_finite(mat, label)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NumericsError(f"{label}: penalty matrix is not square: {mat.shape}")
    if np.any(np.diag(mat) < 0):
        raise NumericsError(f"{label}: penalty matrix has a negative diagonal")
    if not np.allclose(mat, mat.T, rtol=1e-10, atol=1e-12):
        raise NumericsError(f"{label}: penalty matrix is not symmetric")


_env_mode = os.environ.get("REPRO_NUMERICS", "").strip().lower()
if _env_mode:
    set_numerics_mode(_env_mode)
