"""Deterministic fault injection for the GEF pipeline chaos suite.

Three injection surfaces, all deterministic (no sleeping, no randomness):

* :func:`corrupt_forest` — returns a deep-copied forest with one named
  structural defect (NaN threshold, dangling child, cycle, orphan node,
  out-of-range feature index, non-finite leaf), for exercising
  :func:`repro.core.validate.validate_forest` and the ``validate`` stage.
* :func:`force_kernel_fault` — a context manager that raises a
  :class:`~repro.core.numerics.NumericsError` inside a *named* guarded
  kernel (``"PIRLS solve"``, ``"GCV scoring (identity path)"``, ...) on
  the Nth entry, via the hook in :func:`repro.core.numerics.numerics_guard`.
* :func:`fail_stage` / :func:`stall_stage` — context managers that kill a
  named pipeline stage with an arbitrary exception, or charge synthetic
  "stalled" seconds against its wall-clock budget, on the Nth attempt,
  via the stage-hook registry in :mod:`repro.core.stages`.
* :func:`kill_worker` / :func:`hang_worker` / :func:`corrupt_heartbeat` —
  fleet faults for :mod:`repro.serve.fleet`: a real SIGKILL with
  deterministic post-conditions, a synthetic hang (muted heartbeats) and
  garbled heartbeat replies, all acknowledged over the worker pipe so
  the chaos suite never sleeps to "wait for the fault to land".

Every context manager restores the previously installed hook on exit, so
injections compose and never leak across tests.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from ..core.numerics import (
    NumericsError,
    get_kernel_fault_hook,
    set_kernel_fault_hook,
)
from ..core.stages import get_stage_hook, set_stage_hook

__all__ = [
    "FOREST_FAULTS",
    "corrupt_forest",
    "corrupt_heartbeat",
    "fail_stage",
    "force_kernel_fault",
    "hang_worker",
    "kill_worker",
    "skew_surrogate",
    "stall_stage",
]

#: Sentinel marking leaves in ``Tree.feature``.
_LEAF = -1

#: The structural defects :func:`corrupt_forest` can inject.
FOREST_FAULTS = (
    "nan-threshold",
    "inf-leaf",
    "dangling-child",
    "cyclic-child",
    "orphan-node",
    "feature-out-of-range",
)


def _first_internal(tree) -> int:
    internal = np.nonzero(np.asarray(tree.feature) != _LEAF)[0]
    if internal.size == 0:
        raise ValueError(
            "cannot corrupt a stump tree: no internal node to target"
        )
    return int(internal[0])


def _first_leaf(tree) -> int:
    leaves = np.nonzero(np.asarray(tree.feature) == _LEAF)[0]
    return int(leaves[0])


def corrupt_forest(forest, fault: str, tree_index: int = 0):
    """A deep copy of ``forest`` with one structural defect injected.

    ``fault`` is one of :data:`FOREST_FAULTS`:

    - ``"nan-threshold"`` — an internal node's split threshold becomes NaN;
    - ``"inf-leaf"`` — a leaf value becomes +inf;
    - ``"dangling-child"`` — an internal node's left child points past the
      end of the node arrays;
    - ``"cyclic-child"`` — an internal node's left child points back at
      the root;
    - ``"orphan-node"`` — an extra leaf node is appended that no internal
      node references;
    - ``"feature-out-of-range"`` — an internal node tests a feature index
      ``>= n_features_``.

    The original forest is never modified; the returned copy still
    *predicts* (tree traversal may simply never reach the defect), which
    is exactly why validation has to be structural.
    """
    if fault not in FOREST_FAULTS:
        raise ValueError(
            f"unknown fault {fault!r}; expected one of {FOREST_FAULTS}"
        )
    # The cached bitvector encoding is costly to copy and would mask the
    # corruption on predict anyway: map it to None in the deepcopy memo,
    # then drop the placeholder from the copy.
    memo: dict = {}
    cached = forest.__dict__.get("_bitvector_state")
    if cached is not None:
        memo[id(cached)] = None
    corrupted = copy.deepcopy(forest, memo)
    from ..forest.engines import invalidate_model_caches

    invalidate_model_caches(corrupted)
    tree = corrupted.trees_[tree_index]
    if fault == "nan-threshold":
        tree.threshold[_first_internal(tree)] = np.nan
    elif fault == "inf-leaf":
        tree.value[_first_leaf(tree)] = np.inf
    elif fault == "dangling-child":
        tree.left[_first_internal(tree)] = len(tree.feature) + 5
    elif fault == "cyclic-child":
        tree.left[_first_internal(tree)] = 0
    elif fault == "orphan-node":
        tree.feature = np.append(tree.feature, _LEAF)
        tree.threshold = np.append(tree.threshold, 0.0)
        tree.left = np.append(tree.left, 0)
        tree.right = np.append(tree.right, 0)
        tree.value = np.append(tree.value, 0.0)
        tree.gain = np.append(tree.gain, 0.0)
    elif fault == "feature-out-of-range":
        tree.feature[_first_internal(tree)] = int(corrupted.n_features_) + 3
    return corrupted


def _fires(calls: int, on_call: int, count: int, repeat: bool) -> bool:
    """Whether an injection triggers on the ``calls``-th matching call."""
    if calls < on_call:
        return False
    return repeat or calls < on_call + count


@contextmanager
def force_kernel_fault(
    label_substring: str,
    on_call: int = 1,
    count: int = 1,
    repeat: bool = False,
) -> Iterator[list[int]]:
    """Raise :class:`NumericsError` inside a named guarded kernel.

    Counts entries into :func:`~repro.core.numerics.numerics_guard` whose
    label contains ``label_substring`` and raises on calls ``on_call``
    through ``on_call + count - 1`` (with ``repeat=True`` on every call
    from ``on_call`` onwards — a persistent numerical fault rather than a
    transient glitch).  ``count`` models faults that survive a bounded
    number of retries, e.g. long enough to push the fit ladder down a
    rung.  Yields the live call counter as a one-element list.
    """
    counter = [0]
    previous = get_kernel_fault_hook()

    def hook(label: str) -> None:
        if previous is not None:
            previous(label)
        if label_substring not in label:
            return
        counter[0] += 1
        if _fires(counter[0], on_call, count, repeat):
            raise NumericsError(
                f"injected numerics fault in kernel '{label}' "
                f"(call {counter[0]})"
            )

    set_kernel_fault_hook(hook)
    try:
        yield counter
    finally:
        set_kernel_fault_hook(previous)


def _default_stage_exception(stage: str) -> RuntimeError:
    return RuntimeError(f"injected failure in stage '{stage}'")


@contextmanager
def fail_stage(
    stage: str,
    exc: Exception | Callable[[], Exception] | None = None,
    on_call: int = 1,
    count: int = 1,
    repeat: bool = False,
) -> Iterator[list[int]]:
    """Kill a named pipeline stage on attempts ``on_call``..``on_call+count-1``.

    ``exc`` is the exception to raise — an instance, a zero-argument
    factory, or ``None`` for an untyped ``RuntimeError`` (which the stage
    runner must wrap into a ``StageFailureError``).  With ``repeat=False``
    attempts outside the window succeed, modelling a transient fault the
    retry policy should absorb.  Yields the live attempt counter as a
    one-element list.
    """
    counter = [0]
    previous = get_stage_hook(stage)

    def hook(name: str) -> float | None:
        counter[0] += 1
        if _fires(counter[0], on_call, count, repeat):
            raise exc() if callable(exc) else (
                exc if exc is not None else _default_stage_exception(name)
            )
        return previous(name) if previous is not None else None

    set_stage_hook(stage, hook)
    try:
        yield counter
    finally:
        set_stage_hook(stage, previous)


@contextmanager
def stall_stage(
    stage: str,
    seconds: float,
    on_call: int = 1,
    count: int = 1,
    repeat: bool = False,
) -> Iterator[list[int]]:
    """Charge synthetic stall seconds against a stage's wall-clock budget.

    The stage runner adds the returned seconds to the attempt's elapsed
    time *without sleeping*, so timeout handling (``stage_timeout`` in
    :class:`~repro.core.config.GEFConfig`) is testable deterministically.
    Yields the live attempt counter as a one-element list.
    """
    counter = [0]
    previous = get_stage_hook(stage)

    def hook(name: str) -> float | None:
        counter[0] += 1
        if _fires(counter[0], on_call, count, repeat):
            return float(seconds)
        return previous(name) if previous is not None else None

    set_stage_hook(stage, hook)
    try:
        yield counter
    finally:
        set_stage_hook(stage, previous)


# ----------------------------------------------------------------------
# fleet faults (PR 8): crash, hang, corrupted heartbeats
# ----------------------------------------------------------------------
def kill_worker(fleet, name: str, timeout_s: float = 30.0) -> int:
    """SIGKILL fleet worker ``name`` and wait for crash bookkeeping.

    Deterministic synchronization, no sleeping: returns only after the
    worker's process has been joined *and* its front-end handle has run
    failover (``dead_event``) — every in-flight request it held has been
    woken for re-dispatch.  The caller then drives detection explicitly
    with :meth:`~repro.serve.supervisor.Supervisor.tick`.  Returns the
    killed pid.
    """
    import os
    import signal

    handle = fleet.handle(name)
    pid = handle.pid if handle.pid is not None else handle.proc.pid
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    handle.proc.join(timeout_s)
    handle.dead_event.wait(timeout_s)
    return pid


@contextmanager
def hang_worker(fleet, name: str) -> Iterator[None]:
    """Make fleet worker ``name`` stop answering heartbeats.

    A synthetic stall: the worker keeps running (and keeps serving
    requests already on its threads) but mutes its pong replies, which
    is exactly what a hard hang looks like from the supervisor's side.
    Pipe FIFO ordering makes the fault exact — every ping sent after the
    acknowledged switch is dropped, no sleeps involved.  The switch is
    restored on exit when the worker still exists (the supervisor
    usually SIGKILLs it first; a restarted worker boots unmuted).
    """
    fleet.chaos(name, "mute_pings", True)
    try:
        yield
    finally:
        try:
            fleet.chaos(name, "mute_pings", False)
        except Exception:  # repro: allow(broad-except) the worker is usually dead by now; restored workers boot unmuted
            pass


@contextmanager
def skew_surrogate(app, offset: float) -> Iterator[None]:
    """Inject fidelity drift: bias every surrogate replay by ``offset``.

    The ``corrupt_forest`` analogue for the serving-time fidelity SLO:
    the app's :class:`~repro.obs.drift.DriftMonitor` adds ``offset`` to
    each cached-surrogate prediction during ``evaluate``, so the rolling
    forest–GAM R² degrades by an exactly computable amount — tests pick
    offsets that land fidelity in the warn or breach band and drive the
    SLO state machine deterministically, no model corruption and no
    sleeps involved.  Requires an app constructed with ``config.slo``.
    """
    if getattr(app, "drift", None) is None:
        raise ValueError("skew_surrogate needs an app with SLO enabled")  # repro: allow(raise-outside-taxonomy) harness misuse, not a request failure
    app.drift.set_skew(float(offset))
    try:
        yield
    finally:
        app.drift.set_skew(0.0)


@contextmanager
def corrupt_heartbeat(fleet, name: str) -> Iterator[None]:
    """Make fleet worker ``name`` answer heartbeats with garbage.

    The worker replies ``("pong", None)`` instead of echoing the ping
    sequence number; the supervisor counts each as corrupt
    (``fleet.heartbeats_corrupt``) and, since the real sequence is never
    acknowledged, escalates through the miss counter to the hang path.
    Restored on exit when the worker still exists.
    """
    fleet.chaos(name, "corrupt_pings", True)
    try:
        yield
    finally:
        try:
            fleet.chaos(name, "corrupt_pings", False)
        except Exception:  # repro: allow(broad-except) the worker is usually dead by now; restored workers boot unmuted
            pass
