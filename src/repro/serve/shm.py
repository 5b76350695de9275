"""Shared-memory export/attach of bitvector forests for the fleet.

A model's :class:`~repro.forest.bitvector.BitvectorForest` travels to the
workers as itself: it is pickled with protocol 5, and every array it
holds goes out of band into one shared-memory segment per model, each at
a 64-byte aligned offset.  A :class:`SharedModelBundle` carries the
rest: the model's identity (id, fingerprint), the segment name, the
in-band pickle bytes and one ``(offset, nbytes)`` span per array.  A
worker unpickles the payload over read-only slices of the segment, so N
worker processes evaluate the *same physical copy* of a forest — the
attached arrays are views, not copies.  A forest the bitvector encoding
declines has nothing to export; the fleet serves it in-process instead.

Pickle suits this transport and not the model archives: the front end
and the workers it spawned run the same code in one process tree, and
``multiprocessing`` already pickles every pipe message.  Model JSON and
ledger archives keep their own formats, which must outlive a code
version.

Lifecycle hygiene
-----------------
Segment ownership is strictly front-end-side.  Every created segment is
tracked in a process-wide live set (:func:`live_segments`); the owner
unlinks through :meth:`SharedSegment.unlink` on model removal, fleet
drain and worker-crash cleanup, and an ``atexit`` sweep unlinks anything
left if the front-end itself dies.  Workers *attach* only — they share
the front end's ``resource_tracker`` process (spawned children inherit
it), so a SIGKILL-ed or crashed worker can never drag a segment out from
under its surviving replicas, and POSIX unlink-while-mapped semantics
keep an already-attached worker working even after the owner unlinks.
The fleet chaos suite asserts zero leaked segments after a
kill-restart-drain cycle.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory

__all__ = [
    "SharedModelBundle",
    "SharedSegment",
    "attach_model",
    "export_model",
    "live_segments",
]

#: Byte alignment of every buffer inside a segment (cache-line friendly).
_ALIGN = 64

# Module-state discipline (see repro.devtools.registry): the live-segment
# set and the segment-name counter are only touched under _shm_lock; the
# atexit sweep snapshots under the lock and unlinks outside it.
_shm_lock = threading.Lock()
_live_segments: set[str] = set()
_segment_counter = 0


def _next_segment_name(tag: str) -> str:
    """A process-unique shared-memory segment name (``repro-fleet-*``)."""
    global _segment_counter
    with _shm_lock:
        _segment_counter += 1
        counter = _segment_counter
    return f"repro-fleet-{os.getpid()}-{counter}-{tag}"


def live_segments() -> list[str]:
    """Names of every shared-memory segment this process still owns."""
    with _shm_lock:
        return sorted(_live_segments)


@dataclass(frozen=True)
class SharedModelBundle:
    """Everything a worker needs to serve one model from shared memory.

    ``payload`` is the engine pickled with protocol 5; ``spans`` place its
    out-of-band buffers in the segment named ``segment``, in pickle order.
    """

    model_id: str
    fingerprint: int
    segment: str
    payload: bytes
    spans: tuple[tuple[int, int], ...]


class SharedSegment:
    """Owner-side handle of one created segment (close/unlink exactly once)."""

    def __init__(self, name: str, size: int):
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(int(size), 1), name=name
        )
        self._unlinked = False
        with _shm_lock:
            _live_segments.add(name)

    @property
    def name(self) -> str:
        """The segment's name in the shared-memory namespace."""
        return self._shm.name

    @property
    def buf(self):
        """The segment's writable buffer (owner-side, export time only)."""
        return self._shm.buf

    def unlink(self) -> bool:
        """Close and unlink the segment; ``True`` if this call removed it.

        Idempotent: the live-segment registry entry and the OS object are
        released exactly once, no matter how many cleanup paths (drain,
        crash cleanup, atexit sweep) race to call this.
        """
        with _shm_lock:
            if self._unlinked:
                return False
            self._unlinked = True
            _live_segments.discard(self._shm.name)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already swept
            return False
        return True


def _sweep() -> None:
    """Atexit backstop: unlink whatever segments were never cleaned up."""
    with _shm_lock:
        leaked = sorted(_live_segments)
        _live_segments.clear()
    for name in leaked:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            pass


atexit.register(_sweep)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def export_model(
    model_id: str, fingerprint: int, engine
) -> tuple[SharedModelBundle, SharedSegment]:
    """Export a registered model's bitvector engine into shared memory.

    ``engine`` is the model's
    :class:`~repro.forest.bitvector.BitvectorForest`.  Returns the
    worker-facing bundle and the owned segment to unlink later.
    """
    buffers = []
    payload = pickle.dumps(engine, protocol=5, buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    spans = []
    offset = 0
    for raw in raws:
        offset = _aligned(offset)
        spans.append((offset, raw.nbytes))
        offset += raw.nbytes
    segment = SharedSegment(_next_segment_name("bitvector"), offset)
    for (start, nbytes), raw in zip(spans, raws):
        segment.buf[start:start + nbytes] = raw
    bundle = SharedModelBundle(
        model_id=str(model_id),
        fingerprint=int(fingerprint),
        segment=segment.name,
        payload=payload,
        spans=tuple(spans),
    )
    return bundle, segment


def attach_model(bundle: SharedModelBundle):
    """Attach a bundle's engine: ``(bitvector, segment)``, no copies.

    The engine's arrays are read-only views over the segment, and it is
    bitwise identical to the exporting process's; unpickling checks its
    state (see :class:`~repro.forest.bitvector.BitvectorForest`).
    The views hold the segment's mapping for as long as the engine
    lives, so ``segment`` (the attached ``SharedMemory`` object) cannot
    close before it: release the engine first.  Fleet workers are spawned ``multiprocessing`` children and
    therefore share the front end's ``resource_tracker`` process:
    attaching re-registers the same name into the same tracker set (a
    no-op), so a SIGKILL-ed worker can never drag a segment out from
    under its replicas, and the tracker still unlinks everything if the
    whole process tree dies.
    """
    segment = shared_memory.SharedMemory(name=bundle.segment)
    # No local holds a view: when unpickling rejects the state, the
    # traceback releases the views before the segment, which then closes.
    engine = pickle.loads(
        bundle.payload,
        buffers=[segment.buf[o:o + n].toreadonly() for o, n in bundle.spans],
    )
    return engine, segment
