"""Thread-safety registry: the allowlist of module-level mutable state.

The north star is a threaded, heavy-traffic service, so every module-level
mutable object and every ``global`` rebind in ``src/`` is a latent data
race.  The ``global-state`` lint rule flags them all — *except* the
entries below, each of which documents its synchronization discipline.
Adding a new global therefore forces a conscious decision: guard it and
register it here, or redesign it away.

The registry is *machine-checked*, not trust-based: the ``repro check
--deep`` lock-discipline pass (:mod:`repro.devtools.analysis.locks`)
proves each entry against the source — every write to a ``lock`` global
must sit inside ``with <lock>:``, every lock-free read must be one of the
entry's sanctioned ``atomic_reads`` sites, and ``frozen-after-import``
globals must have zero post-import mutation sites anywhere in ``src/``.

Disciplines used in this codebase:

``lock``
    Mutated under the explicit :class:`threading.Lock` named by the
    entry's ``lock`` attribute.  ``atomic_reads`` lists the function
    qualnames whose lock-free read is *intentional*: each is a single
    reference — an atomic load under the GIL — on a hot path that must
    not pay a lock (the ``rationale`` says why that is sound).
``frozen-after-import``
    Built once at module import and never mutated afterwards; concurrent
    readers are safe because CPython publishes the fully built object
    before any other thread can import the module.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DISCIPLINES",
    "GlobalEntry",
    "THREAD_SAFETY_REGISTRY",
    "get_entry",
    "is_registered",
]

#: Recognized synchronization disciplines.
DISCIPLINES = ("lock", "frozen-after-import")


@dataclass(frozen=True)
class GlobalEntry:
    """One sanctioned module-level global and its verified discipline.

    Attributes
    ----------
    module:
        Dotted module owning the global.
    name:
        The module-level identifier.
    discipline:
        ``"lock"`` or ``"frozen-after-import"`` (anything else raises —
        undocumented disciplines are rejected at registry build time).
    lock:
        For ``lock`` discipline, the module-level lock every write must
        hold; ``None`` otherwise.
    atomic_reads:
        Function qualnames (``func`` / ``Class.method``) within the
        owning module whose lock-free read of the global is sanctioned.
    rationale:
        Why the discipline (and any lock-free fast path) is sound.
    """

    module: str
    name: str
    discipline: str
    lock: str | None = None
    atomic_reads: tuple[str, ...] = ()
    rationale: str = ""

    def __post_init__(self):
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"unregistered discipline {self.discipline!r} for "
                f"{self.module}.{self.name}; choose from {DISCIPLINES}"
            )
        if (self.discipline == "lock") != (self.lock is not None):
            raise ValueError(
                f"{self.module}.{self.name}: lock discipline and lock name "
                f"must be given together"
            )
        if self.atomic_reads and self.discipline != "lock":
            raise ValueError(
                f"{self.module}.{self.name}: atomic_reads only applies to "
                f"lock discipline (frozen globals are always read-safe)"
            )

    @property
    def legacy(self) -> str:
        """The pre-PR-7 string form (``"lock:<name>"`` or the discipline)."""
        if self.discipline == "lock":
            return f"lock:{self.lock}"
        return self.discipline


_ENTRIES = (
    # repro.forest.engines — the engine knob, written under
    # engines._state_lock.  Reads are lock-free atomic loads on the
    # dispatch hot path.
    GlobalEntry(
        module="repro.forest.engines", name="_engine",
        discipline="lock", lock="_state_lock",
        atomic_reads=("get_prediction_engine", "_encoded"),
        rationale="single atomic load of an interned str on every "
        "dispatch; stale reads select the previous engine, never a torn "
        "value",
    ),
    # repro.core.numerics — sanitizer mode and the kernel fault-injection
    # hook, both guarded by numerics._mode_lock (hot-path reads lock-free).
    GlobalEntry(
        module="repro.core.numerics", name="_mode",
        discipline="lock", lock="_mode_lock",
        atomic_reads=("get_numerics_mode", "strict_enabled"),
        rationale="one branch per kernel entry; mode flips only in test "
        "setup, never mid-kernel",
    ),
    GlobalEntry(
        module="repro.core.numerics", name="_fault_hook",
        discipline="lock", lock="_mode_lock",
        atomic_reads=("get_kernel_fault_hook", "numerics_guard"),
        rationale="None-check per guarded kernel; hooks are installed "
        "only by the single-threaded chaos harness",
    ),
    # repro.core.stages — stage fault-injection hooks for the chaos
    # harness, guarded by stages._hooks_lock (runner reads lock-free).
    GlobalEntry(
        module="repro.core.stages", name="_stage_hooks",
        discipline="lock", lock="_hooks_lock",
        atomic_reads=("get_stage_hook",),
        rationale="one dict.get per stage entry; production pipelines "
        "never install hooks",
    ),
    # repro.obs — the observability layer's installed tracer / metrics
    # registry / observer tuple plus the synthetic clock offset, all
    # replaced whole under their module's _state_lock (or
    # _observers_lock); instrumentation hot paths read lock-free.
    GlobalEntry(
        module="repro.obs.trace", name="_tracer",
        discipline="lock", lock="_state_lock",
        atomic_reads=("current_context", "get_tracer", "span"),
        rationale="one None-check per span site; the tracer object is "
        "replaced whole, never mutated in place",
    ),
    GlobalEntry(
        module="repro.obs.trace", name="_synthetic_offset",
        discipline="lock", lock="_state_lock",
        atomic_reads=("monotonic",),
        rationale="single atomic float load per clock read; the offset "
        "only grows, so a stale read stays monotone",
    ),
    GlobalEntry(
        module="repro.obs.metrics", name="_registry",
        discipline="lock", lock="_state_lock",
        atomic_reads=(
            "get_metrics", "inc", "set_gauge", "observe", "to_prometheus",
        ),
        rationale="one None-check per instrumented site; the registry "
        "object is internally locked",
    ),
    GlobalEntry(
        module="repro.obs.profile", name="_observers",
        discipline="lock", lock="_observers_lock",
        atomic_reads=("notify_span_start", "notify_span_end"),
        rationale="iterates an immutable tuple replaced whole under the "
        "lock; notify never sees a half-built tuple",
    ),
    # repro.serve.http — the process-wide server handle installed by the
    # `repro serve` CLI, swapped whole under http._state_lock.  All other
    # serving state (registry map, batcher queues, surrogate LRU,
    # admission counters) is instance state behind per-instance locks or
    # condition variables and therefore never appears in this registry.
    GlobalEntry(
        module="repro.serve.http", name="_server",
        discipline="lock", lock="_state_lock",
        rationale="every access takes the lock; no lock-free fast path",
    ),
    # Name -> class registries: built by a dict display at import,
    # read-only afterwards.
    GlobalEntry(
        module="repro.gam.links", name="_LINKS",
        discipline="frozen-after-import",
        rationale="name -> class table built by one dict display",
    ),
    GlobalEntry(
        module="repro.gam.distributions", name="_DISTS",
        discipline="frozen-after-import",
        rationale="name -> class table built by one dict display",
    ),
    GlobalEntry(
        module="repro.forest.losses", name="_LOSSES",
        discipline="frozen-after-import",
        rationale="name -> class table built by one dict display",
    ),
    GlobalEntry(
        module="repro.forest.model_io", name="_MODEL_CLASSES",
        discipline="frozen-after-import",
        rationale="name -> class table built by one dict display",
    ),
    # Public data-schema constants: dict displays read via .items()/lookup.
    GlobalEntry(
        module="repro.datasets.census", name="CATEGORICAL_LEVELS",
        discipline="frozen-after-import",
        rationale="public data-schema constant",
    ),
    GlobalEntry(
        module="repro.datasets.superconductivity", name="PROPERTIES",
        discipline="frozen-after-import",
        rationale="public data-schema constant",
    ),
    # repro.serve.app — the typed-error -> HTTP-status mapping the
    # exception-flow pass proves complete (DESIGN.md §13).
    GlobalEntry(
        module="repro.serve.app", name="ERROR_STATUS",
        discipline="frozen-after-import",
        rationale="class -> (status, kind) table consulted per request, "
        "built by one dict display",
    ),
    # repro.serve.shm — the fleet's shared-memory segment bookkeeping:
    # which segments this process owns (for unlink-on-drain, crash
    # cleanup, the atexit sweep and the leak regression test) and the
    # monotonic counter minting unique segment names.  Both only ever
    # touched under shm._shm_lock.
    GlobalEntry(
        module="repro.serve.shm", name="_live_segments",
        discipline="lock", lock="_shm_lock",
        rationale="owner-side set of segment names; every add/discard/"
        "snapshot is under the lock so no cleanup path can race another "
        "into double-unlinking or leaking a segment",
    ),
    GlobalEntry(
        module="repro.serve.shm", name="_segment_counter",
        discipline="lock", lock="_shm_lock",
        rationale="monotonic suffix for segment names; incremented under "
        "the lock so two concurrent exports never mint the same name",
    ),
    # repro.ledger — the append-only store's write-side schema table.
    GlobalEntry(
        module="repro.ledger.store", name="REQUIRED_PAYLOAD_KEYS",
        discipline="frozen-after-import",
        rationale="kind -> required payload keys table consulted per "
        "append, built by one dict display",
    ),
    # The analysis layer's own architecture table.
    GlobalEntry(
        module="repro.devtools.analysis.layering", name="ALLOWED_DEPS",
        discipline="frozen-after-import",
        rationale="layer -> allowed-dependency table built by one dict "
        "display; the layering pass reads it per run",
    ),
    # This registry itself.
    GlobalEntry(
        module="repro.devtools.registry", name="THREAD_SAFETY_REGISTRY",
        discipline="frozen-after-import",
        rationale="the allowlist is data; mutating it at runtime would "
        "defeat the audit",
    ),
)

#: ``(module, name) -> GlobalEntry`` for every sanctioned global.
THREAD_SAFETY_REGISTRY: dict[tuple[str, str], GlobalEntry] = {
    (entry.module, entry.name): entry for entry in _ENTRIES
}


def is_registered(module: str, name: str) -> bool:
    """Whether ``module.name`` is a sanctioned (documented) global."""
    return (module, name) in THREAD_SAFETY_REGISTRY


def get_entry(module: str, name: str) -> GlobalEntry | None:
    """The registry entry of ``module.name``, or ``None``."""
    return THREAD_SAFETY_REGISTRY.get((module, name))
