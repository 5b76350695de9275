"""The repo-specific lint rule catalog.

Eleven rules, each encoding an invariant this codebase's correctness
claims actually rest on (see DESIGN.md §8 for the catalog rationale):

============================  ========  =====================================
rule id                       severity  invariant
============================  ========  =====================================
``rng-global-state``          error     no legacy ``np.random.*`` global-state
                                        calls — randomness flows through an
                                        explicit ``np.random.Generator``
``global-state``              error     every module-level mutable object and
                                        every ``global`` rebind is registered
                                        in the thread-safety registry
``mutable-default``           error     no mutable default arguments
``float-eq``                  warning   no ``==``/``!=`` against float
                                        literals (waive exact sentinels with
                                        a pragma)
``broad-except``              error     no bare ``except`` and no
                                        ``except Exception`` that swallows
                                        (re-raising handlers are fine)
``missing-all``               warning   public modules declare ``__all__``
``undocumented-public``       warning   symbols a module exports via
                                        ``__all__`` carry docstrings
``shadowed-builtin``          warning   no parameter names shadowing builtins
``raise-outside-taxonomy``    error     pipeline stages raise the typed
                                        taxonomy of ``repro.core.errors``,
                                        not bare ``ValueError`` /
                                        ``RuntimeError``
``adhoc-timing``              error     pipeline modules read the pipeline
                                        clock (``repro.obs``), never raw
                                        ``time.perf_counter`` /
                                        ``time.monotonic``, so traces and
                                        fault-injected stalls stay coherent
``buffered-take``             warning   a ``take`` into ``out=`` names its
                                        ``mode=``: numpy buffers ``out``
                                        under the default ``mode="raise"``
============================  ========  =====================================
"""

from __future__ import annotations

import ast
import builtins

from .engine import LintRule
from .registry import THREAD_SAFETY_REGISTRY

__all__ = [
    "AdhocTimingRule",
    "BroadExceptRule",
    "BufferedTakeRule",
    "FloatEqualityRule",
    "GlobalStateRule",
    "MissingAllRule",
    "MutableDefaultRule",
    "RaiseOutsideTaxonomyRule",
    "RngGlobalStateRule",
    "ShadowedBuiltinRule",
    "UndocumentedPublicRule",
    "default_rules",
    "rule_catalog",
]

#: np.random attributes that do NOT touch the legacy global RNG state.
_RNG_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Constructors whose call produces shared-mutable state.
_MUTABLE_CALLS = frozenset(
    {"dict", "list", "set", "bytearray", "OrderedDict", "defaultdict",
     "deque", "Counter", "ChainMap"}
)

#: Synchronization primitives — module-level instances are the *fix* for
#: shared mutable state, not an instance of it.
_SYNC_CALLS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "Event", "Barrier", "local"}
)

_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name in _MUTABLE_CALLS and name not in _SYNC_CALLS
    return False


class RngGlobalStateRule(LintRule):
    """Legacy ``np.random.*`` calls draw from hidden process-wide state;
    two threads (or two tests) interleave and results stop reproducing.
    Every consumer must take an explicit ``np.random.Generator``."""

    rule_id = "rng-global-state"
    severity = "error"
    description = (
        "legacy np.random.* global-state API used; take an explicit "
        "np.random.Generator instead"
    )
    node_types = (ast.Attribute, ast.ImportFrom)

    def visit(self, node, ctx):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("numpy.random", "numpy.random.mtrand"):
                for alias in node.names:
                    if alias.name not in _RNG_ALLOWED:
                        ctx.report(
                            self, node,
                            f"from numpy.random import {alias.name} pulls in "
                            f"the legacy global-state API",
                        )
            return
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy")
            and node.attr not in _RNG_ALLOWED
        ):
            ctx.report(
                self, node,
                f"np.random.{node.attr} uses the process-global RNG; "
                f"accept a np.random.Generator instead",
            )


class GlobalStateRule(LintRule):
    """Unregistered module-level mutable state is a data race waiting for
    the first threaded caller.  Register sanctioned globals (with their
    locking discipline) in ``repro.devtools.registry``."""

    rule_id = "global-state"
    severity = "error"
    description = (
        "module-level mutable state or `global` rebind outside the "
        "thread-safety registry"
    )
    node_types = (ast.Global, ast.Assign, ast.AnnAssign)

    def __init__(self, registry: dict[tuple[str, str], object] | None = None):
        # Only membership of (module, name) keys matters here; the typed
        # GlobalEntry values are consumed by the deep lock-discipline
        # pass (repro.devtools.analysis.locks), which *proves* each
        # entry's discipline instead of trusting it.
        self.registry = THREAD_SAFETY_REGISTRY if registry is None else registry

    def _registered(self, ctx, name: str) -> bool:
        return (ctx.module, name) in self.registry

    def visit(self, node, ctx):
        if isinstance(node, ast.Global):
            for name in node.names:
                if not self._registered(ctx, name):
                    ctx.report(
                        self, node,
                        f"`global {name}` rebinds unregistered module state",
                    )
            return
        if not ctx.is_module_level(node) or node.value is None:
            return
        if not _is_mutable_value(node.value):
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            # Dunder assignments (__all__, __version__, ...) are
            # declarative metadata, immutable by convention.
            if target.id.startswith("__") and target.id.endswith("__"):
                continue
            if not self._registered(ctx, target.id):
                ctx.report(
                    self, node,
                    f"module-level mutable object `{target.id}` is not in "
                    f"the thread-safety registry",
                )


class MutableDefaultRule(LintRule):
    """A mutable default is evaluated once and shared by every call —
    state leaks across calls (and across threads)."""

    rule_id = "mutable-default"
    severity = "error"
    description = "mutable default argument shared across calls"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(self, node, ctx):
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_value(default):
                label = getattr(node, "name", "<lambda>")
                ctx.report(
                    self, default,
                    f"mutable default argument in `{label}` — use None and "
                    f"construct inside the body",
                )


class FloatEqualityRule(LintRule):
    """``==`` against a float literal silently fails for values that are
    not exactly representable; exact sentinel checks must say so with a
    ``# repro: allow(float-eq)`` waiver naming the regression test."""

    rule_id = "float-eq"
    severity = "warning"
    description = "== / != comparison against a float literal"
    node_types = (ast.Compare,)

    @staticmethod
    def _is_float_literal(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.USub, ast.UAdd)
        ):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    def visit(self, node, ctx):
        operands = [node.left, *node.comparators]
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (lhs, rhs):
                if self._is_float_literal(side):
                    ctx.report(
                        self, node,
                        f"float literal compared with "
                        f"{'==' if isinstance(op, ast.Eq) else '!='}: "
                        f"{ast.unparse(side)}",
                    )
                    break


class BroadExceptRule(LintRule):
    """A bare or blanket handler that swallows turns real defects
    (including the sanitizer's FloatingPointError) into silence."""

    rule_id = "broad-except"
    severity = "error"
    description = "bare `except:` or swallowing `except Exception:`"
    node_types = (ast.ExceptHandler,)

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        return any(
            isinstance(stmt, ast.Raise)
            for body_stmt in handler.body
            for stmt in ast.walk(body_stmt)
        )

    @staticmethod
    def _broad_names(type_node: ast.AST | None):
        if type_node is None:
            return
        elements = (
            type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for element in elements:
            if isinstance(element, ast.Name) and element.id in (
                "Exception",
                "BaseException",
            ):
                yield element.id

    def visit(self, node, ctx):
        if node.type is None:
            ctx.report(self, node, "bare `except:` catches everything")
            return
        for name in self._broad_names(node.type):
            if not self._reraises(node):
                ctx.report(
                    self, node,
                    f"`except {name}:` swallows errors (no re-raise)",
                )


class MissingAllRule(LintRule):
    """A public module without ``__all__`` has no declared API surface, so
    the docstring and hygiene gates cannot see what it exports."""

    rule_id = "missing-all"
    severity = "warning"
    description = "public module defines public symbols but no __all__"
    node_types = (ast.Module,)

    @staticmethod
    def _is_public_module(ctx) -> bool:
        stem = ctx.path.rsplit("/", 1)[-1].removesuffix(".py")
        return not stem.startswith("_") or stem == "__init__"

    def visit(self, node, ctx):
        if not self._is_public_module(ctx):
            return
        has_all = any(
            isinstance(stmt, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets
            )
            for stmt in node.body
        )
        if has_all:
            return
        has_public = any(
            isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
            and not stmt.name.startswith("_")
            or isinstance(stmt, (ast.Import, ast.ImportFrom))
            and ctx.path.endswith("__init__.py")
            for stmt in node.body
        )
        if has_public:
            ctx.report(
                self, 1,
                "public module with public definitions but no __all__",
            )


class UndocumentedPublicRule(LintRule):
    """Everything a module explicitly exports is API; API without a
    docstring is unreviewable.  (AST-exact replacement for the old
    import-time hygiene check — reports the defining ``file:line``.)"""

    rule_id = "undocumented-public"
    severity = "warning"
    description = "symbol listed in __all__ lacks a docstring"
    node_types = (ast.Module,)

    @staticmethod
    def _exported_names(node: ast.Module) -> frozenset[str]:
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets
            ):
                if isinstance(stmt.value, (ast.List, ast.Tuple)):
                    return frozenset(
                        e.value
                        for e in stmt.value.elts
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                    )
        return frozenset()

    def visit(self, node, ctx):
        exported = self._exported_names(node)
        if not exported:
            return
        for stmt in node.body:
            if (
                isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and stmt.name in exported
                and ast.get_docstring(stmt) is None
            ):
                ctx.report(
                    self, stmt,
                    f"`{stmt.name}` is exported via __all__ but has no "
                    f"docstring",
                )


class ShadowedBuiltinRule(LintRule):
    """A parameter named after a builtin shadows it for the whole body —
    the classic source of `TypeError: 'int' object is not callable`."""

    rule_id = "shadowed-builtin"
    severity = "warning"
    description = "function parameter shadows a Python builtin"
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    _BUILTINS = frozenset(
        name
        for name in dir(builtins)
        if not name.startswith("_") and name.islower()
    )

    def visit(self, node, ctx):
        args = node.args
        every = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ]
        label = getattr(node, "name", "<lambda>")
        for arg in every:
            if arg.arg in self._BUILTINS:
                ctx.report(
                    self, arg,
                    f"parameter `{arg.arg}` of `{label}` shadows the "
                    f"builtin",
                )


class RaiseOutsideTaxonomyRule(LintRule):
    """The pipeline boundary promises typed errors: callers catch
    :class:`~repro.core.errors.ReproError` families, not tracebacks.  A
    bare ``ValueError``/``RuntimeError`` raised from a pipeline stage
    module escapes that contract.  Waive deliberate API-misuse raises
    (e.g. a bad argument *to the harness itself*) with a
    ``# repro: allow(raise-outside-taxonomy)`` pragma."""

    rule_id = "raise-outside-taxonomy"
    severity = "error"
    description = (
        "pipeline stage raises bare ValueError/RuntimeError instead of a "
        "repro.core.errors taxonomy type"
    )
    node_types = (ast.Raise,)

    #: Modules forming the pipeline boundary — every raise crossing it
    #: must be a taxonomy type.
    _PIPELINE_MODULES = frozenset(
        {
            "repro.core.dataset",
            "repro.core.explainer",
            "repro.core.feature_selection",
            "repro.core.gam_builder",
            "repro.core.interactions",
            "repro.core.sampling",
            "repro.core.stages",
            "repro.core.validate",
            "repro.forest.bitvector",
            "repro.forest.engines",
            "repro.ledger.diff",
            "repro.ledger.records",
            "repro.ledger.store",
            "repro.ledger.verify",
            "repro.obs.drift",
            "repro.obs.slo",
            "repro.serve.admission",
            "repro.serve.app",
            "repro.serve.batcher",
            "repro.serve.fleet",
            "repro.serve.registry",
            "repro.serve.shm",
            "repro.serve.supervisor",
            "repro.serve.surrogate",
            "repro.serve.worker",
        }
    )

    _BANNED = frozenset({"ValueError", "RuntimeError"})

    def visit(self, node, ctx):
        if ctx.module not in self._PIPELINE_MODULES:
            return
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name) and exc.id in self._BANNED:
            ctx.report(
                self, node,
                f"`raise {exc.id}` at the pipeline boundary; raise a "
                f"repro.core.errors type (e.g. SamplingError, "
                f"SelectionError) so callers get the typed taxonomy",
            )


class AdhocTimingRule(LintRule):
    """All pipeline timing flows through the observability clock
    (:func:`repro.obs.trace.monotonic`) and spans, which incorporate the
    synthetic stall seconds the fault-injection harness charges.  A raw
    ``time.perf_counter()`` / ``time.monotonic()`` read in a pipeline
    module produces durations that traces cannot see and chaos stalls
    cannot reach.  Waive deliberate raw-clock reads (e.g. benchmarking
    the clock itself) with a ``# repro: allow(adhoc-timing)`` pragma."""

    rule_id = "adhoc-timing"
    severity = "error"
    description = (
        "raw time.perf_counter()/time.monotonic() in a pipeline module; "
        "use the repro.obs pipeline clock and spans instead"
    )
    node_types = (ast.Attribute, ast.ImportFrom)

    #: Module prefixes forming the instrumented pipeline.
    #: ``repro.obs.trace`` is the timing authority and exempt; the other
    #: obs modules (metrics, summary, slo, drift) must go
    #: through its pipeline clock like everything else.  devtools, cli
    #: and the xai baselines are harness code outside the traced
    #: pipeline.  Exact module names work as prefixes here (startswith).
    _PIPELINE_PREFIXES = (
        "repro.core.",
        "repro.gam.",
        "repro.forest.",
        "repro.ledger.",
        "repro.obs.drift",
        "repro.obs.metrics",
        "repro.obs.slo",
        "repro.obs.summary",
        "repro.serve.",
    )

    _BANNED = frozenset(
        {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
    )

    def _in_pipeline(self, ctx) -> bool:
        return ctx.module.startswith(self._PIPELINE_PREFIXES)

    def visit(self, node, ctx):
        if not self._in_pipeline(ctx):
            return
        if isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in self._BANNED:
                        ctx.report(
                            self, node,
                            f"from time import {alias.name} bypasses the "
                            f"pipeline clock; use repro.obs.trace.monotonic",
                        )
            return
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in self._BANNED
        ):
            ctx.report(
                self, node,
                f"time.{node.attr}() bypasses the pipeline clock; use "
                f"repro.obs.trace.monotonic (spans see synthetic stalls, "
                f"raw clocks do not)",
            )


class BufferedTakeRule(LintRule):
    """numpy documents that ``out`` "is always buffered if
    mode='raise'", the default: a ``take`` into ``out`` then gathers into
    a temporary and copies it over, which more than doubled the cost of
    the bitvector engine's hot gathers.  A ``take`` that passes ``out``
    must say which mode it wants: ``"clip"`` or ``"wrap"`` where the
    indices are in range by construction, an explicit ``"raise"`` where
    the copy is worth the bounds check.  Both ``np.take(a, i, axis, out)``
    and ``a.take(i, axis, out)`` are recognised, by keyword or position."""

    rule_id = "buffered-take"
    severity = "warning"
    description = (
        "take(..., out=...) without mode=: numpy buffers out under the "
        "default mode='raise'"
    )
    node_types = (ast.Call,)

    def visit(self, node, ctx):
        if _call_name(node) != "take":
            return
        func = node.func
        # The function form takes the array first: out and mode sit one
        # position later than in the method form.
        function = isinstance(func, ast.Name) or (
            isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        )
        out_at = 3 if function else 2
        keywords = {kw.arg for kw in node.keywords}
        if "mode" in keywords or len(node.args) > out_at + 1:
            return
        if "out" in keywords or len(node.args) > out_at:
            ctx.report(
                self, node,
                "take into out= without mode=: pass mode='clip' for indices "
                "in range by construction, or assign the result instead",
            )


def default_rules(
    registry: dict[tuple[str, str], object] | None = None,
) -> list[LintRule]:
    """One instance of every rule, wired to the thread-safety ``registry``
    (the committed :data:`~repro.devtools.registry.THREAD_SAFETY_REGISTRY`
    by default)."""
    return [
        RngGlobalStateRule(),
        GlobalStateRule(registry=registry),
        MutableDefaultRule(),
        FloatEqualityRule(),
        BroadExceptRule(),
        MissingAllRule(),
        UndocumentedPublicRule(),
        ShadowedBuiltinRule(),
        RaiseOutsideTaxonomyRule(),
        AdhocTimingRule(),
        BufferedTakeRule(),
    ]


def rule_catalog() -> list[tuple[str, str, str]]:
    """``(rule_id, severity, description)`` for every registered rule."""
    return [
        (rule.rule_id, rule.severity, rule.description)
        for rule in default_rules()
    ]
