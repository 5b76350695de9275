"""The shared whole-program module graph behind ``repro check --deep``.

Every deep analysis pass (lock discipline, RNG taint, exception flow,
layering) needs the same facts: the AST of every module, the dotted name
each local identifier resolves to, which modules import which, and where
every function and class is defined.  This module parses the source tree
*once* into a :class:`ProjectGraph` that all passes share — adding a pass
never adds another parse of ``src/``.

Resolution is purely syntactic: nothing is imported or executed, so the
graph builds in milliseconds and is safe to run on broken or hostile
code.  Identifier resolution is therefore best-effort — aliases from
``import``/``from ... import`` statements (module-level *and*
function-level) plus module-level definitions — which is exactly the
discipline this codebase enforces anyway.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ModuleInfo", "ProjectGraph", "build_project"]


@dataclass
class ModuleInfo:
    """One parsed module and the resolution tables derived from it."""

    #: Dotted module name, e.g. ``repro.forest.bitvector``.
    name: str
    #: Path reported in findings (relative to the project root, POSIX).
    path: str
    #: Absolute filesystem path of the source file.
    abspath: Path
    #: Whether this module is a package ``__init__``.
    is_package: bool
    #: The parsed module body.
    tree: ast.Module
    #: Raw source lines (1-indexed through ``lines[i - 1]``).
    lines: list[str]
    #: Dotted import targets of module-level ``import`` statements only.
    module_imports: set[str] = field(default_factory=set)
    #: Dotted import targets including function-level (lazy) imports.
    all_imports: set[str] = field(default_factory=set)
    #: Line number of the first import statement binding each target.
    import_lines: dict[str, int] = field(default_factory=dict)
    #: Local identifier -> dotted target it was imported as.
    aliases: dict[str, str] = field(default_factory=dict)
    #: Qualified name (``Class.method`` / ``func``) -> its def node.
    defs: dict[str, ast.AST] = field(default_factory=dict)
    #: Names bound by assignment at module level -> the binding node.
    module_assigns: dict[str, ast.AST] = field(default_factory=dict)
    _parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: Raw ``from base import names`` records awaiting submodule
    #: refinement: ``(base, names, lineno, at_module_level)``.
    _from_imports: list[tuple[str, tuple[str, ...], int, bool]] = field(
        default_factory=list
    )

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST):
        """Parents of ``node`` from innermost outwards."""
        cursor = self._parents.get(node)
        while cursor is not None:
            yield cursor
            cursor = self._parents.get(cursor)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The innermost function/lambda ``node`` sits in, or ``None``."""
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return ancestor
        return None

    def qualname(self, node: ast.AST) -> str:
        """Dotted in-module qualified name of a def (``Class.method``)."""
        parts = [getattr(node, "name", "<lambda>")]
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(ancestor.name)
        return ".".join(reversed(parts))

    def dotted(self, node: ast.AST) -> str | None:
        """Resolve a ``Name``/``Attribute`` chain to a dotted global name.

        ``np.random.default_rng`` resolves through the ``import numpy as
        np`` alias to ``numpy.random.default_rng``; a bare name defined at
        module level resolves to ``<module>.<name>``.  Unresolvable
        expressions (locals, call results, subscripts) return ``None``.
        """
        parts: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        base = self.aliases.get(cursor.id)
        if base is None:
            if cursor.id in self.defs or cursor.id in self.module_assigns:
                base = f"{self.name}.{cursor.id}"
            else:
                return None
        return ".".join([base, *reversed(parts)]) if parts else base


class ProjectGraph:
    """All modules of one source tree plus cross-module indexes."""

    def __init__(self, modules: dict[str, ModuleInfo]):
        self.modules = modules
        #: Bare definition name -> every (module, qualname, node) site.
        self.defs_by_name: dict[str, list[tuple[ModuleInfo, str, ast.AST]]] = {}
        for info in modules.values():
            for qualname, node in info.defs.items():
                bare = qualname.rsplit(".", 1)[-1]
                self.defs_by_name.setdefault(bare, []).append(
                    (info, qualname, node)
                )

    def module_of_file(self, path: str) -> ModuleInfo | None:
        """The module whose finding-relative ``path`` matches, if any."""
        for info in self.modules.values():
            if info.path == path:
                return info
        return None


def _resolve_relative(
    info_name: str, is_package: bool, level: int, target: str | None
) -> str:
    """Absolute dotted target of a relative ``from``-import."""
    parts = info_name.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        at_module_level = isinstance(info.parent(node), ast.Module)
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    info.aliases[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds the top package ``a``.
                    top = alias.name.split(".", 1)[0]
                    info.aliases.setdefault(top, top)
                info.all_imports.add(alias.name)
                info.import_lines.setdefault(alias.name, node.lineno)
                if at_module_level:
                    info.module_imports.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(
                    info.name, info.is_package, node.level, node.module
                )
            else:
                base = node.module or ""
            names = []
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.append(alias.name)
                local = alias.asname or alias.name
                info.aliases[local] = f"{base}.{alias.name}" if base else alias.name
            # Edge targets depend on whether each imported name is itself
            # a project module (``from repro import forest`` depends on
            # ``repro.forest``, not the root package) — resolved in
            # ``build_project`` once the module set is complete.
            info._from_imports.append(
                (base, tuple(names), node.lineno, at_module_level)
            )


def _collect_defs(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            info.defs[info.qualname(node)] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            if not isinstance(info.parent(node), ast.Module):
                continue
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    info.module_assigns.setdefault(target.id, node)


def _refine_from_imports(modules: dict[str, ModuleInfo]) -> None:
    """Turn ``from``-import records into dependency edges.

    ``from pkg import name`` depends on the submodule ``pkg.name`` when
    that is a project module, and on ``pkg`` itself only when at least
    one imported name is a plain attribute of the package.
    """
    for info in modules.values():
        for base, names, lineno, at_module_level in info._from_imports:
            targets = []
            base_needed = not names  # a bare ``from pkg import *``
            for name in names:
                sub = f"{base}.{name}" if base else name
                if sub in modules:
                    targets.append(sub)
                else:
                    base_needed = True
            if base_needed and base:
                targets.append(base)
            for target in targets:
                info.all_imports.add(target)
                info.import_lines.setdefault(target, lineno)
                if at_module_level:
                    info.module_imports.add(target)


def _module_name(py_file: Path, src_root: Path) -> tuple[str, bool]:
    rel = py_file.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


def build_project(
    src_root: Path | str, root: Path | str | None = None
) -> ProjectGraph:
    """Parse every ``.py`` file under ``src_root`` into a project graph.

    ``root`` controls how files are named in findings (paths relative to
    it, POSIX-style), matching the per-file lint engine's convention so
    deep findings share the same baseline and waiver machinery.
    """
    src_root = Path(src_root).resolve()
    root = src_root if root is None else Path(root).resolve()
    modules: dict[str, ModuleInfo] = {}
    for py_file in sorted(src_root.rglob("*.py")):
        if "__pycache__" in py_file.parts:
            continue
        source = py_file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(py_file))
        except SyntaxError:
            # The per-file lint engine already reports syntax errors;
            # the whole-program passes simply skip unparseable modules.
            continue
        name, is_package = _module_name(py_file, src_root)
        if not name:
            continue
        try:
            rel = py_file.relative_to(root).as_posix()
        except ValueError:
            rel = py_file.as_posix()
        info = ModuleInfo(
            name=name,
            path=rel,
            abspath=py_file,
            is_package=is_package,
            tree=tree,
            lines=source.splitlines(),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                info._parents[child] = parent
        _collect_imports(info)
        _collect_defs(info)
        modules[name] = info
    _refine_from_imports(modules)
    return ProjectGraph(modules)
