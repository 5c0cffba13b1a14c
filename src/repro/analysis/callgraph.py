"""Project-wide symbol table and cross-module call graph.

The interprocedural rules (CG002 lock discipline, CG007 checkpoint
coverage) need to see through module boundaries: a service handler that
calls into the segment store which calls into the codec layer must carry
the codec's facts (decodes, acquires a lock, polls a checkpoint) back up
to the call site.  This module builds that view once per analysis run:

* a **symbol table** of every module-level function and every class method
  across all parsed sources, keyed by dotted qualname
  (``repro.storage.segments.SegmentStore.compact_once``);
* a per-module **import table** resolving ``from m import f`` / ``import
  m as alias`` (including relative imports) to dotted targets;
* a **call resolver** mapping one ``ast.Call`` in one function to the
  candidate :class:`FunctionInfo` targets it may invoke.

Resolution is deliberately *conservative over-approximation*, in this
order: exact matches first (same-module functions, imported names, the
caller's own class for ``self.``/``cls.`` calls -- or, for a hook the
class leaves to its subclasses, every override -- class-qualified calls
like ``WriteAheadLog.open``), then a project-wide bare-name fallback for
attribute calls (``part.graph.neighbors(...)`` matches every ``neighbors``
in the project).  Over-approximation can only create extra call edges,
which for CG002/CG007 means extra scrutiny, never a silently missed path.
Names with no match anywhere (builtins, stdlib methods) resolve to
nothing.

Module names are derived from file paths anchored at the ``repro``
package root when present (``src/repro/bits/codes.py`` and a test
fixture's ``<tmp>/repro/bits/codes.py`` both become
``repro.bits.codes``), falling back to ``tests``/``benchmarks`` anchors
and finally the bare stem -- so fixture trees resolve imports exactly
like the real tree does.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import SourceFile

__all__ = ["FunctionInfo", "CallGraph", "module_name", "call_name"]


def module_name(display_path: str) -> str:
    """The dotted module name a source path denotes (see module docstring)."""
    parts = list(Path(display_path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            return ".".join(parts[parts.index(anchor):]) or anchor
    return parts[-1] if parts else ""


def call_name(call: ast.Call) -> Optional[str]:
    """The bare name a call dispatches on (``f`` for both ``f()`` and ``x.f()``)."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


@dataclass(frozen=True)
class FunctionInfo:
    """One module-level function or class method in the project."""

    qualname: str
    module: str
    cls: Optional[str]
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    source: SourceFile


def _dotted(expr: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class CallGraph:
    """Symbol table + call resolver over one run's parsed sources."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        #: qualname -> info, every indexed function in the project.
        self.functions: Dict[str, FunctionInfo] = {}
        self._module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        self._class_methods: Dict[Tuple[str, str], Dict[str, FunctionInfo]] = {}
        #: base class name -> (module, name) of each class deriving from it.
        self._subclasses: Dict[str, List[Tuple[str, str]]] = {}
        self._bare_functions: Dict[str, List[FunctionInfo]] = {}
        self._bare_any: Dict[str, List[FunctionInfo]] = {}
        self._imports: Dict[str, Dict[str, str]] = {}
        self._callee_cache: Dict[
            Tuple[str, bool], Tuple[FunctionInfo, ...]
        ] = {}
        for source in sources:
            self._index_source(source)

    # -- construction --------------------------------------------------------

    def _index_source(self, source: SourceFile) -> None:
        module = module_name(source.display_path)
        mod_funcs = self._module_functions.setdefault(module, {})
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module}.{stmt.name}",
                    module=module,
                    cls=None,
                    name=stmt.name,
                    node=stmt,
                    source=source,
                )
                self._add(info, mod_funcs)
            elif isinstance(stmt, ast.ClassDef):
                methods = self._class_methods.setdefault(
                    (module, stmt.name), {}
                )
                for base in stmt.bases:
                    base_name = _dotted(base)
                    if base_name is not None:
                        self._subclasses.setdefault(
                            base_name.rpartition(".")[2], []
                        ).append((module, stmt.name))
                for sub in stmt.body:
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info = FunctionInfo(
                            qualname=f"{module}.{stmt.name}.{sub.name}",
                            module=module,
                            cls=stmt.name,
                            name=sub.name,
                            node=sub,
                            source=source,
                        )
                        self._add(info, methods)
        self._imports[module] = self._collect_imports(source.tree, module)

    def _add(
        self, info: FunctionInfo, table: Dict[str, FunctionInfo]
    ) -> None:
        self.functions[info.qualname] = info
        table.setdefault(info.name, info)
        self._bare_any.setdefault(info.name, []).append(info)
        if info.cls is None:
            self._bare_functions.setdefault(info.name, []).append(info)

    def _collect_imports(
        self, tree: ast.Module, module: str
    ) -> Dict[str, str]:
        """alias -> dotted target ("pkg.mod" or "pkg.mod.func")."""
        out: Dict[str, str] = {}
        package_parts = module.split(".")[:-1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    out[name] = target
                    if alias.asname is None:
                        # `import a.b.c` also makes the full dotted chain
                        # usable; record it under its own spelling.
                        out[alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base_parts = package_parts[: len(package_parts) - node.level + 1]
                    base = ".".join(
                        base_parts + ([node.module] if node.module else [])
                    )
                else:
                    base = node.module or ""
                if not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    out[alias.asname or alias.name] = f"{base}.{alias.name}"
        return out

    # -- resolution ----------------------------------------------------------

    def resolve(
        self, call: ast.Call, caller: FunctionInfo, fallback: bool = True
    ) -> List[FunctionInfo]:
        """Candidate targets of ``call`` made from inside ``caller``.

        With ``fallback=False`` only exact matches resolve (same module,
        imports, own class, class-qualified, dotted chains); the
        project-wide bare-name over-approximation is skipped.  Rules pick
        the mode per question: rejecting uses exact edges (a ubiquitous
        method name like ``extend`` must not drag in every implementation
        in the project), accepting may use the generous set.
        """
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, caller, fallback)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func, caller, fallback)
        return []

    def _resolve_name(
        self, name: str, caller: FunctionInfo, fallback: bool
    ) -> List[FunctionInfo]:
        local = self._module_functions.get(caller.module, {}).get(name)
        if local is not None:
            return [local]
        target = self._imports.get(caller.module, {}).get(name)
        if target is not None:
            hit = self.functions.get(target)
            return [hit] if hit is not None else []
        if not fallback:
            return []
        # Project-wide fallback: a bare call to a name only defined
        # elsewhere (re-exported helpers, fixtures mirroring real modules).
        return list(self._bare_functions.get(name, ()))

    def _resolve_attribute(
        self, func: ast.Attribute, caller: FunctionInfo, fallback: bool
    ) -> List[FunctionInfo]:
        attr = func.attr
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and caller.cls is not None:
                own = self._class_methods.get(
                    (caller.module, caller.cls), {}
                ).get(attr)
                if own is not None:
                    return [own]
                overrides = self._overrides(caller.cls, attr)
                if overrides:
                    return overrides
            else:
                # Class-qualified call in the same module: WAL.open(...).
                own = self._class_methods.get(
                    (caller.module, base.id), {}
                ).get(attr)
                if own is not None:
                    return [own]
                target = self._imports.get(caller.module, {}).get(base.id)
                if target is not None:
                    hit = self.functions.get(f"{target}.{attr}")
                    if hit is not None:
                        return [hit]
        chain = _dotted(func)
        if chain is not None:
            # `repro.storage.atomic.atomic_write_text(...)` style chains:
            # try every import-alias prefix expansion, then the raw chain.
            imports = self._imports.get(caller.module, {})
            head, _, rest = chain.partition(".")
            expanded = None
            if head in imports and rest:
                expanded = f"{imports[head]}.{rest}"
            for candidate in filter(None, (expanded, chain)):
                hit = self.functions.get(candidate)
                if hit is not None:
                    return [hit]
        if not fallback:
            return []
        # Conservative fallback: any function or method with this name.
        return list(self._bare_any.get(attr, ()))

    def _overrides(self, cls: str, attr: str) -> List[FunctionInfo]:
        """Method ``attr`` of each class deriving from ``cls``: the targets
        of a hook a base class calls but leaves to its subclasses."""
        methods = (
            self._class_methods.get(key, {}).get(attr)
            for key in self._subclasses.get(cls, ())
        )
        return [method for method in methods if method is not None]

    def callees(
        self, caller: FunctionInfo, fallback: bool = True
    ) -> Tuple[FunctionInfo, ...]:
        """Every resolvable call target inside ``caller``'s own frame.

        Nested ``def``\\ s are part of the enclosing frame here: they are
        not indexed as separate nodes, so their call sites charge the
        function that defines them (a conservative but stable choice --
        closures in this codebase run on behalf of their definer).
        """
        key = (caller.qualname, fallback)
        cached = self._callee_cache.get(key)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        out: List[FunctionInfo] = []
        for node in ast.walk(caller.node):
            if not isinstance(node, ast.Call):
                continue
            for info in self.resolve(node, caller, fallback):
                if info.qualname not in seen and info.qualname != caller.qualname:
                    seen.add(info.qualname)
                    out.append(info)
        result = tuple(out)
        self._callee_cache[key] = result
        return result

    def reachable(
        self, roots: Iterable[FunctionInfo], fallback: bool = True
    ) -> Dict[str, FunctionInfo]:
        """Every function reachable from ``roots`` through resolved calls."""
        frontier = list(roots)
        out: Dict[str, FunctionInfo] = {}
        while frontier:
            info = frontier.pop()
            if info.qualname in out:
                continue
            out[info.qualname] = info
            frontier.extend(self.callees(info, fallback))
        return out

    def methods_of(self, class_name: str) -> List[FunctionInfo]:
        """All methods of every class named ``class_name`` in the project."""
        out: List[FunctionInfo] = []
        for (_, cls), methods in sorted(self._class_methods.items()):
            if cls == class_name:
                out.extend(methods.values())
        return out
