"""CG002 lock discipline.

The rule encodes the concurrency contract of
:class:`repro.core.compressed.CompressedChronoGraph`: no decode, encode or
filesystem work may run while a governed lock (such as the record cache's
``_cache_lock``) is held, and no lock is acquired while a differently
named lock is held.  With no nesting there is no acquisition order to get
wrong.  The distinct-list lock is exempt from the first clause by design:
it is a reentrant lock whose purpose is to serialise decode-driven cache
warming.

CG002 is a whole-program rule: its call summaries -- which locks a
function acquires, which banned decode/encode/filesystem calls it can
reach -- are computed as a fixpoint over the cross-module call graph
(:mod:`repro.analysis.callgraph`), so a service handler that holds a lock
while calling through the segment store into the codec layer, or into a
method that takes a second lock, is flagged even though the frames live
in different modules.  Locks are told apart by name only, so two objects'
same-named locks are left to the runtime sanitizer
(:mod:`repro.testing.sanitizer`), which compares lock identities.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import (
    Finding,
    Project,
    Rule,
    register,
)

__all__ = [
    "LockDisciplineRule",
]


def _lock_name(expr: ast.AST) -> Optional[str]:
    """The lock identity of an expression, or None if it is not a lock.

    Locks are recognised by naming convention: an attribute or variable
    whose name is ``lock`` or ends with ``_lock`` (``self._cache_lock``,
    ``self._distinct_lock``).
    """
    name = None
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    if name is not None and (name == "lock" or name.endswith("_lock")):
        return name
    return None


#: Call-name prefixes that mean "decode or encode work".
_BANNED_PREFIXES = (
    "decode_",
    "encode_",
    "_decode",
    "_encode",
    "read_many_",
)

#: Exact call names meaning decode/encode/filesystem work.
_BANNED_NAMES = {
    "open",
    "fsync",
    "replace",
    "rename",
    "atomic_write_bytes",
    "atomic_write_text",
    "write_text",
    "write_bytes",
    "save_compressed",
    "load_compressed",
    "compress",
}


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_banned(name: str) -> bool:
    return name in _BANNED_NAMES or any(
        name.startswith(p) for p in _BANNED_PREFIXES
    )


class _FunctionSummary:
    """Per-function facts propagated through the cross-module call graph."""

    __slots__ = ("acquires", "bans")

    def __init__(self) -> None:
        self.acquires: Set[str] = set()
        #: banned call names reachable without an intervening exempt lock
        self.bans: Set[str] = set()


@register
class LockDisciplineRule(Rule):
    """CG002: no decode/encode/filesystem work under governed locks,
    and no lock taken while another is held -- checked across modules."""

    id = "CG002"
    name = "lock-discipline"
    summary = (
        "No decode, encode or filesystem call may run while holding a "
        "governed lock (the reentrant distinct-list lock is exempt "
        "by design), and no lock may be acquired while a differently "
        "named lock is held; call summaries flow through the "
        "cross-module call graph."
    )

    def finish(self, project: Project) -> List[Finding]:
        """Fixpoint the summaries, then walk every function's held locks."""
        from repro.analysis.callgraph import CallGraph

        graph: CallGraph = project.callgraph
        summaries = self._fixpoint(graph)
        findings: List[Finding] = []
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            self._walk_block(
                info,
                list(info.node.body),  # type: ignore[attr-defined]
                frozenset(),
                graph,
                summaries,
                findings,
            )
        return findings

    # -- cross-module call summaries --------------------------------------

    def _fixpoint(self, graph) -> Dict[str, _FunctionSummary]:
        """Fixpoint of (locks acquired, banned calls reachable) per function.

        Direct facts are gathered once per function; propagation then
        unions callee summaries along resolved call edges until stable.
        Resolution over-approximates (see :mod:`repro.analysis.callgraph`),
        which can only add scrutiny, never hide a banned call.
        """
        summaries: Dict[str, _FunctionSummary] = {}
        adjacency: Dict[str, Tuple[str, ...]] = {}
        for qualname, info in graph.functions.items():
            summary = _FunctionSummary()
            for node in ast.walk(info.node):
                if isinstance(node, ast.With):
                    for item in node.items:
                        lock = _lock_name(item.context_expr)
                        if lock:
                            summary.acquires.add(lock)
                elif isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name is None:
                        continue
                    if name == "acquire" and isinstance(
                        node.func, ast.Attribute
                    ):
                        lock = _lock_name(node.func.value)
                        if lock:
                            summary.acquires.add(lock)
                    elif _is_banned(name):
                        summary.bans.add(name)
            summaries[qualname] = summary
            # Exact edges only: a ubiquitous method name (`extend`, `get`)
            # on a plain container must not drag in every project method
            # of that name and charge its bans to the caller.
            adjacency[qualname] = tuple(
                callee.qualname
                for callee in graph.callees(info, fallback=False)
            )
        changed = True
        while changed:
            changed = False
            for qualname, callees in adjacency.items():
                summary = summaries[qualname]
                before = (len(summary.acquires), len(summary.bans))
                for callee in callees:
                    other = summaries.get(callee)
                    if other is not None:
                        summary.acquires |= other.acquires
                        summary.bans |= other.bans
                if (len(summary.acquires), len(summary.bans)) != before:
                    changed = True
        return summaries

    # -- lock-held walk ----------------------------------------------------

    def _walk_block(
        self,
        info,
        body: List[ast.stmt],
        held: frozenset,
        graph,
        summaries: Dict[str, _FunctionSummary],
        findings: List[Finding],
    ) -> frozenset:
        """Walk statements propagating the running held-lock set.

        ``with`` bodies see the set plus their lock, and a ``with`` item
        that is not a lock (``with open(...)``) is scanned like a statement
        under the locks entered before it; bare ``.acquire()`` /
        ``.release()`` statements mutate the running set, which flows out
        of nested control blocks (the acquire-try-finally-release idiom).
        """
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Separate frame: a nested def does not run under our locks
                # at definition time.  Its body is walked lock-free (its
                # call sites resolve through the enclosing function).
                self._walk_block(
                    info, stmt.body, frozenset(), graph, summaries, findings
                )
                continue
            if isinstance(stmt, ast.With):
                entered = held
                for item in stmt.items:
                    lock = _lock_name(item.context_expr)
                    if lock:
                        self._check_nesting(
                            info, lock, entered, stmt, None, findings
                        )
                        entered = entered | {lock}
                    else:
                        entered = self._scan_exprs(
                            info, [item.context_expr], entered, graph,
                            summaries, findings,
                        )
                self._walk_block(
                    info, stmt.body, entered, graph, summaries, findings
                )
                continue
            if isinstance(stmt, (ast.If, ast.While)):
                roots: List[ast.AST] = [stmt.test]
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                roots = [stmt.iter]
            elif isinstance(stmt, ast.Try):
                roots = []
            else:
                roots = [stmt]  # simple statement: scan the whole subtree
            held = self._scan_exprs(
                info, roots, held, graph, summaries, findings
            )
            for inner in self._inner_blocks(stmt):
                held = self._walk_block(
                    info, inner, held, graph, summaries, findings
                )
        return held

    def _inner_blocks(self, stmt: ast.stmt) -> List[List[ast.stmt]]:
        blocks: List[List[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if inner and isinstance(inner, list):
                blocks.append(inner)
        for handler in getattr(stmt, "handlers", ()) or ():
            blocks.append(handler.body)
        return blocks

    def _scan_exprs(
        self,
        info,
        roots: List[ast.AST],
        held: frozenset,
        graph,
        summaries: Dict[str, _FunctionSummary],
        findings: List[Finding],
    ) -> frozenset:
        for node in [n for root in roots for n in ast.walk(root)]:
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            if name == "acquire" and isinstance(node.func, ast.Attribute):
                lock = _lock_name(node.func.value)
                if lock:
                    self._check_nesting(info, lock, held, node, None, findings)
                    held = held | {lock}
                continue
            if name == "release" and isinstance(node.func, ast.Attribute):
                lock = _lock_name(node.func.value)
                if lock:
                    held = held - {lock}
                continue
            callees = graph.resolve(node, info, fallback=False)
            banned_here = self._effective_bans(name, callees, summaries)
            if banned_here:
                for lock in sorted(held):
                    if "distinct" in lock:
                        continue  # reentrant warm-cache lock: decode allowed
                    detail = (
                        f"`{name}`"
                        if name in banned_here
                        else f"`{name}` (reaches `{sorted(banned_here)[0]}`)"
                    )
                    findings.append(
                        self.finding(
                            info.source,
                            node,
                            f"{detail} runs decode/encode/filesystem work "
                            f"while holding `{lock}`; move it outside the "
                            "critical section",
                        )
                    )
            if held:
                acquired: Set[str] = set()
                for callee in callees:
                    summary = summaries.get(callee.qualname)
                    if summary is not None:
                        acquired |= summary.acquires
                for lock in sorted(acquired):
                    self._check_nesting(info, lock, held, node, name, findings)
        return held

    def _effective_bans(
        self,
        name: str,
        callees: Sequence,
        summaries: Dict[str, _FunctionSummary],
    ) -> Set[str]:
        if _is_banned(name):
            return {name}
        bans: Set[str] = set()
        for callee in callees:
            summary = summaries.get(callee.qualname)
            if summary is not None:
                bans |= summary.bans
        return bans

    def _check_nesting(
        self,
        info,
        lock: str,
        held: frozenset,
        node: ast.AST,
        via: Optional[str],
        findings: List[Finding],
    ) -> None:
        """Flag acquiring ``lock`` while a differently named lock is held.

        ``via`` names the call whose summary acquires ``lock``, or is None
        for a direct ``with`` or ``.acquire()``.  Re-entering a held name
        is not flagged: an RLock may re-enter, and two objects' same-named
        locks cannot be told apart here.
        """
        others = sorted(held - {lock})
        if not others:
            return
        if via is None:
            taken = f"`{lock}` is acquired"
        else:
            taken = f"`{via}` acquires `{lock}`"
        findings.append(
            self.finding(
                info.source,
                node,
                f"{taken} while holding `{others[0]}`; release it first, "
                "no lock may be taken while another is held",
            )
        )
