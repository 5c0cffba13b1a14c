"""CG007: every unbounded query loop must reach a checkpoint poll.

The deadline machinery of :mod:`repro.runtime.context` only works if the
query plane actually polls it: a loop that decodes, walks or scans without
ever reaching ``QueryContext.checkpoint`` (directly, through
:func:`repro.runtime.context.checkpoint_ambient`, or through a bulk reader
that polls the :data:`repro.bits.kernels.CheckpointHook`) can outrun any
budget the caller set.  This rule closes that gap whole-program:

1. *Entry points* are the methods of ``CompressedChronoGraph`` /
   ``SegmentedChronoGraph`` that enter a ``query_scope`` -- the documented
   shape of every governed query entry point.
2. A *polling* function either calls ``checkpoint`` /
   ``checkpoint_ambient``, or touches the kernels checkpoint hook
   (``_checkpoint_hook`` / ``get_checkpoint_hook``) the bulk readers
   chunk against.  Polling propagates up the cross-module call graph
   (:mod:`repro.analysis.callgraph`): calling a poller is itself a poll.
3. Every function reachable from an entry point is walked for loops.
   All ``while`` loops count; ``for`` loops count when their body does
   real per-iteration work (any call outside a small trivial-builtin
   whitelist).  A counted loop with no poll anywhere in its body -- not
   even through a resolved callee -- is a finding.

Call resolution over-approximates (see the call-graph module), so a loop
is credited with a poll if *any* candidate callee polls; the rule errs
toward accepting, never toward noise from unrelated same-named helpers.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.framework import Finding, Project, Rule, register

__all__ = ["CheckpointCoverageRule"]

#: Classes whose query_scope-entering methods are the governed entry points.
_ENTRY_CLASSES = ("CompressedChronoGraph", "SegmentedChronoGraph")

#: Direct poll call names (QueryContext.checkpoint and the ambient helper).
_POLL_CALLS = {"checkpoint", "checkpoint_ambient"}

#: Touching the decode checkpoint hook is how the bulk readers poll.
_HOOK_NAMES = {"_checkpoint_hook", "get_checkpoint_hook"}

#: Per-iteration calls that do not constitute "real work": a for loop whose
#: body only shuffles already-decoded values is bounded by its iterable and
#: needs no poll of its own.
_TRIVIAL_CALLS = {
    "abs", "acquire", "add", "append", "bisect_left", "bisect_right",
    "bool", "chr", "dict", "discard", "enumerate", "extend", "format",
    "frozenset", "get", "hasattr", "insert", "int", "isinstance", "items",
    "join", "keys", "len", "list", "max", "min", "next", "ord", "pop",
    "popleft", "range", "release", "repr", "reversed", "set", "setdefault",
    "sorted", "startswith", "str", "sum", "tuple", "update", "values",
    "zip",
}


def _call_name(call: ast.Call) -> str:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


def _touches_hook(node: ast.AST) -> bool:
    """Whether ``node``'s subtree reads the kernels checkpoint hook."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _HOOK_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in _HOOK_NAMES:
            return True
    return False


@register
class CheckpointCoverageRule(Rule):
    """CG007: unbounded loops on query paths must poll a checkpoint."""

    id = "CG007"
    name = "checkpoint-coverage"
    summary = (
        "Every unbounded loop reachable from a CompressedChronoGraph / "
        "SegmentedChronoGraph query entry point must reach a "
        "QueryContext.checkpoint poll, checkpoint_ambient, or a bulk "
        "reader that polls the kernels checkpoint hook."
    )

    def finish(self, project: Project) -> List[Finding]:
        """Find entry points, fixpoint poll facts, then audit every loop."""
        graph = project.callgraph
        entries = self._entry_points(graph)
        if not entries:
            return []
        polls = self._poll_fixpoint(graph)
        origin = self._reachable_with_origin(graph, entries)
        findings: List[Finding] = []
        for qualname in sorted(origin):
            info = graph.functions[qualname]
            if not info.module.startswith("repro."):
                continue  # only production modules owe polls
            if self._direct_poll(info.node):
                # The function manages its own checkpoint discipline
                # (e.g. the record decoders, which chunk their table
                # loops by the hook's stride); its loops are its business.
                continue
            for loop in self._significant_loops(info.node):
                if self._loop_polls(loop, info, graph, polls):
                    continue
                findings.append(
                    self.finding(
                        info.source,
                        loop,
                        f"unbounded loop in `{qualname}` (reachable from "
                        f"query entry point `{origin[qualname]}`) never "
                        "polls a QueryContext checkpoint; call "
                        "ctx.checkpoint()/checkpoint_ambient() or route "
                        "the work through a bulk reader",
                    )
                )
        return findings

    # -- entry points and reachability ------------------------------------

    def _entry_points(self, graph) -> List:
        """Methods of the graph classes whose body enters a query_scope."""
        out = []
        for cls in _ENTRY_CLASSES:
            for info in graph.methods_of(cls):
                for node in ast.walk(info.node):
                    if isinstance(node, ast.withitem) and isinstance(
                        node.context_expr, ast.Call
                    ):
                        if _call_name(node.context_expr) == "query_scope":
                            out.append(info)
                            break
        return out

    def _reachable_with_origin(
        self, graph, entries: List
    ) -> Dict[str, str]:
        """qualname -> one entry point it is reachable from (for messages)."""
        origin: Dict[str, str] = {}
        for entry in sorted(entries, key=lambda i: i.qualname):
            # Exact edges only: the bare-name fallback would sweep the
            # encode plane and half the project into "reachable from a
            # query" through names like `extend` or `get`.  The walk also
            # stops at functions that poll directly -- their callees (the
            # table step, table fills) run inside the stride the poller
            # enforces, so their loops are governed by design.
            frontier = [entry]
            while frontier:
                info = frontier.pop()
                if info.qualname in origin:
                    continue
                origin[info.qualname] = entry.qualname
                if self._direct_poll(info.node):
                    continue
                frontier.extend(graph.callees(info, fallback=False))
        return origin

    # -- poll facts --------------------------------------------------------

    def _direct_poll(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _call_name(sub) in _POLL_CALLS:
                return True
        return _touches_hook(node)

    def _poll_fixpoint(self, graph) -> Set[str]:
        """Qualnames of functions that poll, directly or transitively."""
        polls: Set[str] = {
            qualname
            for qualname, info in graph.functions.items()
            if self._direct_poll(info.node)
        }
        adjacency: Dict[str, Tuple[str, ...]] = {
            qualname: tuple(c.qualname for c in graph.callees(info))
            for qualname, info in graph.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname, callees in adjacency.items():
                if qualname in polls:
                    continue
                if any(c in polls for c in callees):
                    polls.add(qualname)
                    changed = True
        return polls

    # -- loop audit --------------------------------------------------------

    def _significant_loops(self, func: ast.AST) -> List[ast.AST]:
        """The loops in ``func`` that owe a poll (see module docstring)."""
        out: List[ast.AST] = []
        for node in ast.walk(func):
            if isinstance(node, ast.While):
                out.append(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if self._does_real_work(node):
                    out.append(node)
        return out

    def _does_real_work(self, loop: ast.AST) -> bool:
        for stmt in loop.body + getattr(loop, "orelse", []):
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                name = _call_name(sub)
                if name and name not in _TRIVIAL_CALLS:
                    return True
        return False

    def _loop_polls(
        self, loop: ast.AST, info, graph, polls: Set[str]
    ) -> bool:
        """Whether the loop body reaches a poll (directly or via a callee).

        The loop's iterable expression earns credit too: a ``for`` over a
        polling generator checkpoints on every ``next``.
        """
        parts: List[ast.AST] = list(loop.body) + list(
            getattr(loop, "orelse", [])
        )
        it = getattr(loop, "iter", None)
        if it is not None:
            parts.append(it)
        for stmt in parts:
            if self._direct_poll(stmt):
                return True
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Call):
                    continue
                for callee in graph.resolve(sub, info):
                    if callee.qualname in polls:
                        return True
        return False
