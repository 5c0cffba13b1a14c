"""One query engine: every query op, written once over node records.

The paper answers every query from one node's records (Algorithm 1,
Section IV-F).  A graph view is made of *parts* -- a compressed graph, a
sealed segment, a store's hot tail -- and a part answers two questions
(:data:`PART_QUESTIONS`): ``_record(u)``, node u's record ``(multiset,
times, durations)`` (durations ``None`` unless the graph is interval; the
caller has checked ``0 <= u < part.num_nodes``), and ``_walk(ctx,
structure_only=False)``, ``(u, record)`` -- or ``(u, distinct labels)``
-- for its nodes in id order, polling ``ctx`` once per node.

:class:`QueryEngine` writes each op once over those answers and runs
the node-range rule, :meth:`QueryEngine._check_node`, before any part
is asked.  A view's two hooks, ``_part_records(u, t_start, t_end, ctx,
windows=None)`` and ``_part_walks(t_start, t_end, ctx, structure_only,
label=None)``, give the planned parts' answers one part at a time, and
an op iterates them inside its query scope (DESIGN.md §9).
:class:`repro.core.compressed.CompressedChronoGraph` is the one-part
view, with no plan, breaker, tail or merge on the way;
:class:`repro.storage.segments.SegmentedChronoGraph` is the many-part
view, which plans the window over its segments, adds the tail, and asks
each part under its circuit breaker.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import GraphDomainError
from repro.graph.model import Contact, GraphKind, TemporalGraph
from repro.runtime.context import QueryContext, query_scope

__all__ = [
    "NodeRecord",
    "PART_QUESTIONS",
    "QueryEngine",
    "active_neighbors",
    "distinct_of",
    "merged_record",
]

#: A node's record: (neighbor multiset, timestamps, durations-or-None).
NodeRecord = Tuple[Sequence[int], Sequence[int], Optional[Sequence[int]]]

#: The two questions every part answers (see the module docstring).
PART_QUESTIONS = ("_record", "_walk")


def active_neighbors(
    kind: GraphKind,
    multiset: Sequence[int],
    times: Sequence[int],
    durations: Optional[Sequence[int]],
    t_start: int,
    t_end: int,
) -> List[int]:
    """Sorted distinct labels of one record active within the closed window.

    The activity predicate is :meth:`repro.graph.model.Contact.is_active`,
    inlined per kind because this is the hot loop of every neighbor query
    and scan.
    """
    out: List[int] = []
    if t_end < t_start:
        return out
    if kind is GraphKind.POINT:
        for v, t in zip(multiset, times):
            if t_start <= t <= t_end and (not out or out[-1] != v):
                out.append(v)
    elif kind is GraphKind.INCREMENTAL:
        for v, t in zip(multiset, times):
            if t <= t_end and (not out or out[-1] != v):
                out.append(v)
    else:
        for v, t, d in zip(multiset, times, durations):
            if d > 0 and t <= t_end and t + d > t_start:
                if not out or out[-1] != v:
                    out.append(v)
    return out


def distinct_of(multiset: Sequence[int]) -> List[int]:
    """The distinct labels of a label-sorted multiset, in order."""
    distinct: List[int] = []
    last = None
    for v in multiset:
        if v != last:
            distinct.append(v)
            last = v
    return distinct


def merged_record(records: Sequence[NodeRecord]) -> NodeRecord:
    """One node's records from several parts as one, sorted on (v, time, duration).

    A single record is returned as it is; no record at all is the empty
    record.
    """
    if len(records) == 1:
        return records[0]
    interval = bool(records) and records[0][2] is not None
    width = 3 if interval else 2
    concatenated = [chain.from_iterable(column) for column in zip(*records)]
    rows = sorted(zip(*concatenated[:width]))
    columns = tuple(zip(*rows)) or ((),) * width
    return columns[0], columns[1], columns[2] if interval else None


def _union(lists: Sequence[List[int]]) -> List[int]:
    """The sorted union of sorted label lists (the list itself when one)."""
    return lists[0] if len(lists) == 1 else sorted(set().union(*lists))


class QueryEngine:
    """The query surface of a graph view, over its parts' node records.

    A view sets ``kind`` and ``num_nodes`` and implements the hooks
    ``_part_records`` and ``_part_walks`` (see the module docstring).
    Every query entry point accepts an optional ``ctx=``
    :class:`repro.runtime.context.QueryContext`; an id outside
    ``[0, num_nodes)`` raises :class:`repro.errors.GraphDomainError`.
    """

    kind: GraphKind
    num_nodes: int
    name = "unnamed"

    def _check_node(self, u: int) -> None:
        """The node-range rule: every node op's ``u`` is in ``[0, num_nodes)``."""
        n = self.num_nodes
        if not 0 <= u < n:
            raise GraphDomainError(f"node {u} outside [0, {n})")

    # -- node queries (Section IV-F) -------------------------------------------

    def neighbors(
        self,
        u: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[int]:
        """Sorted distinct neighbors of ``u`` active within [t_start, t_end].

        The window is closed on both ends; an inverted window
        (``t_end < t_start``) is empty.  See FORMAT.md, "Query window
        semantics".  ``ctx`` bounds the query (see :mod:`repro.runtime`).
        """
        self._check_node(u)
        if ctx is None:  # bare compare: this entry is on the perf gate
            records = tuple(self._part_records(u, t_start, t_end, None))
        else:
            with query_scope(ctx):
                records = tuple(self._part_records(u, t_start, t_end, ctx))
        if len(records) == 1:
            # One part: _union without its list (table5-hot p50_us 1.68 ->
            # 1.46 µs, DESIGN.md §9).
            multiset, times, durations = records[0]
            return active_neighbors(
                self.kind, multiset, times, durations, t_start, t_end
            )
        return _union([
            active_neighbors(self.kind, multiset, times, durations, t_start, t_end)
            for multiset, times, durations in records
        ])

    def neighbors_many(
        self,
        queries: Sequence[Tuple[int, int, int]],
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[List[int]]:
        """Batch :meth:`neighbors`: results align with the input order.

        ``queries`` is a sequence of ``(u, t_start, t_end)`` triples.  Every
        node is checked before any decode, and the batch is grouped by
        node so each part reached is asked for each node's record once per
        call -- the win over a plain loop.  ``ctx`` bounds the whole
        batch: one admission, polled once per node.
        """
        triples = [(int(u), t0, t1) for u, t0, t1 in queries]
        groups: Dict[int, List[Tuple[int, int, int]]] = {}
        for i, (u, t0, t1) in enumerate(triples):
            self._check_node(u)
            groups.setdefault(u, []).append((i, t0, t1))
        out: List[List[int]] = [[] for _ in triples]
        kind = self.kind
        with query_scope(ctx):
            for u, wants in groups.items():
                if ctx is not None:
                    ctx.checkpoint()
                records = tuple(self._part_records(
                    u, None, None, ctx, [(t0, t1) for _i, t0, t1 in wants]
                ))
                for i, t0, t1 in wants:
                    out[i] = _union([
                        active_neighbors(kind, multiset, times, durations, t0, t1)
                        for multiset, times, durations in records
                    ])
        return out

    def has_edge(
        self,
        u: int,
        v: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> bool:
        """Algorithm 1: is ``v`` a neighbor of ``u`` during [t_start, t_end]?

        Binary-searches each label-sorted multiset for its ``v``-run; the
        run's timestamps come from the same record, and the first active
        contact answers, so no later part is asked.  ``ctx`` bounds the
        query (see :mod:`repro.runtime`).
        """
        self._check_node(u)
        if ctx is None:  # bare compare: this entry is on the perf gate
            return self._edge_in_parts(u, v, t_start, t_end, None)
        with query_scope(ctx):
            return self._edge_in_parts(u, v, t_start, t_end, ctx)

    def _edge_in_parts(self, u, v, t_start, t_end, ctx) -> bool:
        """:meth:`has_edge`'s search, over u's parts until the first hit."""
        if t_end < t_start:
            return False
        kind = self.kind
        for multiset, times, durations in self._part_records(u, t_start, t_end, ctx):
            lo = bisect_left(multiset, v)
            if lo == len(multiset) or multiset[lo] != v:
                continue
            # The run of v: Contact.is_active per contact, inlined as in
            # active_neighbors.
            for i in range(lo, bisect_right(multiset, v, lo)):
                t = times[i]
                if kind is GraphKind.POINT:
                    if t_start <= t <= t_end:
                        return True
                elif kind is GraphKind.INCREMENTAL:
                    if t <= t_end:
                        return True
                elif durations[i] > 0 and t <= t_end and t + durations[i] > t_start:
                    return True
        return False

    def edge_timestamps(
        self, u: int, v: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """All activation timestamps of the edge (u, v), ascending."""
        self._check_node(u)
        times: List[int] = []
        with query_scope(ctx):
            for multiset, record_times, _d in self._part_records(
                u, None, None, ctx
            ):
                lo = bisect_left(multiset, v)
                times += record_times[lo:bisect_right(multiset, v, lo)]
        times.sort()
        return times

    def contacts_of(
        self, u: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Contact]:
        """All contacts of ``u``, decoded, in (label, time) order."""
        self._check_node(u)
        if ctx is None:  # bare compare: this entry is on the perf gate
            records = tuple(self._part_records(u, None, None, None))
        else:
            with query_scope(ctx):
                records = tuple(self._part_records(u, None, None, ctx))
        multiset, times, durations = merged_record(records)
        return [
            Contact(u, v, t, d)
            for v, t, d in zip(multiset, times, durations or repeat(0))
        ]

    def distinct_neighbors(self, u: int) -> List[int]:
        """Sorted distinct neighbor labels over the whole lifetime."""
        self._check_node(u)
        return _union([
            distinct_of(multiset)
            for multiset, _t, _d in self._part_records(u, None, None, None)
        ])

    # -- scans -----------------------------------------------------------------

    def _scan(self, t_start, t_end, ctx, structure_only=False):
        """``(u, labels)`` in id order for each node with any labels.

        The labels are u's sorted active neighbors in the closed window,
        or, ``structure_only`` (and no window), its distinct neighbors.
        Each part's walk is labelled in one loop into the list of its
        non-empty nodes; several parts' lists are merged per node.
        """
        kind = self.kind

        def label(walk):
            if structure_only:
                return [(u, distinct) for u, distinct in walk if distinct]
            return [
                (u, labels)
                for u, (multiset, times, durations) in walk
                if (labels := active_neighbors(kind, multiset, times, durations, t_start, t_end))
            ]

        walks = list(self._part_walks(t_start, t_end, ctx, structure_only, label))
        if len(walks) == 1:
            return walks[0]
        merged: Dict[int, List[List[int]]] = {}
        for walk in walks:
            for u, labels in walk:
                merged.setdefault(u, []).append(labels)
        return [(u, _union(merged[u])) for u in sorted(merged)]

    def snapshot(
        self, t_start: int, t_end: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Tuple[int, int]]:
        """All distinct edges active within the closed interval, sorted."""
        with query_scope(ctx):
            return [
                (u, v) for u, labels in self._scan(t_start, t_end, ctx)
                for v in labels
            ]

    def iter_window_neighbors(
        self, t_start: int, t_end: int, *, ctx: Optional[QueryContext] = None
    ) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(u, active neighbors)`` for every node, in id order.

        The bulk form of :meth:`neighbors` used by full-graph consumers
        (the vertex-centric engine's undirected symmetrisation, exports);
        the same closed ``[t_start, t_end]`` window applies.  The parts
        are walked at the first pull; ``ctx`` is polled per node there
        and again as the consumer iterates (never held across a yield).
        """
        labelled = dict(self._scan(t_start, t_end, ctx))
        for u in range(self.num_nodes):
            if ctx is not None:
                ctx.checkpoint()
            yield u, labelled.get(u, [])

    def to_static_graph(self) -> List[Tuple[int, int]]:
        """The "flattened" aggregated view of Figure 1(a): distinct edges."""
        return [
            (u, v) for u, distinct in self._scan(None, None, None, True)
            for v in distinct
        ]

    def iter_contacts(self, *, ctx: Optional[QueryContext] = None):
        """Yield every contact, lazily: each part's in (u, v, time) order.

        Parts come in part order, so one part is storage order.  Decodes
        one node at a time, so full-graph passes (exports, motif
        counters, bulk loads) never hold more than one node's contacts
        beyond the output itself.  ``ctx`` is polled per node as the
        consumer iterates; the decode runs in the consumer's frame, so no
        part is asked under a circuit breaker.
        """
        for walk in self._part_walks(None, None, ctx, False):
            for u, (multiset, times, durations) in walk:
                for v, t, d in zip(multiset, times, durations or repeat(0)):
                    yield Contact(u, v, t, d)

    def to_temporal_graph(self) -> TemporalGraph:
        """Full decompression back to a :class:`repro.graph.model.TemporalGraph`."""
        return TemporalGraph(
            self.kind, self.num_nodes, list(self.iter_contacts()),
            name=self.name, granularity="stored",
        )
