"""Degenerate graphs through the full encode -> save -> load -> query cycle.

Edge-shape sweep for the structures the encoder special-cases: an empty
graph, a single self-loop, all-isolated nodes, and a node whose adjacency
is encoded entirely as a copy-list (zero residuals).  Each shape runs the
whole lifecycle -- ``compress``, ``dumps_compressed``,
``load_compressed_bytes``, then the complete query surface including the
batch API -- so a regression in any layer shows up as a wrong answer
rather than a crash deep in a real dataset.  The segment store's
tail buffer is one more surface: an empty store grows through ingest, and
a self-loop lives in the tail.
"""

import pytest

from repro.core import compress
from repro.core.serialize import dumps_compressed, load_compressed_bytes
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.storage.segments import SegmentStore


def _cycle(graph):
    """compress -> serialise -> reload; returns (compressed, reloaded)."""
    cg = compress(graph)
    clone = load_compressed_bytes(dumps_compressed(cg))
    return cg, clone


def _full_query_surface(cg, num_nodes):
    """Exercise every read API; returns a comparable summary tuple."""
    per_node = []
    for u in range(num_nodes):
        per_node.append(
            (
                cg.decode_multiset(u),
                cg.distinct_neighbors(u),
                cg.neighbors(u, 0, 10_000),
                cg.neighbors(u, cg.t_min, 9_999),  # strictly before 10_000
                cg.neighbors(u, 0, 10**9),  # at or after 0
                [tuple(c) for c in cg.contacts_of(u)],
            )
        )
    queries = [(u, 0, 10_000) for u in range(num_nodes)]
    return (
        per_node,
        cg.neighbors_many(queries) if num_nodes else [],
        cg.snapshot(0, 10_000),
        sorted(cg.iter_window_neighbors(0, 10_000)),
        sorted(tuple(c) for c in cg.iter_contacts()),
        cg.to_static_graph(),
        cg.num_contacts,
    )


class TestEmptyGraph:
    def test_zero_nodes_full_cycle(self):
        g = graph_from_contacts(GraphKind.POINT, [], num_nodes=0)
        cg, clone = _cycle(g)
        for c in (cg, clone):
            assert c.num_nodes == 0
            assert c.num_contacts == 0
            assert _full_query_surface(c, 0) == _full_query_surface(cg, 0)
            assert c.snapshot(0, 100) == []
            assert c.neighbors_many([]) == []

    def test_nodes_but_no_contacts(self):
        g = graph_from_contacts(GraphKind.INTERVAL, [], num_nodes=5)
        cg, clone = _cycle(g)
        for c in (cg, clone):
            assert c.num_nodes == 5
            assert _full_query_surface(c, 5) == _full_query_surface(cg, 5)
            assert all(c.neighbors(u, 0, 10_000) == [] for u in range(5))

    def test_empty_graph_grows_via_overlay(self, tmp_path):
        with SegmentStore.create(tmp_path / "s", GraphKind.POINT) as store:
            empty = store.graph
            assert (empty.num_nodes, empty.num_contacts) == (0, 0)
            assert empty.snapshot(0, 100) == []
            assert store.seal() is None  # nothing to seal
            store.ingest([Contact(0, 1, 5)])
            view = store.graph
            assert view.num_nodes == 2
            assert view.neighbors(0, 0, 10) == [1]
            assert (empty.num_nodes, empty.num_contacts) == (0, 0)


class TestSelfLoop:
    def test_single_node_self_loop(self):
        g = graph_from_contacts(GraphKind.POINT, [(0, 0, 7)], num_nodes=1)
        cg, clone = _cycle(g)
        for c in (cg, clone):
            assert c.neighbors(0, 7, 7) == [0]
            assert c.has_edge(0, 0, 0, 10)
            assert c.edge_timestamps(0, 0) == [7]
            assert c.snapshot(0, 10) == [(0, 0)]
            assert _full_query_surface(c, 1) == _full_query_surface(cg, 1)

    def test_interval_self_loop_with_duration(self):
        g = graph_from_contacts(
            GraphKind.INTERVAL, [(3, 3, 10, 5)], num_nodes=4
        )
        cg, clone = _cycle(g)
        for c in (cg, clone):
            assert c.neighbors(3, 12, 12) == [3]
            assert c.neighbors(3, 15, 20) == []
            spans = [(x.time, x.end) for x in c.contacts_of(3) if x.v == 3]
            assert spans == [(10, 15)]  # the edge's activity span


class TestAllIsolated:
    @pytest.mark.parametrize("kind", list(GraphKind))
    def test_only_one_connected_pair(self, kind):
        # 50 nodes, all isolated except one contact in the middle: long
        # runs of empty records on both sides of a non-empty one.
        contact = (25, 26, 100, 2) if kind is GraphKind.INTERVAL else (25, 26, 100)
        g = graph_from_contacts(kind, [contact], num_nodes=50)
        cg, clone = _cycle(g)
        for c in (cg, clone):
            assert c.num_nodes == 50
            assert c.neighbors(25, 0, 10_000) == [26]
            assert all(
                c.neighbors(u, 0, 10_000) == [] for u in range(50) if u != 25
            )
            assert c.snapshot(0, 10_000) == [(25, 26)]
            assert _full_query_surface(c, 50) == _full_query_surface(cg, 50)


class TestFullCopyList:
    def _two_identical_nodes(self):
        # Sparse labels [2, 4, 6, 8] defeat intervalisation, so node 1
        # encodes as a pure copy of node 0's residual list: every
        # copy-list bit set, zero residuals of its own.
        contacts = []
        for u in (0, 1):
            for i, v in enumerate([2, 4, 6, 8]):
                contacts.append((u, v, 10 + i))
        return graph_from_contacts(GraphKind.POINT, contacts, num_nodes=9)

    def test_pure_copy_node_round_trips(self):
        cg, clone = _cycle(self._two_identical_nodes())
        assert cg._reference_of(1) == 0  # node 1's record references node 0
        for c in (cg, clone):
            assert c.decode_multiset(0) == [2, 4, 6, 8]
            assert c.decode_multiset(1) == [2, 4, 6, 8]
            assert _full_query_surface(c, 9) == _full_query_surface(cg, 9)


class TestStoreOnDegenerates:
    def test_self_loop_tail_merges(self, tmp_path):
        with SegmentStore.create(tmp_path / "s", GraphKind.POINT) as store:
            store.ingest([Contact(0, 0, 7)])
            store.seal()
            store.ingest([Contact(0, 0, 9)])  # a self-loop in the tail
            view = store.graph
            assert view.num_nodes == 1
            assert view.edge_timestamps(0, 0) == [7, 9]
            assert [c.time for c in view.contacts_of(0)] == [7, 9]
            assert view.neighbors(0, 9, 9) == [0]
            assert view.snapshot(8, 9) == [(0, 0)]
            store.seal()
            merged = [c for _, g in store.graph._segments for c in g.iter_contacts()]
        assert sorted(merged) == [Contact(0, 0, 7), Contact(0, 0, 9)]
