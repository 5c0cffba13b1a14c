"""Growing a graph: the segment store's sealed segments plus its tail.

Compressed graphs are immutable; a graph grows through a
:class:`SegmentStore`, whose hot tail buffers recent contacts and whose
seal folds them into a fresh compressed segment.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphDomainError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.storage.segments import SegmentStore, StorePolicy


def _reference(contacts, n, kind=GraphKind.POINT):
    return graph_from_contacts(kind, contacts, num_nodes=n)


def _store(tmp_path, kind=GraphKind.POINT, base=(), **policy):
    """A store whose contacts ``base`` are sealed in one segment."""
    store = SegmentStore.create(
        tmp_path / "store", kind, policy=StorePolicy(**policy)
    )
    if base:
        store.ingest(base)
        store.seal()
    return store


class TestGrowth:
    def test_empty(self, tmp_path):
        with _store(tmp_path) as store:
            assert store.graph.num_contacts == 0
            assert store.graph.num_nodes == 0
            assert store.tail_size == 0
            assert store.manifest.segments == ()

    def test_add_contact_grows_node_space(self, tmp_path):
        with _store(tmp_path) as store:
            store.ingest([(0, 7, 5)])
            assert store.graph.num_nodes == 8
            assert store.tail_size == 1

    def test_rejects_bad_contacts(self, tmp_path):
        with _store(tmp_path) as store:
            for row in [(-1, 0, 5), (0, 1, 5, -1), (0, 1, 5, 3)]:
                # The whole batch is refused: the valid row is not kept.
                with pytest.raises(GraphDomainError):
                    store.ingest([(0, 1, 4), row])
            assert store.tail_size == 0
            store.ingest([(0, 1, 6)])
        with SegmentStore.open(tmp_path / "store", read_only=True) as store:
            assert list(store.graph.iter_contacts()) == [(0, 1, 6, 0)]

    def test_extend(self, tmp_path):
        with _store(tmp_path, GraphKind.INTERVAL) as store:
            store.ingest([(0, 1, 5, 2), (1, 0, 3, 1)])
            assert store.graph.num_contacts == 2

    def test_from_graph_starts_compressed(self, tmp_path):
        with _store(tmp_path, base=[(0, 1, 5), (1, 2, 9)]) as store:
            assert store.graph.num_contacts == 2
            assert store.tail_size == 0
            assert len(store.manifest.segments) == 1
            assert store.manifest.segments[0].size > 0


class TestQueries:
    def test_queries_span_segment_and_tail(self, tmp_path):
        with _store(tmp_path, base=[(0, 1, 5)]) as store:
            store.ingest([(0, 2, 50)])
            g = store.graph
            assert g.neighbors(0, 0, 100) == [1, 2]
            assert g.has_edge(0, 1, 5, 5)
            assert g.has_edge(0, 2, 50, 50)
            assert not g.has_edge(0, 2, 0, 49)

    def test_contacts_of_merges_in_order(self, tmp_path):
        with _store(tmp_path, base=[(0, 5, 10), (0, 2, 20)]) as store:
            store.ingest([(0, 2, 5)])
            assert [(c.v, c.time) for c in store.graph.contacts_of(0)] == [
                (2, 5), (2, 20), (5, 10),
            ]

    def test_query_beyond_nodes_raises(self, tmp_path):
        with _store(tmp_path) as store:
            store.ingest([(0, 1, 5)])
            with pytest.raises(ValueError):
                store.graph.contacts_of(9)

    def test_new_node_only_in_tail(self, tmp_path):
        with _store(tmp_path, base=[(0, 1, 5)]) as store:
            store.ingest([(4, 0, 7)])
            assert store.graph.num_nodes == 5
            assert store.graph.neighbors(4, 0, 10) == [0]


class TestSeal:
    def test_seal_compresses_tail(self, tmp_path):
        with _store(tmp_path) as store:
            store.ingest([(i % 5, (i + 1) % 5, i) for i in range(50)])
            raw = 50 * 3 * 64  # three 64-bit words per buffered contact
            info = store.seal()
            assert store.tail_size == 0
            assert info.contacts == 50
            assert info.size * 8 < raw
            assert store.graph.num_contacts == 50

    def test_seal_preserves_queries(self, tmp_path):
        rng = random.Random(3)
        contacts = [(rng.randrange(8), rng.randrange(8), rng.randrange(100))
                    for _ in range(60)]
        ref = _reference(contacts, 8)
        with _store(tmp_path) as store:
            store.ingest(contacts)
            store.seal()
            g = store.graph
            for u in range(g.num_nodes):
                for t1, t2 in [(0, 100), (10, 30)]:
                    assert g.neighbors(u, t1, t2) == ref.ref_neighbors(u, t1, t2)

    def test_seal_threshold_seals_inline(self, tmp_path):
        with _store(tmp_path, seal_contacts=10) as store:
            store.ingest([(0, 1, t) for t in range(9)])
            assert store.manifest.segments == ()
            store.ingest([(0, 1, 9)])  # the tenth contact seals inline
            assert len(store.manifest.segments) == 1
            assert store.tail_size == 0

    def test_multiple_seal_cycles(self, tmp_path):
        expected = []
        with _store(tmp_path, GraphKind.INTERVAL) as store:
            for epoch in range(3):
                rows = [(i % 4, (i + 1) % 4, epoch * 100 + i, 2)
                        for i in range(20)]
                store.ingest(rows)
                expected.extend(rows)
                store.seal()
            assert len(store.manifest.segments) == 3
            got = sorted(store.graph.iter_contacts())
        ref = _reference(expected, 4, GraphKind.INTERVAL)
        assert got == ref.contacts


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 200)),
        max_size=60,
    ),
    st.integers(0, 59),
)
def test_property_store_matches_reference(contacts, split):
    split = min(split, len(contacts))
    ref = _reference(contacts, 7)
    with tempfile.TemporaryDirectory() as work:
        with SegmentStore.create(f"{work}/s", GraphKind.POINT) as store:
            store.ingest(contacts[:split])
            store.seal()
            store.ingest(contacts[split:])
            g = store.graph
            assert g.num_contacts == len(contacts)
            for u in range(7):
                if u >= g.num_nodes:
                    assert ref.contacts_of(u) == []
                    continue
                assert g.contacts_of(u) == ref.contacts_of(u)
                for t1, t2 in [(0, 200), (50, 100)]:
                    assert g.neighbors(u, t1, t2) == ref.ref_neighbors(u, t1, t2)
                    for v in range(7):
                        assert g.has_edge(u, v, t1, t2) == ref.ref_has_edge(
                            u, v, t1, t2
                        )
