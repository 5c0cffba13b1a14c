"""Snapshot discipline: a graph or a store view, once read, never changes.

A :class:`CompressedChronoGraph` is built once: its counts and sizes are
fixed at construction, so every derived figure is computed from one
snapshot by construction.  Growth happens only in a
:class:`SegmentStore`, which publishes a new immutable view per ingest,
seal and compaction; a reader holding an earlier view keeps getting that
view's answers however the store moves on.
"""

from __future__ import annotations

from repro.core.compressed import HEADER_BITS
from repro.core.encoder import compress
from repro.graph.model import Contact, GraphKind, TemporalGraph
from repro.storage.segments import SegmentStore, StorePolicy


def _small_graph() -> TemporalGraph:
    contacts = [
        Contact(0, 1, 3, 0),
        Contact(0, 2, 5, 0),
        Contact(1, 2, 7, 0),
        Contact(2, 3, 9, 0),
        Contact(3, 0, 11, 0),
    ]
    return TemporalGraph(GraphKind.POINT, 4, contacts, name="torn-fixture")


def _answers(view):
    """Every query a view serves, over windows covering all the contacts."""
    nodes = range(view.num_nodes)
    return (
        view.num_nodes,
        view.num_contacts,
        [view.neighbors(u, 0, 100) for u in nodes],
        [view.neighbors(u, 6, 8) for u in nodes],
        [view.has_edge(0, v, 0, 100) for v in nodes],
        [view.contacts_of(u) for u in nodes],
        [view.edge_timestamps(0, v) for v in nodes],
        view.snapshot(0, 100),
        view.snapshot(5, 6),
        sorted(view.iter_contacts()),
    )


def test_bits_per_contact_single_snapshot(tmp_path):
    graph = compress(_small_graph())
    assert graph.bits_per_contact == graph.size_in_bits / graph.num_contacts
    # A sealed segment is shared by every later view and never changes.
    with SegmentStore.create(tmp_path / "s", GraphKind.POINT) as store:
        store.ingest(_small_graph().contacts)
        store.seal()
        segment = store.graph._segments[0][1]
        before = segment.bits_per_contact
        store.ingest([(0, 3, 21), (1, 3, 23)])
        assert store.graph._segments[0][1] is segment
        assert segment.bits_per_contact == before


def test_timestamp_bits_per_contact_single_snapshot():
    graph = compress(_small_graph())
    assert graph.timestamp_bits_per_contact == (
        graph.timestamp_size_bits / graph.num_contacts
    )
    empty = compress(TemporalGraph(GraphKind.POINT, 0, []))
    assert empty.bits_per_contact == empty.timestamp_bits_per_contact == 0.0


def test_repr_single_snapshot():
    graph = compress(_small_graph())
    text = repr(graph)
    assert "contacts=5" in text
    assert "nodes=4" in text
    assert f"bits/contact={graph.bits_per_contact:.2f}" in text


def test_size_properties_consistent_sum():
    """size_in_bits equals its parts: nothing rides outside the streams."""
    graph = compress(_small_graph())
    assert graph.size_in_bits == (
        graph.structure_size_bits + graph.timestamp_size_bits + HEADER_BITS
    )


def test_feed_exhausted_falls_back_to_published_state(tmp_path):
    """``store.graph`` is the latest published view; held views stay put."""
    with SegmentStore.create(tmp_path / "s", GraphKind.POINT) as store:
        store.ingest(_small_graph().contacts)
        held = store.graph
        store.ingest([(0, 3, 21), (1, 3, 23)])
        assert store.graph.num_contacts == 7
        assert held.num_contacts == 5
        assert 3 in store.graph.neighbors(0, 0, 100)
        assert 3 not in held.neighbors(0, 0, 100)


def test_view_survives_ingest_seal_and_compaction(tmp_path):
    policy = StorePolicy(seal_contacts=1000, max_segments=1)
    with SegmentStore.create(
        tmp_path / "s", GraphKind.POINT, policy=policy
    ) as store:
        store.ingest([(0, 1, 5)])
        tail_view = store.graph
        tail_answers = _answers(tail_view)
        assert tail_view.neighbors(0, 0, 100) == [1]

        store.ingest([(0, 2, 6)])
        store.seal()
        sealed_view = store.graph
        sealed_answers = _answers(sealed_view)

        store.ingest([(1, 2, 7), (2, 0, 8)])
        store.seal()
        assert store.compaction_needed()
        assert store.compact_once()  # merges and deletes the first segment
        assert len(store.manifest.segments) == 1

        assert _answers(tail_view) == tail_answers
        assert tail_view.neighbors(0, 0, 100) == [1]
        assert _answers(sealed_view) == sealed_answers
        assert store.graph.neighbors(0, 0, 100) == [1, 2]
        assert store.graph.num_contacts == 4
