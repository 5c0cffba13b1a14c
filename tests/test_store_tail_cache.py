"""Store tail over sealed segments: ingest leaves segment caches alone.

A store answers every query by merging its immutable sealed segments with
the hot tail buffer.  Ingesting into the tail must not disturb the
segments' decoded-record caches (a sealed segment never changes, so its
cached records stay valid), and every view published after the ingest
must see segments + tail merged.  A torn tail log must never leak into
the served tail -- recovery replays strictly the intact records.
"""

from repro.core import compress
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.storage.segments import SegmentStore


def _cg(n=6, per=3):
    contacts = []
    for u in range(n):
        for i in range(per):
            contacts.append((u, (u + i + 1) % n, 10 * u + i))
    return compress(graph_from_contacts(GraphKind.POINT, contacts, num_nodes=n))


def _store(tmp_path, kind=GraphKind.POINT, rows=None):
    """A store whose one sealed segment holds ``rows`` (default: ``_cg()``)."""
    store = SegmentStore.create(tmp_path / "store", kind)
    store.ingest(rows if rows is not None else list(_cg().iter_contacts()))
    store.seal()
    return store


def _segment(store):
    return store.graph._segments[0][1]


def _warm(view, nodes):
    for u in nodes:
        view.neighbors(u, 0, 10_000)


class TestInvalidation:
    def test_touched_nodes_only(self, tmp_path):
        with _store(tmp_path) as store:
            segment = _segment(store)
            _warm(store.graph, [0, 1, 2, 3])
            assert segment.cache_stats()["entries"] == 4

            applied = store.ingest([Contact(1, 4, 99), Contact(3, 0, 98)])
            assert applied == 2
            stats = segment.cache_stats()
            assert stats["entries"] == 4  # nothing sealed was invalidated

            # Every node, touched or not, still hits the segment cache.
            hits0, misses0 = stats["hits"], stats["misses"]
            view = store.graph
            view.neighbors(0, 0, 10_000)
            assert 4 in view.neighbors(1, 0, 10_000)
            stats = segment.cache_stats()
            assert stats["hits"] == hits0 + 2
            assert stats["misses"] == misses0

    def test_merged_record_is_cached_once(self, tmp_path):
        with _store(tmp_path) as store:
            segment = _segment(store)
            store.ingest([Contact(1, 4, 99)])
            view = store.graph
            assert 4 in view.neighbors(1, 0, 10_000)
            stats = segment.cache_stats()
            hits0, misses0 = stats["hits"], stats["misses"]
            assert 4 in view.neighbors(1, 0, 10_000)  # second query hits cache
            stats = segment.cache_stats()
            assert stats["hits"] == hits0 + 1
            assert stats["misses"] == misses0


class TestTailQueries:
    def test_queries_see_segment_and_tail(self, tmp_path):
        with _store(tmp_path) as store:
            store.ingest([Contact(0, 5, 500), Contact(5, 0, 501)])
            view = store.graph
            assert view.has_edge(0, 5, 400, 600)
            assert view.has_edge(5, 0, 400, 600)
            assert (0, 5) in view.snapshot(500, 501)
            assert Contact(0, 5, 500) in view.contacts_of(0)
            assert view.neighbors(0, 0, 10_000) == [1, 2, 3, 5]

    def test_tail_counts_toward_size(self, tmp_path):
        with _store(tmp_path) as store:
            base = store.graph.num_contacts
            store.ingest([Contact(0, 5, 500)])
            assert store.graph.num_contacts == base + 1
            health = store.health()
            assert health.tail_contacts == 1
            assert health.total_contacts == base + 1

    def test_sequential_pass_includes_tail(self, tmp_path):
        with _store(tmp_path) as store:
            store.ingest([Contact(2, 0, 777)])
            assert Contact(2, 0, 777) in list(store.graph.iter_contacts())

    def test_interval_durations_merge(self, tmp_path):
        rows = [(0, 1, 5, 3), (1, 0, 6, 2)]
        with _store(tmp_path, GraphKind.INTERVAL, rows) as store:
            store.ingest([Contact(0, 1, 100, 7)])
            view = store.graph
            assert view.has_edge(0, 1, 100, 106)
            assert not view.has_edge(0, 1, 108, 200)
            assert view.edge_timestamps(0, 1) == [5, 100]


class TestTornTailNeverCached:
    def test_replay_excludes_dropped_tail(self, tmp_path):
        with _store(tmp_path) as store:
            store.ingest([Contact(0, 4, 600)])
            store.ingest([Contact(0, 5, 601)])
        tail = tmp_path / "store" / "wal.tail"
        tail.write_bytes(tail.read_bytes()[:-7])  # tear the second batch

        with SegmentStore.open(tmp_path / "store", read_only=True) as store:
            assert store.tail_size == 1
            assert any("torn" in e for e in store.health().events)
            view = store.graph
            got = view.neighbors(0, 0, 10_000)
            assert 4 in got and 5 not in got
            # The cached segment record serves the repeat; still excluded.
            assert 5 not in view.neighbors(0, 0, 10_000)
            assert _segment(store).cache_stats()["hits"] >= 1
