"""Concurrent query plane: record cache, snapshot reads, race smoke.

The contract under test (documented in README "Concurrency"):

* a ``CompressedChronoGraph`` is immutable and may be shared freely
  across threads;
* ``SegmentStore.ingest`` publishes each batch atomically in a new view
  -- a reader sees a batch entirely or not at all, and a view once read
  never changes;
* cache counters are exact in quiescence and monotone under concurrency;
* the batch API ``neighbors_many`` returns exactly what a ``neighbors``
  loop returns.
"""

import pickle
import sys
import threading
from collections import OrderedDict

import pytest

from repro.core import compress
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.storage.segments import SegmentStore
from repro.testing.races import run_race_smoke


def _cg(n=12, per=4, kind=GraphKind.POINT):
    contacts = []
    for u in range(n):
        for i in range(per):
            if kind is GraphKind.INTERVAL:
                contacts.append((u, (u + i + 1) % n, 10 * u + i, 1 + i))
            else:
                contacts.append((u, (u + i + 1) % n, 10 * u + i))
    return compress(graph_from_contacts(kind, contacts, num_nodes=n))


def _store(tmp_path, n=12, per=4):
    """A store whose one sealed segment holds ``_cg(n, per)``'s contacts."""
    store = SegmentStore.create(tmp_path / "store", GraphKind.POINT)
    store.ingest(list(_cg(n, per).iter_contacts()))
    store.seal()
    return store


class TestRaceSmoke:
    def test_200_batches_hold_all_invariants(self):
        report = run_race_smoke(batches=200, readers=4, seed=0)
        assert report.writer_batches == 200
        assert report.final_generation == 200
        assert report.read_ops > 0
        assert report.ok, report.violations

    def test_different_seed_and_tight_cache(self):
        report = run_race_smoke(
            batches=60, readers=3, seed=7, cache_max_entries=4
        )
        assert report.ok, report.violations

    def test_unbounded_cache(self):
        report = run_race_smoke(
            batches=40, readers=2, seed=3, cache_max_entries=None
        )
        assert report.ok, report.violations


class TestConcurrentReaders:
    def test_parallel_point_queries_match_serial(self):
        cg = _cg()
        expected = {u: cg.neighbors(u, 0, 10_000) for u in range(cg.num_nodes)}
        errors = []

        def hammer(seed):
            for i in range(300):
                u = (seed + i) % cg.num_nodes
                got = cg.neighbors(u, 0, 10_000)
                if got != expected[u]:
                    errors.append((u, got))

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors

    def test_counters_exact_after_concurrent_run(self):
        # Every node of _cg() has 4 contacts, so all records cost the same.
        probe = _cg()
        probe.neighbors(0, 0, 10_000)
        cost = probe.cache_stats()["current_bytes"]
        # Unbounded, then a 4-record cache whose inserts evict while other
        # threads hit and miss.  A short switch interval forces the threads
        # to interleave inside the cache calls.
        interval = sys.getswitchinterval()
        for max_entries in (None, 4):
            cg = _cg()
            cg.configure_cache(max_entries=max_entries, max_bytes=None)
            barrier = threading.Barrier(4, timeout=30)

            def hammer():
                barrier.wait()
                for i in range(200):
                    cg.neighbors(i % cg.num_nodes, 0, 10_000)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            stats = cg.cache_stats()
            # Every lookup is a hit or a miss, nothing is lost.
            assert stats["hits"] + stats["misses"] == 4 * 200
            if max_entries is None:
                assert stats["entries"] == cg.num_nodes
                assert stats["evictions"] == 0
            else:
                assert stats["entries"] == max_entries
                assert stats["current_bytes"] == max_entries * cost

    def test_hit_survives_a_racing_eviction(self):
        # A racing insert may evict the node between a hit's get and its
        # move_to_end.  The hit still returns the record, which an
        # immutable graph never invalidates.
        class EvictedMidHit(OrderedDict):
            def move_to_end(self, key, last=True):
                raise KeyError(key)

        cg = _cg()
        expected = cg.neighbors(3, 0, 10_000)
        cg._records = EvictedMidHit(cg._records)
        assert cg.neighbors(3, 0, 10_000) == expected
        stats = cg.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1


class TestGenerationSnapshots:
    def test_apply_bumps_generation(self, tmp_path):
        with _store(tmp_path) as store:
            first = store.graph
            store.ingest([Contact(0, 1, 999)])
            second = store.graph
            assert second is not first
            assert second.num_contacts == first.num_contacts + 1
            store.ingest([Contact(1, 2, 999), Contact(2, 3, 999)])
            assert store.graph.num_contacts == second.num_contacts + 2

    def test_empty_apply_keeps_generation(self, tmp_path):
        with _store(tmp_path) as store:
            view = store.graph
            assert store.ingest([]) == 0
            assert store.graph is view

    def test_stale_cached_record_not_served_to_new_generation(self, tmp_path):
        with _store(tmp_path) as store:
            before = store.graph.neighbors(0, 0, 10_000)  # caches node 0
            assert 11 not in before
            store.ingest([Contact(0, 11, 50)])
            # The segment's cached record is still valid; the new view adds
            # the tail contact on top of it.
            assert 11 in store.graph.neighbors(0, 0, 10_000)

    def test_stale_insert_racing_publish_is_invisible(self, tmp_path):
        # A reader holding the pre-batch view keeps answering from it --
        # even when its query runs after the publish and warms the shared
        # segment cache -- while post-publish views see the batch.
        with _store(tmp_path) as store:
            old = store.graph
            store.ingest([Contact(0, 11, 50)])
            assert 11 not in old.neighbors(0, 0, 10_000)
            assert 11 in store.graph.neighbors(0, 0, 10_000)
            assert 11 not in old.neighbors(0, 0, 10_000)

    def test_concurrent_writer_never_tears_batches(self, tmp_path):
        batch = [Contact(0, 7, 5000), Contact(0, 8, 5001), Contact(0, 9, 5002)]
        seen = []
        done = threading.Event()
        with _store(tmp_path) as store:

            def read():
                while not done.is_set():
                    got = set(store.graph.neighbors(0, 5000, 5002))
                    seen.append(got & {7, 8, 9})

            t = threading.Thread(target=read)
            t.start()
            store.ingest(batch)
            done.set()
            t.join(timeout=10)
            assert not t.is_alive()
            final = set(store.graph.neighbors(0, 5000, 5002))
        assert {7, 8, 9} <= final
        # Atomic publish: each observation is all-or-nothing.
        for observed in seen:
            assert observed in (set(), {7, 8, 9})


class TestBatchAPIs:
    def test_neighbors_many_matches_serial(self):
        cg = _cg()
        queries = [
            (u, 10 * u, 10 * u + 3) for u in range(cg.num_nodes)
        ] + [(3, 0, 10_000), (3, 1, 0), (5, 0, 10_000)]
        expected = [cg.neighbors(u, a, b) for u, a, b in queries]
        assert cg.neighbors_many(queries) == expected

    def test_neighbors_many_validates_nodes(self):
        cg = _cg()
        with pytest.raises(ValueError):
            cg.neighbors_many([(cg.num_nodes, 0, 1)])

    def test_neighbors_many_empty(self):
        cg = _cg()
        assert cg.neighbors_many([]) == []

    def test_neighbors_many_decodes_each_node_once(self):
        cg = _cg()
        stats0 = cg.cache_stats()
        queries = [(2, 0, 10), (2, 0, 10_000), (2, 5, 25), (4, 0, 10_000)]
        cg.neighbors_many(queries)
        stats = cg.cache_stats()
        # Two distinct nodes -> exactly two record lookups for four queries.
        delta = (stats["hits"] + stats["misses"]) - (
            stats0["hits"] + stats0["misses"]
        )
        assert delta == 2

    def test_sealed_tail_reaches_segment_snapshot(self, tmp_path):
        # Contacts ingested after a seal reach a compressed graph once the
        # tail is sealed; a snapshot of that segment sees them.
        with _store(tmp_path) as store:
            store.ingest([Contact(1, 9, 7777), Contact(20, 0, 7778)])
            store.seal()
            segment = store.graph._segments[-1][1]
            view_edges = store.graph.snapshot(7777, 7778)
        expected = segment.snapshot(7777, 7778)
        assert expected == view_edges == [(1, 9), (20, 0)]


class TestPickleRoundTrip:
    def test_pickled_graph_rebuilds_runtime_state(self):
        cg = _cg()
        cg.neighbors(0, 0, 10_000)
        clone = pickle.loads(pickle.dumps(cg))
        # Streams and counts survive; caches and counters start cold.
        assert clone.num_contacts == cg.num_contacts
        assert clone.num_nodes == cg.num_nodes
        assert clone.cache_stats()["hits"] + clone.cache_stats()["misses"] == 0
        assert clone.cache_stats()["entries"] == 0
        assert clone.neighbors(0, 0, 10_000) == cg.neighbors(0, 0, 10_000)
        # The rebuilt cache works and is the clone's own.
        clone.configure_cache(max_entries=0)
        assert clone.cache_stats()["entries"] == 0
        assert cg.cache_stats()["entries"] == 1
