"""Tests for the decoded-record LRU cache of CompressedChronoGraph.

Covers exact hit/miss/eviction accounting, entry- and byte-budget
eviction under pressure, the LRU recency order, interaction with the
sequential-scan fast paths, and the salvage path (corrupt records are
never cached; salvaged graphs answer queries through a clean cache).
"""

import array

import pytest

from repro.core import compress
from repro.core.serialize import dumps_compressed, salvage_bytes
from repro.core.validate import salvage_scan
from repro.errors import FormatError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind


def _cg(contacts, kind=GraphKind.POINT, n=None):
    return compress(graph_from_contacts(kind, contacts, num_nodes=n))


def _chain(num_nodes=6, contacts_per_node=3):
    contacts = []
    for u in range(num_nodes):
        for i in range(contacts_per_node):
            contacts.append((u, (u + i + 1) % num_nodes, 10 * u + i))
    return _cg(contacts, n=num_nodes)


class TestCounters:
    def test_fresh_graph_has_zero_counters(self):
        stats = _chain().cache_stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["evictions"] == 0
        assert stats["entries"] == 0
        assert stats["current_bytes"] == 0

    def test_miss_then_hit_exact_counts(self):
        cg = _chain()
        cg.neighbors(0, 0, 100)
        assert cg.cache_stats()["misses"] == 1
        assert cg.cache_stats()["hits"] == 0
        cg.neighbors(0, 0, 100)
        cg.contacts_of(0)
        cg.has_edge(0, 1, 0, 100)
        stats = cg.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3
        assert stats["entries"] == 1

    def test_each_query_kind_counts_one_lookup(self):
        cg = _chain()
        cg.decode_multiset(1)
        cg.edge_timestamps(1, 2)
        cg.neighbors(1, 0, 10**9)
        cg.neighbors(1, cg.t_min, 49)
        stats = cg.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 3

    def test_sequential_pass_counts_one_miss_per_node(self):
        cg = _chain(num_nodes=6)
        cg.snapshot(0, 1000)
        assert cg.cache_stats()["misses"] == 6
        cg.snapshot(0, 1000)
        stats = cg.cache_stats()
        assert stats["misses"] == 6
        assert stats["hits"] == 6

    def test_static_view_is_structure_only(self):
        # to_static_graph never needs timestamps, so it bypasses the
        # record cache entirely (and must not perturb its counters).
        cg = _chain(num_nodes=6)
        cg.to_static_graph()
        stats = cg.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_clear_cache_preserves_counters(self):
        cg = _chain()
        cg.neighbors(0, 0, 100)
        cg.neighbors(0, 0, 100)
        cg.clear_cache()
        stats = cg.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 0 and stats["current_bytes"] == 0
        cg.neighbors(0, 0, 100)
        assert cg.cache_stats()["misses"] == 2


class TestEviction:
    def test_entry_cap_evicts_least_recently_used(self):
        cg = _chain(num_nodes=6)
        cg.configure_cache(max_entries=2)
        cg.contacts_of(0)
        cg.contacts_of(1)
        cg.contacts_of(0)  # 0 is now more recent than 1
        cg.contacts_of(2)  # evicts 1
        stats = cg.cache_stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        cg.contacts_of(0)  # still cached
        assert cg.cache_stats()["hits"] == 2
        cg.contacts_of(1)  # was evicted: a miss
        assert cg.cache_stats()["misses"] == 4

    def test_eviction_pressure_small_cap(self):
        cg = _chain(num_nodes=6)
        cg.configure_cache(max_entries=3)
        for _ in range(2):
            for u in range(6):
                cg.contacts_of(u)
        stats = cg.cache_stats()
        assert stats["entries"] == 3
        # Round-robin over 6 nodes with room for 3: every lookup misses.
        assert stats["misses"] == 12
        assert stats["hits"] == 0
        assert stats["evictions"] == 9

    def test_byte_budget_bounds_occupancy(self):
        cg = _chain(num_nodes=6)
        cg.contacts_of(0)
        cost = cg.cache_stats()["current_bytes"]
        cg.clear_cache()
        cg.configure_cache(max_bytes=2 * cost)
        for u in range(6):
            cg.contacts_of(u)
        stats = cg.cache_stats()
        assert stats["current_bytes"] <= 2 * cost
        assert stats["entries"] == 2
        assert stats["evictions"] == 4

    def test_record_larger_than_budget_is_not_cached(self):
        cg = _chain(num_nodes=4)
        cg.configure_cache(max_bytes=1)
        cg.contacts_of(0)
        stats = cg.cache_stats()
        assert stats["entries"] == 0
        assert stats["evictions"] == 0  # skipped, not evicted

    def test_shrinking_budget_evicts_immediately(self):
        cg = _chain(num_nodes=6)
        for u in range(4):
            cg.contacts_of(u)
        assert cg.cache_stats()["entries"] == 4
        cg.configure_cache(max_entries=1)
        stats = cg.cache_stats()
        assert stats["entries"] == 1
        assert stats["evictions"] == 3

    def test_none_lifts_bounds(self):
        cg = _chain(num_nodes=6)
        cg.configure_cache(max_bytes=None, max_entries=None)
        for u in range(6):
            cg.contacts_of(u)
        stats = cg.cache_stats()
        assert stats["entries"] == 6
        assert stats["evictions"] == 0
        assert stats["max_bytes"] is None

    def test_large_cap_evicts_exactly_the_lru_records(self):
        # Every node has one contact, so every record costs the same and
        # either bound holds exactly 64 of them.  Eviction is exact LRU:
        # 80 inserts evict the 16 oldest records and keep the last 64.
        n = 80
        contacts = [(u, (u + 1) % n, u) for u in range(n)]
        probe = _cg(contacts, n=n)
        probe.contacts_of(0)
        cost = probe.cache_stats()["current_bytes"]
        for bound in ({"max_entries": 64}, {"max_bytes": 64 * cost}):
            cg = _cg(contacts, n=n)
            cg.configure_cache(**bound)
            for u in range(n):
                cg.contacts_of(u)
            stats = cg.cache_stats()
            assert stats["entries"] == 64, bound
            assert stats["current_bytes"] == 64 * cost, bound
            assert stats["evictions"] == 16, bound
            for u in range(n - 64, n):
                cg.contacts_of(u)
            stats = cg.cache_stats()
            assert stats["hits"] == 64, bound
            assert stats["misses"] == n, bound

    def test_results_identical_under_pressure(self):
        contacts = [(u, v, 3 * u + v) for u in range(5) for v in range(3)]
        cold = _cg(contacts, n=5)
        hot = _cg(contacts, n=5)
        hot.configure_cache(max_entries=2)
        for u in range(5):
            assert hot.neighbors(u, 0, 50) == cold.neighbors(u, 0, 50)
            assert hot.contacts_of(u) == cold.contacts_of(u)
        assert hot.snapshot(0, 50) == cold.snapshot(0, 50)


class TestCorruptionAndSalvage:
    def test_corrupt_record_is_never_cached(self):
        cg = _chain(num_nodes=4)
        cg._tbytes = b"\x00"
        cg._tbits = 1
        cg._toffsets = array.array("Q", [0] * (cg.num_nodes + 1))
        with pytest.raises(FormatError):
            cg.contacts_of(2)
        stats = cg.cache_stats()
        assert stats["entries"] == 0
        assert stats["misses"] == 1
        with pytest.raises(FormatError):
            cg.contacts_of(2)
        assert cg.cache_stats()["misses"] == 2

    def test_salvage_scan_runs_through_cache(self):
        cg = _chain(num_nodes=5)
        report = salvage_scan(cg)
        assert report.nodes_recovered == 5
        assert report.errors == []
        # The scan decoded every node once; re-scanning hits the cache.
        misses = cg.cache_stats()["misses"]
        salvage_scan(cg)
        assert cg.cache_stats()["misses"] == misses

    def test_salvaged_prefix_graph_starts_with_clean_cache(self):
        cg = _chain(num_nodes=5)
        blob = dumps_compressed(cg)
        report = salvage_bytes(blob[: int(len(blob) * 0.93)])
        prefix = report.graph
        assert prefix is not None
        stats = prefix.cache_stats()
        assert stats["entries"] == 0 and stats["hits"] == 0
        for u in range(prefix.num_nodes):
            prefix.contacts_of(u)
            prefix.contacts_of(u)
        if prefix.num_nodes:
            assert prefix.cache_stats()["hits"] == prefix.num_nodes
