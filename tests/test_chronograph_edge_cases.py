"""Edge-case and robustness tests for the ChronoGraph core."""

import pytest

from repro.core import ChronoGraphConfig, compress
from repro.core.compressed import HEADER_BITS
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind


class TestDeepReferenceChains:
    def test_unbounded_chain_does_not_recurse(self):
        """3000-link reference chains must resolve iteratively."""
        contacts = [(u, v, 1) for u in range(3000) for v in (3000, 3005, 3010)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=3011)
        cfg = ChronoGraphConfig(window=1, max_ref_chain=None, timestamp_zeta_k=3)
        cg = compress(g, cfg)
        assert cg.decode_multiset(2999) == [3000, 3005, 3010]
        assert cg.decode_multiset(0) == [3000, 3005, 3010]

    def test_unbounded_chain_beats_bounded_on_repetitive_graph(self):
        contacts = [(u, v, 1) for u in range(200) for v in (500, 520, 540, 560)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=561)
        unbounded = compress(
            g, ChronoGraphConfig(max_ref_chain=None, timestamp_zeta_k=3)
        )
        bounded = compress(
            g, ChronoGraphConfig(max_ref_chain=1, timestamp_zeta_k=3)
        )
        assert unbounded.size_in_bits <= bounded.size_in_bits

    def test_reference_of_scan(self):
        g = graph_from_contacts(
            GraphKind.POINT, [(0, 5, 1), (1, 5, 1)], num_nodes=6
        )
        cg = compress(g)
        assert cg._reference_of(0) == -1
        assert cg._reference_of(1) == 0  # node 1 copies node 0's list


class TestCacheBehaviour:
    def test_distinct_cache_is_bounded(self):
        from repro.core.compressed import _DISTINCT_CACHE_CAP

        n = _DISTINCT_CACHE_CAP + 100
        contacts = [(u, (u + 1) % n, 1) for u in range(n)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=n)
        cg = compress(g, ChronoGraphConfig(timestamp_zeta_k=3))
        # The structure-only walk caches every non-empty node's distinct
        # list, so it evicts once it passes the cap.
        assert len(cg.to_static_graph()) == n
        assert len(cg._distinct_cache) == _DISTINCT_CACHE_CAP

    def test_repeated_queries_consistent(self):
        g = graph_from_contacts(GraphKind.POINT, [(0, 1, 5), (1, 2, 9)])
        cg = compress(g)
        first = cg.neighbors(0, 0, 10)
        for _ in range(5):
            assert cg.neighbors(0, 0, 10) == first


class TestSizeAccounting:
    def test_header_constant_charged_once(self):
        g = graph_from_contacts(GraphKind.POINT, [(0, 1, 5)])
        cg = compress(g)
        parts = cg.structure_size_bits + cg.timestamp_size_bits
        assert cg.size_in_bits - parts == HEADER_BITS

    def test_timestamp_share_includes_offsets(self):
        g = graph_from_contacts(GraphKind.POINT, [(0, 1, 5), (2, 3, 9)], num_nodes=4)
        cg = compress(g)
        assert cg.timestamp_size_bits > cg._tbits


class TestExtremeShapes:
    def test_single_node_many_selfloops(self):
        contacts = [(0, 0, t) for t in range(100)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=1)
        cg = compress(g)
        assert cg.decode_multiset(0) == [0] * 100
        assert cg.edge_timestamps(0, 0) == list(range(100))

    def test_star_with_huge_labels(self):
        contacts = [(0, v, 1) for v in range(10_000, 10_050)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=10_050)
        cg = compress(g)
        assert cg.distinct_neighbors(0) == list(range(10_000, 10_050))

    def test_all_contacts_same_timestamp(self):
        contacts = [(u, (u * 7) % 20, 42) for u in range(20)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=20)
        cg = compress(g)
        assert cg.snapshot(42, 42) == g.ref_snapshot(42, 42)
        assert cg.snapshot(0, 41) == []

    def test_very_large_timestamps(self):
        big = 2**40
        g = graph_from_contacts(
            GraphKind.POINT, [(0, 1, big), (0, 2, big + 3)], num_nodes=3
        )
        cg = compress(g)
        assert cg.edge_timestamps(0, 1) == [big]
        assert cg.t_min == big

    def test_interval_contact_spanning_everything(self):
        g = graph_from_contacts(
            GraphKind.INTERVAL, [(0, 1, 0, 2**32)], num_nodes=2
        )
        cg = compress(g)
        assert cg.has_edge(0, 1, 2**31, 2**31)

    def test_zero_window_zero_intervals_still_roundtrips(self):
        cfg = ChronoGraphConfig(window=0, min_interval_length=10**9,
                                timestamp_zeta_k=2)
        contacts = [(0, v, v) for v in range(1, 40)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=40)
        cg = compress(g, cfg)
        assert cg.decode_multiset(0) == list(range(1, 40))


class TestConfigInteraction:
    def test_explicit_zeta_skips_auto_tune(self):
        g = graph_from_contacts(GraphKind.POINT, [(0, 1, 5)])
        cg = compress(g, ChronoGraphConfig(timestamp_zeta_k=7))
        assert cg.config.timestamp_zeta_k == 7

    def test_auto_tune_fills_in_duration_k_for_intervals(self):
        g = graph_from_contacts(GraphKind.INTERVAL, [(0, 1, 5, 2), (0, 2, 9, 3)])
        cg = compress(g)
        assert cg.config.timestamp_zeta_k is not None
        assert cg.config.duration_zeta_k is not None

    def test_point_graph_needs_no_duration_k(self):
        g = graph_from_contacts(GraphKind.POINT, [(0, 1, 5)])
        cg = compress(g)
        assert cg.config.timestamp_zeta_k is not None


class TestWindowDiscipline:
    def test_references_never_exceed_window(self):
        """The encoder evicts candidates beyond the window; decoders rely
        on it when resolving chains."""
        import random

        rng = random.Random(11)
        contacts = []
        base = [100, 105, 110, 115]
        for u in range(60):
            for v in base:
                contacts.append((u, v + rng.randrange(2), 1))
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=120)
        for window in (1, 3, 7):
            cfg = ChronoGraphConfig(window=window, timestamp_zeta_k=3)
            cg = compress(g, cfg)
            for u in range(60):
                target = cg._reference_of(u)
                assert target == -1 or u - window <= target < u, (u, target)


class TestLazyIteration:
    def test_iter_contacts_matches_full_decode(self):
        import random

        rng = random.Random(12)
        rows = [(rng.randrange(8), rng.randrange(8), rng.randrange(100))
                for _ in range(50)]
        g = graph_from_contacts(GraphKind.POINT, rows, num_nodes=8)
        cg = compress(g)
        assert list(cg.iter_contacts()) == g.contacts

    def test_iter_contacts_is_lazy(self):
        g = graph_from_contacts(GraphKind.POINT, [(0, 1, 5), (1, 2, 9)])
        cg = compress(g)
        iterator = cg.iter_contacts()
        first = next(iterator)
        assert first.v == 1
