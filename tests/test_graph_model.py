"""Tests for the temporal graph model and its reference queries."""

import pytest
from hypothesis import given, strategies as st

from repro.graph.builders import TemporalGraphBuilder, graph_from_contacts
from repro.graph.model import Contact, GraphKind, TemporalGraph, max_label


def point_graph(contacts, n=None, **kw):
    return graph_from_contacts(GraphKind.POINT, contacts, num_nodes=n, **kw)


class TestContact:
    def test_end(self):
        assert Contact(0, 1, 10, 5).end == 15

    def test_point_active_only_at_timestamp(self):
        c = Contact(0, 1, 10)
        assert c.is_active(10, 10, GraphKind.POINT)
        assert c.is_active(5, 15, GraphKind.POINT)
        assert not c.is_active(11, 20, GraphKind.POINT)
        assert not c.is_active(0, 9, GraphKind.POINT)

    def test_incremental_active_forever_after(self):
        c = Contact(0, 1, 10)
        assert c.is_active(100, 200, GraphKind.INCREMENTAL)
        assert c.is_active(10, 10, GraphKind.INCREMENTAL)
        assert not c.is_active(0, 9, GraphKind.INCREMENTAL)

    def test_interval_half_open_semantics(self):
        c = Contact(0, 1, 10, 5)  # active during [10, 15)
        assert c.is_active(10, 10, GraphKind.INTERVAL)
        assert c.is_active(14, 14, GraphKind.INTERVAL)
        assert not c.is_active(15, 20, GraphKind.INTERVAL)
        assert c.is_active(0, 10, GraphKind.INTERVAL)
        assert not c.is_active(0, 9, GraphKind.INTERVAL)

    def test_zero_duration_interval_contact_never_active(self):
        c = Contact(0, 1, 10, 0)
        assert not c.is_active(10, 10, GraphKind.INTERVAL)


class TestConstruction:
    def test_contacts_sorted_by_u_v_time(self):
        g = point_graph([(2, 0, 5), (0, 2, 9), (0, 1, 3), (0, 2, 1)])
        assert g.contacts == [
            Contact(0, 1, 3),
            Contact(0, 2, 1),
            Contact(0, 2, 9),
            Contact(2, 0, 5),
        ]

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError):
            TemporalGraph(GraphKind.POINT, 2, [Contact(0, 2, 1)])

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            TemporalGraph(GraphKind.INTERVAL, 2, [Contact(0, 1, 1, -1)])

    def test_rejects_duration_on_point_graph(self):
        with pytest.raises(ValueError):
            TemporalGraph(GraphKind.POINT, 2, [Contact(0, 1, 1, 5)])

    def test_rejects_negative_node_count(self):
        with pytest.raises(ValueError):
            TemporalGraph(GraphKind.POINT, -1, [])

    def test_builder_infers_node_count(self):
        g = TemporalGraphBuilder(GraphKind.POINT).add(0, 7, 1).build()
        assert g.num_nodes == 8

    def test_builder_accepts_tuples_and_contacts(self):
        b = TemporalGraphBuilder(GraphKind.INTERVAL)
        b.add_all([(0, 1, 5, 2), Contact(1, 0, 3, 1)])
        assert b.num_pending == 2
        g = b.build()
        assert g.num_contacts == 2

    def test_empty_graph(self):
        g = TemporalGraph(GraphKind.POINT, 0, [])
        assert g.num_contacts == 0
        assert g.lifetime == 0
        assert g.t_min == 0


class TestStatistics:
    def test_num_edges_counts_distinct_pairs(self):
        g = point_graph([(0, 1, 1), (0, 1, 5), (1, 0, 2)])
        assert g.num_contacts == 3
        assert g.num_edges == 2

    def test_lifetime_point(self):
        g = point_graph([(0, 1, 10), (0, 1, 50)])
        assert g.lifetime == 40

    def test_lifetime_interval_includes_durations(self):
        g = graph_from_contacts(GraphKind.INTERVAL, [(0, 1, 10, 100), (0, 1, 20, 1)])
        assert g.lifetime == 100

    def test_out_degree_is_multiset_size(self):
        g = point_graph([(0, 1, 1), (0, 1, 2), (0, 2, 1)])
        assert g.out_degree(0) == 3
        assert g.out_degree(1) == 0

    def test_distinct_neighbors(self):
        g = point_graph([(0, 3, 1), (0, 1, 2), (0, 3, 5), (0, 2, 1)])
        assert g.distinct_neighbors(0) == [1, 2, 3]

    def test_active_nodes(self):
        g = point_graph([(0, 1, 1), (5, 1, 1)], n=10)
        assert g.active_nodes() == [0, 5]

    def test_max_label(self):
        assert max_label([Contact(3, 9, 1)]) == 9
        assert max_label([]) == -1

    @pytest.mark.parametrize("kind", list(GraphKind))
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.integers(0, 5),
                st.integers(-(2**40), 2**40),
                st.integers(0, 9),
            ),
            max_size=30,
        )
    )
    def test_time_bounds_are_min_and_max_over_contacts(self, kind, rows):
        # The bounds are gathered once, at construction; unsorted input,
        # negative times and a lone contact included.
        contacts = [
            Contact(u, v, t, d if kind is GraphKind.INTERVAL else 0)
            for u, v, t, d in rows
        ]
        g = TemporalGraph(kind, 6, contacts, sort=False)
        times = [c.time for c in contacts]
        assert g.t_min == min(times, default=0)
        assert g.t_max == max(times, default=0)
        assert g.lifetime == (
            max((c.end for c in contacts), default=0) - g.t_min
            if kind is GraphKind.INTERVAL and contacts
            else g.t_max - g.t_min
        )


class TestOrderingContract:
    def test_contacts_of_sorted_by_label_then_time(self):
        """The dual-representation ordering of Section IV-B."""
        g = point_graph([(0, 2, 9), (0, 1, 7), (0, 2, 3), (0, 1, 1)])
        assert [(c.v, c.time) for c in g.contacts_of(0)] == [
            (1, 1), (1, 7), (2, 3), (2, 9),
        ]

    def test_contacts_of_unknown_node_raises(self):
        g = point_graph([(0, 1, 1)])
        with pytest.raises(ValueError):
            g.contacts_of(5)


class TestReferenceQueries:
    def test_ref_has_edge_point(self):
        g = point_graph([(0, 1, 5), (0, 2, 9)])
        assert g.ref_has_edge(0, 1, 5, 5)
        assert g.ref_has_edge(0, 1, 0, 100)
        assert not g.ref_has_edge(0, 1, 6, 100)
        assert not g.ref_has_edge(0, 3, 0, 100)
        assert not g.ref_has_edge(1, 0, 0, 100)

    def test_ref_neighbors_point(self):
        g = point_graph([(0, 1, 5), (0, 2, 9), (0, 3, 5), (0, 1, 20)])
        assert g.ref_neighbors(0, 5, 9) == [1, 2, 3]
        assert g.ref_neighbors(0, 6, 9) == [2]
        assert g.ref_neighbors(0, 21, 30) == []

    def test_ref_neighbors_incremental(self):
        g = graph_from_contacts(GraphKind.INCREMENTAL, [(0, 1, 5), (0, 2, 9)])
        assert g.ref_neighbors(0, 100, 200) == [1, 2]
        assert g.ref_neighbors(0, 5, 8) == [1]

    def test_ref_neighbors_interval(self):
        g = graph_from_contacts(
            GraphKind.INTERVAL, [(0, 1, 0, 10), (0, 2, 5, 1), (0, 3, 20, 5)]
        )
        assert g.ref_neighbors(0, 5, 5) == [1, 2]
        assert g.ref_neighbors(0, 10, 19) == []
        assert g.ref_neighbors(0, 24, 30) == [3]

    def test_ref_edge_timestamps(self):
        g = point_graph([(0, 1, 9), (0, 1, 2), (0, 2, 5)])
        assert g.ref_edge_timestamps(0, 1) == [2, 9]
        assert g.ref_edge_timestamps(0, 9 % 3) == []

    def test_ref_snapshot(self):
        g = point_graph([(0, 1, 5), (1, 2, 5), (2, 0, 9)])
        assert g.ref_snapshot(5, 5) == [(0, 1), (1, 2)]
        assert g.ref_snapshot(0, 100) == [(0, 1), (1, 2), (2, 0)]


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 50)),
        max_size=60,
    )
)
def test_property_snapshot_consistent_with_has_edge(triples):
    g = graph_from_contacts(GraphKind.POINT, triples, num_nodes=7)
    for t in (0, 10, 25, 50):
        snapshot = set(g.ref_snapshot(t, t + 5))
        for u in range(7):
            for v in range(7):
                assert ((u, v) in snapshot) == g.ref_has_edge(u, v, t, t + 5)
