"""Tests for the extended Section IV-F query surface."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CompressedChronoGraph, compress
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.service.protocol import QUERY_OPS
from repro.storage.segments import SegmentedChronoGraph


def _cg(contacts, kind=GraphKind.POINT, n=None):
    return compress(graph_from_contacts(kind, contacts, num_nodes=n))


class TestBeforeAfter:
    def test_point_before(self):
        cg = _cg([(0, 1, 5), (0, 2, 15)])
        assert cg.neighbors_before(0, 10) == [1]
        assert cg.neighbors_before(0, 5) == []
        assert cg.neighbors_before(0, 100) == [1, 2]

    def test_point_after(self):
        cg = _cg([(0, 1, 5), (0, 2, 15)])
        assert cg.neighbors_after(0, 10) == [2]
        assert cg.neighbors_after(0, 16) == []
        assert cg.neighbors_after(0, 0) == [1, 2]

    def test_incremental_after_includes_everything(self):
        cg = _cg([(0, 1, 5)], kind=GraphKind.INCREMENTAL)
        assert cg.neighbors_after(0, 1000) == [1]

    def test_interval_after_uses_activity_end(self):
        cg = _cg([(0, 1, 5, 10), (0, 2, 5, 2)], kind=GraphKind.INTERVAL)
        # (0,1) active [5,15): still active at 10; (0,2) ended at 7.
        assert cg.neighbors_after(0, 10) == [1]

    def test_before_at_global_minimum_is_empty(self):
        cg = _cg([(0, 1, 5)])
        assert cg.neighbors_before(0, 5) == []

    @settings(max_examples=20)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 60)),
            max_size=40,
        ),
        st.integers(0, 70),
    )
    def test_property_before_after_cover_all_neighbors(self, rows, t):
        g = graph_from_contacts(GraphKind.POINT, rows, num_nodes=5)
        cg = compress(g)
        for u in range(5):
            before = set(cg.neighbors_before(u, t))
            after = set(cg.neighbors_after(u, t))
            everything = set(cg.distinct_neighbors(u))
            assert before | after == everything
            # "at t" contacts are in `after` and not in `before`.
            at_t = set(cg.neighbors(u, t, t))
            assert at_t <= after


class TestEdgeActivity:
    def test_point_unit_spans(self):
        cg = _cg([(0, 1, 5), (0, 1, 9)])
        assert cg.edge_activity(0, 1) == [(5, 6), (9, 10)]

    def test_interval_spans(self):
        cg = _cg([(0, 1, 5, 10)], kind=GraphKind.INTERVAL)
        assert cg.edge_activity(0, 1) == [(5, 15)]

    def test_zero_duration_excluded(self):
        cg = _cg([(0, 1, 5, 0)], kind=GraphKind.INTERVAL)
        assert cg.edge_activity(0, 1) == []

    def test_absent_edge(self):
        cg = _cg([(0, 1, 5)])
        assert cg.edge_activity(0, 2) == []


class TestStaticView:
    def test_figure_1a_flattening(self):
        """The paper's Figure 1: three calls flatten to three static edges."""
        a, b, c = 0, 1, 2
        cg = _cg([(a, b, 1), (b, c, 2), (a, b, 3), (a, c, 3)])
        assert cg.to_static_graph() == [(a, b), (a, c), (b, c)]

    def test_static_view_ignores_time(self):
        cg = _cg([(0, 1, 5), (0, 1, 500), (0, 1, 5000)])
        assert cg.to_static_graph() == [(0, 1)]


class TestNeighborsAfterOrder:
    """neighbors_after must return sorted distinct labels without a sort pass.

    The multiset is label-sorted, so adjacent-deduplication suffices; these
    tests pin the output order so the implementation cannot quietly drop
    either the sortedness or the deduplication.
    """

    def test_point_output_sorted_distinct(self):
        cg = _cg([(0, 5, 1), (0, 2, 9), (0, 5, 3), (0, 2, 4), (0, 9, 2)])
        assert cg.neighbors_after(0, 0) == [2, 5, 9]
        assert cg.neighbors_after(0, 3) == [2, 5]
        assert cg.neighbors_after(0, 5) == [2]

    def test_duplicate_contacts_collapse_once(self):
        cg = _cg([(0, 1, t) for t in range(10)] + [(0, 3, 4)])
        assert cg.neighbors_after(0, 0) == [1, 3]
        assert cg.neighbors_after(0, 5) == [1]

    def test_incremental_sorted_distinct(self):
        cg = _cg(
            [(0, 4, 1), (0, 2, 2), (0, 4, 3)], kind=GraphKind.INCREMENTAL
        )
        assert cg.neighbors_after(0, 99) == [2, 4]

    def test_interval_sorted_distinct(self):
        cg = _cg(
            [(0, 7, 1, 5), (0, 3, 2, 5), (0, 7, 2, 1)],
            kind=GraphKind.INTERVAL,
        )
        assert cg.neighbors_after(0, 4) == [3, 7]


class TestHasEdgeDuplicateRuns:
    """has_edge binary-searches the label run; repeats must all be probed."""

    def test_match_in_middle_of_run(self):
        cg = _cg([(0, 2, 1), (0, 2, 50), (0, 2, 99)])
        assert cg.has_edge(0, 2, 40, 60)
        assert not cg.has_edge(0, 2, 10, 30)

    def test_match_at_last_contact_of_run(self):
        cg = _cg([(0, 2, 1), (0, 2, 2), (0, 2, 90)])
        assert cg.has_edge(0, 2, 80, 100)

    def test_absent_label_between_runs(self):
        cg = _cg([(0, 1, 5), (0, 1, 6), (0, 3, 5), (0, 3, 6)])
        assert not cg.has_edge(0, 2, 0, 100)
        assert not cg.has_edge(0, 0, 0, 100)
        assert not cg.has_edge(0, 4, 0, 100)

    def test_interval_run_with_mixed_durations(self):
        cg = _cg(
            [(0, 2, 1, 0), (0, 2, 5, 10), (0, 2, 30, 0)],
            kind=GraphKind.INTERVAL,
        )
        # Only the middle contact is ever active (duration 0 is inactive).
        assert cg.has_edge(0, 2, 7, 8)
        assert not cg.has_edge(0, 2, 30, 40)

    def test_first_and_last_labels_of_multiset(self):
        cg = _cg([(0, 0, 5), (0, 0, 6), (0, 9, 5), (0, 9, 6)], n=10)
        assert cg.has_edge(0, 0, 5, 5)
        assert cg.has_edge(0, 9, 6, 6)
        assert not cg.has_edge(0, 9, 7, 9)


class TestSharedSignatures:
    """A monolithic graph and a store view take the same query arguments."""

    @pytest.mark.parametrize("name", list(QUERY_OPS))
    def test_parameter_lists_match(self, name):
        mono = inspect.signature(getattr(CompressedChronoGraph, name))
        store = inspect.signature(getattr(SegmentedChronoGraph, name))
        assert list(mono.parameters.values()) == list(store.parameters.values())

    @pytest.mark.parametrize("name", list(QUERY_OPS))
    def test_positional_parameters_are_the_table_arguments(self, name):
        op = QUERY_OPS[name]
        view = inspect.signature(getattr(CompressedChronoGraph, name))
        positional = [
            p.name for p in view.parameters.values()
            if p.kind is p.POSITIONAL_OR_KEYWORD
        ]
        assert positional == ["self", *op.args]
        assert view.parameters["ctx"].kind is inspect.Parameter.KEYWORD_ONLY
        oracle = list(inspect.signature(op.answer).parameters)
        assert oracle[1:] == list(op.args)
