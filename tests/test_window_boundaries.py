"""Interval-inclusivity pinning: every query agrees on closed [t_start, t_end].

FORMAT.md ("Query window semantics") documents one contract for the whole
query surface: windows are closed on both ends, ``neighbors_before(u, t)``
is strictly before ``t``, ``neighbors_after(u, t)`` includes ``t``, and an
inverted window is empty.  These tests put a contact exactly on each
boundary and check that ``neighbors``, ``has_edge``, ``neighbors_before``,
``neighbors_after``, ``snapshot``, ``snapshot_parallel``,
``iter_window_neighbors`` and ``neighbors_many`` all agree -- for every
graph kind, and on a segment store both while the contacts sit in its
tail buffer and once they are sealed.
"""

import pytest

from repro.core import compress
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.storage.segments import SegmentStore

T = 100  # the boundary timestamp under test


def _point():
    # Node 0 contacts node 1 exactly at T; node 2 well before; node 3 after.
    contacts = [(0, 1, T), (0, 2, T - 50), (0, 3, T + 50)]
    return compress(graph_from_contacts(GraphKind.POINT, contacts, num_nodes=4))


def _interval():
    # (0,1) active [T, T+10); (0,2) active [T-20, T); zero-duration (0,3).
    contacts = [(0, 1, T, 10), (0, 2, T - 20, 20), (0, 3, T, 0)]
    return compress(
        graph_from_contacts(GraphKind.INTERVAL, contacts, num_nodes=4)
    )


def _incremental():
    contacts = [(0, 1, T), (0, 2, T - 50)]
    return compress(
        graph_from_contacts(GraphKind.INCREMENTAL, contacts, num_nodes=3)
    )


def _window_views(cg, t0, t1, u=0):
    """The same window through every bulk/point query path."""
    from_neighbors = cg.neighbors(u, t0, t1)
    from_many = cg.neighbors_many([(u, t0, t1)])[0]
    from_snapshot = sorted(v for a, v in cg.snapshot(t0, t1) if a == u)
    from_parallel = sorted(
        v for a, v in cg.snapshot_parallel(t0, t1, workers=2) if a == u
    )
    from_iter = dict(cg.iter_window_neighbors(t0, t1))[u]
    return from_neighbors, from_many, from_snapshot, from_parallel, from_iter


class TestPointBoundaries:
    def test_contact_on_upper_boundary_included(self):
        cg = _point()
        views = _window_views(cg, T - 10, T)
        assert all(v == [1] for v in views), views
        assert cg.has_edge(0, 1, T - 10, T)

    def test_contact_on_lower_boundary_included(self):
        cg = _point()
        views = _window_views(cg, T, T + 10)
        assert all(v == [1] for v in views), views
        assert cg.has_edge(0, 1, T, T + 10)

    def test_degenerate_window_is_the_single_instant(self):
        cg = _point()
        views = _window_views(cg, T, T)
        assert all(v == [1] for v in views), views

    def test_window_just_misses_on_both_sides(self):
        cg = _point()
        for t0, t1 in [(T - 10, T - 1), (T + 1, T + 10)]:
            views = _window_views(cg, t0, t1)
            assert all(1 not in v for v in views), (t0, t1, views)
            assert not cg.has_edge(0, 1, t0, t1)

    def test_inverted_window_is_empty(self):
        cg = _point()
        views = _window_views(cg, T, T - 1)
        assert all(v == [] for v in views), views
        assert not cg.has_edge(0, 1, T, T - 1)

    def test_before_is_strict_after_is_closed(self):
        cg = _point()
        assert 1 not in cg.neighbors_before(0, T)  # strictly before
        assert 1 in cg.neighbors_before(0, T + 1)
        assert 1 in cg.neighbors_after(0, T)  # closed lower bound
        assert 1 not in cg.neighbors_after(0, T + 1)

    def test_before_after_partition_at_boundary(self):
        # Every contact is in exactly one of {before t, after t}: the
        # complement split documented in FORMAT.md.
        cg = _point()
        for t in [T - 50, T, T + 50, T + 51]:
            before = set(cg.neighbors_before(0, t))
            after = set(cg.neighbors_after(0, t))
            assert before | after == {1, 2, 3}
            # (a label can appear on both sides only with multiple
            # contacts; each single-contact label lands on one side)
            assert not before & after


class TestIntervalBoundaries:
    def test_window_ending_at_start_includes(self):
        cg = _interval()
        views = _window_views(cg, T - 30, T)
        # (0,1) starts exactly at T (t <= t_end holds); (0,2) still active
        # through [T-20, T); zero-duration (0,3) is never active.
        assert all(v == [1, 2] for v in views), views

    def test_window_starting_at_end_excludes(self):
        cg = _interval()
        # (0,2) is active on [T-20, T): a window starting exactly at T
        # misses it (end-exclusive activity).
        views = _window_views(cg, T, T + 5)
        assert all(v == [1] for v in views), views
        assert not cg.has_edge(0, 2, T, T + 5)
        # ... but a window touching T-1 still sees it.
        assert cg.has_edge(0, 2, T - 1, T + 5)

    def test_zero_duration_contact_never_active(self):
        cg = _interval()
        assert not cg.has_edge(0, 3, 0, 10_000)
        assert 3 not in cg.neighbors(0, 0, 10_000)

    def test_after_uses_exclusive_activity_end(self):
        cg = _interval()
        # (0,2) active [T-20, T): its last active instant is T-1.
        assert 2 in cg.neighbors_after(0, T - 1)
        assert 2 not in cg.neighbors_after(0, T)


class TestIncrementalBoundaries:
    def test_edge_exists_from_its_timestamp_onwards(self):
        cg = _incremental()
        views = _window_views(cg, T, T)
        assert all(v == [1, 2] for v in views), views
        # A window entirely before T misses edge (0,1).
        views = _window_views(cg, T - 10, T - 1)
        assert all(v == [2] for v in views), views

    def test_before_strict_after_always(self):
        cg = _incremental()
        assert 1 not in cg.neighbors_before(0, T)
        assert 1 in cg.neighbors_before(0, T + 1)
        # Incremental edges never deactivate: "after" includes everything
        # already created.
        assert set(cg.neighbors_after(0, T)) == {1, 2}


#: Windows touching, straddling and just missing every fixture boundary.
_WINDOWS = [
    (T, T), (T - 1, T), (T, T + 1), (T + 1, T + 2), (T - 2, T - 1),
    (T - 20, T - 20), (T - 21, T - 20), (T - 50, T - 50), (T - 1, T - 1),
    (T + 9, T + 9), (T + 10, T + 20), (T + 50, T + 50), (T, T - 1),
]


class TestOverlayAgreesOnBoundaries:
    def test_overlay_contact_on_each_boundary(self, tmp_path):
        # A point contact in a store's tail buffer, on top of a sealed
        # segment holding the _point() contacts.
        with SegmentStore.create(tmp_path / "s", GraphKind.POINT) as store:
            store.ingest(list(_point().iter_contacts()))
            store.seal()
            store.ingest([Contact(2, 3, T)])
            view = store.graph
            assert view.neighbors(2, T - 5, T) == [3]
            assert view.neighbors(2, T, T + 5) == [3]
            assert view.neighbors(2, T + 1, T + 5) == []
            assert view.neighbors(2, T - 5, T - 1) == []
            assert view.has_edge(2, 3, T, T)
            assert not view.has_edge(2, 3, T + 1, T + 1)
            assert sorted(v for a, v in view.snapshot(T, T) if a == 2) == [3]
            assert view.snapshot(T + 1, T + 1) == []

    @pytest.mark.parametrize("make", [_point, _interval, _incremental])
    def test_store_tail_and_segment_match_compressed(self, tmp_path, make):
        cg = make()
        rows = list(cg.iter_contacts())
        with SegmentStore.create(tmp_path / "s", cg.kind) as store:
            store.ingest(rows)
            surfaces = {"tail": store.graph}
            store.seal()
            surfaces["segment"] = store.graph
            for name, view in surfaces.items():
                for t0, t1 in _WINDOWS:
                    for u in range(cg.num_nodes):
                        want = cg.neighbors(u, t0, t1)
                        assert view.neighbors(u, t0, t1) == want, (name, t0, t1)
                        for v in range(cg.num_nodes):
                            assert view.has_edge(u, v, t0, t1) == cg.has_edge(
                                u, v, t0, t1
                            ), (name, u, v, t0, t1)
                    assert view.snapshot(t0, t1) == cg.snapshot(t0, t1), (
                        name, t0, t1,
                    )

    @pytest.mark.parametrize("kind", [GraphKind.POINT, GraphKind.INCREMENTAL])
    def test_model_predicate_matches_query_plane(self, kind):
        # Contact.is_active is the reference predicate (graph/model.py);
        # the compressed query plane must agree with it on the boundary.
        contacts = [(0, 1, T)]
        cg = compress(graph_from_contacts(kind, contacts, num_nodes=2))
        c = Contact(0, 1, T)
        for t0, t1 in [(T, T), (T - 1, T), (T, T + 1), (T + 1, T + 2), (T - 2, T - 1)]:
            assert cg.has_edge(0, 1, t0, t1) == c.is_active(t0, t1, kind)
            assert (1 in cg.neighbors(0, t0, t1)) == c.is_active(t0, t1, kind)
