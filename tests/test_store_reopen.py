"""Interplay of store growth, serialization and aggregation."""

import random

from repro.core import (
    ChronoGraphConfig,
    compress,
    load_compressed,
    save_compressed,
)
from repro.core.validate import validate_compressed
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.storage.segments import SegmentStore


def _create(tmp_path, kind=GraphKind.POINT, config=None):
    return SegmentStore.create(tmp_path / "store", kind, config)


def _segment(store, index=-1):
    return store.graph._segments[index][1]


class TestSealReopenCycle:
    def test_sealed_segment_loads_on_its_own(self, tmp_path):
        rng = random.Random(4)
        rows = [(rng.randrange(6), rng.randrange(6), rng.randrange(500))
                for _ in range(80)]
        with _create(tmp_path) as store:
            store.ingest(rows)
            info = store.seal()
        loaded = load_compressed(tmp_path / "store" / info.name)
        assert loaded.name == info.name
        ref = graph_from_contacts(GraphKind.POINT, rows, num_nodes=6)
        assert loaded.to_temporal_graph().contacts == ref.contacts

    def test_reopened_store_resumes_ingest(self, tmp_path):
        with _create(tmp_path) as store:
            store.ingest([(0, 1, 5), (1, 2, 9)])
            store.seal()
        with SegmentStore.open(tmp_path / "store") as resumed:
            resumed.ingest([(2, 0, 20)])
            g = resumed.graph
            assert g.num_contacts == 3
            assert g.neighbors(2, 0, 30) == [0]
            assert g.has_edge(0, 1, 5, 5)

    def test_sealed_segment_validates(self, tmp_path):
        rng = random.Random(7)
        rows = [(rng.randrange(5), rng.randrange(5), rng.randrange(300),
                 rng.randrange(1, 20)) for _ in range(60)]
        with _create(tmp_path, GraphKind.INTERVAL) as store:
            store.ingest(rows)
            store.seal()
            report = validate_compressed(
                _segment(store),
                graph_from_contacts(GraphKind.INTERVAL, rows, num_nodes=5),
            )
        assert report.ok

    def test_seal_respects_custom_config(self, tmp_path):
        cfg = ChronoGraphConfig(resolution=10, timestamp_zeta_k=3)
        with _create(tmp_path, config=cfg) as store:
            store.ingest([(0, 1, 95), (0, 1, 99), (0, 1, 105)])
            store.seal()
            segment = _segment(store)
        # Aggregated at resolution 10: buckets 9, 9, 10.
        assert segment.edge_timestamps(0, 1) == [9, 9, 10]
        assert segment.config.timestamp_zeta_k == 3

    def test_aggregating_config_shrinks_sealed_segment(self, tmp_path):
        rows = [(0, 1, t) for t in range(0, 100_000, 7)]
        sizes = []
        for name, cfg in [("fine", None),
                          ("coarse", ChronoGraphConfig(resolution=3600))]:
            with SegmentStore.create(
                tmp_path / name, GraphKind.POINT, cfg
            ) as store:
                store.ingest(rows)
                store.seal()
                sizes.append(_segment(store).size_in_bits)
        fine, coarse = sizes
        assert coarse < fine


class TestSerializedSizeModel:
    def test_disk_size_tracks_in_memory_size(self, tmp_path):
        rng = random.Random(9)
        rows = [(rng.randrange(30), rng.randrange(30), rng.randrange(5000))
                for _ in range(1500)]
        g = graph_from_contacts(GraphKind.POINT, rows, num_nodes=30)
        cg = compress(g)
        path = tmp_path / "g.chrono"
        nbytes = save_compressed(cg, path)
        # Container overhead stays small relative to the payload.
        assert nbytes * 8 < cg.size_in_bits * 1.6 + 4096

    def test_two_graphs_roundtrip_independently(self, tmp_path):
        a = graph_from_contacts(GraphKind.POINT, [(0, 1, 5)], num_nodes=2)
        b = graph_from_contacts(GraphKind.INTERVAL, [(0, 1, 5, 3)], num_nodes=2)
        pa, pb = tmp_path / "a.chrono", tmp_path / "b.chrono"
        save_compressed(compress(a), pa)
        save_compressed(compress(b), pb)
        assert load_compressed(pa).kind is GraphKind.POINT
        assert load_compressed(pb).kind is GraphKind.INTERVAL


class TestSaveLoadSession:
    def test_reopen_replays_tail_and_resumes(self, tmp_path):
        with _create(tmp_path) as store:
            store.ingest([(0, 1, 5), (1, 2, 9)])
            store.seal()
            store.ingest([(2, 3, 20)])  # still in the tail at close time
        with SegmentStore.open(tmp_path / "store") as resumed:
            assert resumed.graph.num_contacts == 3
            assert resumed.tail_size == 1  # replayed from the tail log
            assert resumed.graph.has_edge(2, 3, 20, 20)
            resumed.ingest([(3, 0, 30)])
            assert resumed.graph.neighbors(3, 0, 40) == [0]

    def test_load_preserves_config(self, tmp_path):
        cfg = ChronoGraphConfig(resolution=60, timestamp_zeta_k=3)
        with _create(tmp_path, config=cfg) as store:
            store.ingest([(0, 1, 120)])
        with SegmentStore.open(tmp_path / "store") as resumed:
            assert resumed.manifest.config.resolution == 60
            assert resumed.graph.edge_timestamps(0, 1) == [2]

    def test_save_load_roundtrip_queries(self, tmp_path):
        rng = random.Random(21)
        rows = [(rng.randrange(6), rng.randrange(6), rng.randrange(200))
                for _ in range(70)]
        with _create(tmp_path) as store:
            store.ingest(rows[:40])
            store.seal()
            store.ingest(rows[40:])
        ref = graph_from_contacts(GraphKind.POINT, rows, num_nodes=6)
        with SegmentStore.open(tmp_path / "store") as resumed:
            g = resumed.graph
            for u in range(g.num_nodes):
                for t1, t2 in [(0, 200), (50, 120)]:
                    assert g.neighbors(u, t1, t2) == ref.ref_neighbors(u, t1, t2)

    def test_repeated_seals_do_not_reaggregate(self, tmp_path):
        """Regression: resolution must apply once, not per seal."""
        cfg = ChronoGraphConfig(resolution=10, timestamp_zeta_k=3)
        with _create(tmp_path, config=cfg) as store:
            store.ingest([(0, 1, 95)])
            store.seal()
            assert _segment(store).edge_timestamps(0, 1) == [9]
            store.ingest([(0, 1, 105)])
            store.seal()
            assert store.compact_once() is False  # within max_segments
            assert store.graph.edge_timestamps(0, 1) == [9, 10]  # not [0, ...]

    def test_interval_resolution_buckets_durations_once(self, tmp_path):
        cfg = ChronoGraphConfig(resolution=60, timestamp_zeta_k=3,
                                duration_zeta_k=2)
        with _create(tmp_path, GraphKind.INTERVAL, cfg) as store:
            store.ingest([(0, 1, 55, 70)])  # [55, 125) -> buckets 0..2
            store.seal()
            store.seal()  # a second seal of an empty tail changes nothing
            c = store.graph.contacts_of(0)[0]
        assert (c.time, c.duration) == (0, 3)
