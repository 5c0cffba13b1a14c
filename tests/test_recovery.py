"""Converting a legacy ``base.chrono`` + ``.wal`` pair into a segment store.

The two invariants every crash point of the legacy writer must preserve,
as seen through the conversion:

* replay yields exactly a prefix of the committed batches (never a torn
  batch, never contacts from the future);
* a contact whose ``commit()`` returned before the crash is never lost.

The conversion itself reads the legacy files only, refuses a WAL bound to
another base before creating anything, and writes the store's one segment
through the seal's compress-stored path: bit-identical to compressing
base + WAL contacts directly.
"""

import zlib

import pytest

from repro.cli import main
from repro.core import ChronoGraphConfig, compress, save_compressed
from repro.core.serialize import dumps_compressed
from repro.errors import FormatError, GenerationMismatchError
from repro.graph.model import Contact, GraphKind, TemporalGraph
from repro.storage.atomic import OS_FILESYSTEM
from repro.storage.recovery import convert_legacy_pair, default_wal_path
from repro.storage.segments import (
    SegmentStore,
    _compress_stored,
    is_segment_store,
)
from repro.storage.wal import WalHeader, WriteAheadLog
from repro.testing.faults import crash_points

BASE_CONTACTS = [Contact(0, 1, 3), Contact(1, 2, 5)]
NEW_CONTACTS = [Contact(0, 2, 9), Contact(2, 0, 11), Contact(3, 1, 12)]
ALL_CONTACTS = BASE_CONTACTS + NEW_CONTACTS


def _base_graph():
    return TemporalGraph(GraphKind.POINT, 3, BASE_CONTACTS, name="rec")


def _open_wal(base, fs=OS_FILESYSTEM):
    """The legacy writer: open ``<base>.wal``, creating it bound to ``base``."""
    path = default_wal_path(base)
    if path.exists():
        return WriteAheadLog.open(path, fs=fs)
    blob = base.read_bytes()
    header = WalHeader(
        kind=GraphKind.POINT,
        generation=0,
        base_size=len(blob),
        base_crc=zlib.crc32(blob),
    )
    return WriteAheadLog.create(path, header, fs=fs)


def _setup(tmp_path, batches=(NEW_CONTACTS[:2], NEW_CONTACTS[2:])):
    base = tmp_path / "g.chrono"
    save_compressed(compress(_base_graph()), base)
    with _open_wal(base) as wal:
        for batch in batches:
            wal.append(batch)
            wal.commit()
    return base


def _convert(base, name="g.store"):
    store_dir = base.with_name(name)
    report = convert_legacy_pair(base, default_wal_path(base), store_dir)
    return store_dir, report


def _edges(store_dir):
    with SegmentStore.open(store_dir, read_only=True) as store:
        return sorted((c.u, c.v, c.time) for c in store.graph.iter_contacts())


def _expected(contacts):
    return sorted((c.u, c.v, c.time) for c in contacts)


class TestReplay:
    def test_convert_matches_direct_graph(self, tmp_path):
        base = _setup(tmp_path)
        store_dir, report = _convert(base)
        assert _edges(store_dir) == _expected(ALL_CONTACTS)
        assert report.ok
        assert report.generation == 0
        assert report.batches_replayed == 2
        assert report.contacts_replayed == 3

    def test_missing_wal_is_a_clean_open(self, tmp_path):
        base = tmp_path / "g.chrono"
        save_compressed(compress(_base_graph()), base)
        store_dir, report = _convert(base)
        assert report.ok and report.generation == -1
        assert report.contacts_replayed == 0
        assert "no WAL" in report.summary()
        assert _edges(store_dir) == _expected(BASE_CONTACTS)

    def test_torn_tail_replays_prefix_and_reports_loss(self, tmp_path):
        base = _setup(tmp_path)
        wal_path = default_wal_path(base)
        wal_path.write_bytes(wal_path.read_bytes()[:-7])  # tear the last record
        store_dir, report = _convert(base)
        assert report.contacts_replayed == 2  # first batch only
        assert report.torn and not report.ok
        assert report.dropped_bytes > 0
        assert "recovered with loss" in report.summary()
        with SegmentStore.open(store_dir, read_only=True) as store:
            assert store.graph.has_edge(0, 2, 0, 100)
            assert store.graph.num_nodes == 3  # node 3 was only in the tail

    def test_foreign_base_raises_generation_mismatch(self, tmp_path):
        base = _setup(tmp_path)
        other = TemporalGraph(GraphKind.POINT, 3, [Contact(2, 1, 8)])
        base.write_bytes(dumps_compressed(compress(other)))
        with pytest.raises(GenerationMismatchError):
            _convert(base)
        assert not base.with_name("g.store").exists()

    def test_kind_mismatch_raises(self, tmp_path):
        base = tmp_path / "g.chrono"
        save_compressed(compress(_base_graph()), base)
        blob = base.read_bytes()
        header = WalHeader(
            kind=GraphKind.INTERVAL,
            generation=0,
            base_size=len(blob),
            base_crc=zlib.crc32(blob),
        )
        WriteAheadLog.create(default_wal_path(base), header).close()
        with pytest.raises(GenerationMismatchError):
            _convert(base)

    def test_recover_bytes_unreadable_base_raises_format_error(self, tmp_path):
        base = tmp_path / "g.chrono"
        base.write_bytes(b"not a container")
        with pytest.raises(FormatError):
            _convert(base)
        assert not base.with_name("g.store").exists()


class TestIngestCrashMatrix:
    def test_replay_is_always_a_committed_prefix(self, tmp_path):
        base = tmp_path / "g.chrono"
        blob = dumps_compressed(compress(_base_graph()))
        batches = (NEW_CONTACTS[:2], NEW_CONTACTS[2:])

        def action(fs):
            base.write_bytes(blob)
            wal_path = default_wal_path(base)
            if wal_path.exists():
                wal_path.unlink()
            with _open_wal(base, fs) as wal:
                for batch in batches:
                    wal.append(batch)
                    wal.commit()

        prefixes = [
            _expected(BASE_CONTACTS + extra)
            for extra in ([], NEW_CONTACTS[:2], NEW_CONTACTS)
        ]
        points = 0
        for n, fs in crash_points(action):
            points += 1
            store_dir, report = _convert(base, f"crash-{n}.store")
            assert _edges(store_dir) in prefixes, f"crash point {n}"
            assert report.contacts_replayed in (0, 2, 3), f"crash point {n}"
        assert points >= 4  # WAL create + two commits each crash at least once

    def test_fsynced_commit_survives_later_crashes(self, tmp_path):
        base = tmp_path / "g.chrono"
        blob = dumps_compressed(compress(_base_graph()))

        def action(fs):
            base.write_bytes(blob)
            wal_path = default_wal_path(base)
            if wal_path.exists():
                wal_path.unlink()
            # First batch through the real filesystem: genuinely durable.
            with _open_wal(base) as wal:
                wal.append(NEW_CONTACTS[:2])
                wal.commit()
            # Second batch through the crashing filesystem.
            with _open_wal(base, fs) as wal:
                wal.append(NEW_CONTACTS[2:])
                wal.commit()

        for n, fs in crash_points(action):
            store_dir, report = _convert(base, f"crash-{n}.store")
            assert report.contacts_replayed >= 2, (
                f"crash point {n} lost an fsynced commit"
            )
            with SegmentStore.open(store_dir, read_only=True) as store:
                assert store.graph.has_edge(0, 2, 0, 100)
                assert store.graph.has_edge(2, 0, 0, 100)


class TestCompaction:
    def test_snapshot_bit_identical_to_direct_compression(self, tmp_path):
        base = _setup(tmp_path)
        config = compress(_base_graph()).config
        store_dir, _ = _convert(base)
        with SegmentStore.open(store_dir, read_only=True) as store:
            (info,) = store.manifest.segments
        direct = dumps_compressed(
            compress(
                TemporalGraph(GraphKind.POINT, 4, ALL_CONTACTS, name=info.name),
                config,
            )
        )
        assert (store_dir / info.name).read_bytes() == direct
        assert info.contacts == len(ALL_CONTACTS)

    def test_post_compact_open_is_clean_and_empty(self, tmp_path):
        base = _setup(tmp_path)
        store_dir, _ = _convert(base)
        with SegmentStore.open(store_dir) as store:
            health = store.health()
            assert health.ok and not health.events
            assert store.tail_size == 0
            assert health.segments == 1
            assert store.graph.num_contacts == len(ALL_CONTACTS)

    def test_ingest_continues_at_next_generation(self, tmp_path):
        base = _setup(tmp_path)
        store_dir, _ = _convert(base)
        with SegmentStore.open(store_dir) as store:
            assert store.manifest.generation == 0
            store.ingest([Contact(1, 3, 20)])
            store.seal()
            assert store.manifest.generation == 1
        assert _edges(store_dir) == _expected(ALL_CONTACTS + [Contact(1, 3, 20)])

    def test_no_committed_contact_lost_at_any_crash_point(self, tmp_path):
        base = _setup(tmp_path, batches=(NEW_CONTACTS,))
        legacy = (base.read_bytes(), default_wal_path(base).read_bytes())
        full = _expected(ALL_CONTACTS)
        store_dir = tmp_path / "g.store"

        def action(fs):
            import shutil

            shutil.rmtree(store_dir, ignore_errors=True)
            convert_legacy_pair(base, default_wal_path(base), store_dir, fs=fs)

        points = 0
        for n, fs in crash_points(action):
            points += 1
            assert (base.read_bytes(), default_wal_path(base).read_bytes()) == legacy
            # A crash leaves either the complete store or no store at all,
            # and then converting again completes.
            if not is_segment_store(store_dir):
                convert_legacy_pair(base, default_wal_path(base), store_dir)
            assert _edges(store_dir) == full, f"crash point {n}"
        assert points >= 5  # segment, tail log and manifest writes

    def test_superseded_wal_detected_after_mid_compact_crash(self, tmp_path):
        # The crash window between snapshot replace and WAL reset of the
        # legacy compaction: the marker proves the new base supersedes
        # the old log.
        base = _setup(tmp_path)
        wal_path = default_wal_path(base)
        new_blob = dumps_compressed(
            compress(TemporalGraph(GraphKind.POINT, 4, ALL_CONTACTS, name="rec"))
        )
        with WriteAheadLog.open(wal_path) as wal:
            wal.append_compact_marker(len(new_blob), zlib.crc32(new_blob))
        base.write_bytes(new_blob)  # crash "happened" before the WAL reset
        wal_bytes = wal_path.read_bytes()
        store_dir, report = _convert(base)
        assert report.superseded and not report.ok
        assert report.contacts_replayed == 0  # stale records ignored
        assert "superseded" in report.summary()
        assert _edges(store_dir) == _expected(ALL_CONTACTS)
        assert wal_path.read_bytes() == wal_bytes

    def test_resolution_is_preserved_through_compaction(self, tmp_path):
        graph = TemporalGraph(
            GraphKind.POINT,
            3,
            [Contact(0, 1, 10), Contact(1, 2, 57)],
            name="coarse",
        )
        base = tmp_path / "g.chrono"
        save_compressed(compress(graph, ChronoGraphConfig(resolution=10)), base)
        with _open_wal(base) as wal:
            # Stored units: the WAL holds already-bucketed contacts.
            wal.append([Contact(2, 0, 9)])
            wal.commit()
        store_dir, _ = _convert(base)
        with SegmentStore.open(store_dir, read_only=True) as store:
            assert store.manifest.config.resolution == 10
            segment = store.graph._segments[0][1]
            assert segment.config.resolution == 10
            assert store.graph.num_contacts == 3
            assert store.graph.edge_timestamps(2, 0) == [9]  # not re-bucketed


class TestConvertIntervalPair:
    """An interval base at resolution 60 plus a WAL of three batches."""

    BASE = [(0, 1, 0, 130), (1, 2, 600, 60), (2, 0, 1200, 1), (3, 1, 61, 59)]
    BATCHES = [
        [Contact(0, 2, 30, 2), Contact(4, 0, 31, 1)],
        [Contact(1, 0, 5, 3)],
        [Contact(0, 1, 0, 2), Contact(2, 4, 40, 1), Contact(4, 4, 41, 5)],
    ]

    @pytest.fixture()
    def pair(self, tmp_path):
        base = tmp_path / "legacy.chrono"
        graph = TemporalGraph(
            GraphKind.INTERVAL, 4, [Contact(*r) for r in self.BASE]
        )
        save_compressed(compress(graph, ChronoGraphConfig(resolution=60)), base)
        blob = base.read_bytes()
        header = WalHeader(
            kind=GraphKind.INTERVAL,
            generation=0,
            base_size=len(blob),
            base_crc=zlib.crc32(blob),
        )
        with WriteAheadLog.create(default_wal_path(base), header) as wal:
            for batch in self.BATCHES:
                wal.append(batch)
                wal.commit()
        return base

    def _legacy(self, base):
        return base.read_bytes(), default_wal_path(base).read_bytes()

    def test_store_is_base_union_wal(self, pair):
        from repro.core.serialize import load_compressed

        legacy = self._legacy(pair)
        base = load_compressed(pair)
        stored = list(base.iter_contacts()) + [
            c for batch in self.BATCHES for c in batch
        ]
        assert main(["recover", str(pair)]) == 0
        store_dir = pair.with_name("legacy.chrono.store")
        assert self._legacy(pair) == legacy
        with SegmentStore.open(store_dir, read_only=True) as store:
            view = store.graph
            assert sorted(view.iter_contacts()) == sorted(stored)
            (info,) = store.manifest.segments
            assert (store_dir / info.name).read_bytes() == _compress_stored(
                GraphKind.INTERVAL, stored, base.config, info.name
            )
            oracle = TemporalGraph(
                GraphKind.INTERVAL, view.num_nodes, stored, granularity="stored"
            )
            for u in range(view.num_nodes):
                assert view.contacts_of(u) == oracle.contacts_of(u)
                for t0, t1 in [(0, 0), (0, 2), (1, 1), (2, 20), (30, 41), (5, 4)]:
                    assert view.neighbors(u, t0, t1) == oracle.ref_neighbors(u, t0, t1)
                    for v in range(view.num_nodes):
                        assert view.has_edge(u, v, t0, t1) == oracle.ref_has_edge(
                            u, v, t0, t1
                        )
            for t0, t1 in [(0, 100), (1, 1), (31, 40)]:
                assert view.snapshot(t0, t1) == oracle.ref_snapshot(t0, t1)

    def test_foreign_wal_exits_2_and_creates_nothing(self, pair, capsys):
        other = pair.with_name("other.chrono")
        save_compressed(
            compress(TemporalGraph(GraphKind.INTERVAL, 2, [Contact(0, 1, 5, 1)])),
            other,
        )
        default_wal_path(other).write_bytes(default_wal_path(pair).read_bytes())
        legacy = self._legacy(other)
        assert main(["recover", str(other)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not other.with_name("other.chrono.store").exists()
        assert self._legacy(other) == legacy

    @pytest.mark.parametrize("damage", ["torn", "superseded"])
    def test_lossy_wal_exits_1_and_reports(self, pair, capsys, damage):
        wal_path = default_wal_path(pair)
        if damage == "torn":
            wal_path.write_bytes(wal_path.read_bytes()[:-5])
            expect = "recovered with loss"
        else:
            # A legacy compaction installed a new base, then crashed
            # before resetting the log; the log's marker names the base.
            new_base = dumps_compressed(
                compress(
                    TemporalGraph(GraphKind.INTERVAL, 2, [Contact(0, 1, 1, 1)])
                )
            )
            with WriteAheadLog.open(wal_path) as wal:
                wal.append_compact_marker(len(new_base), zlib.crc32(new_base))
            pair.write_bytes(new_base)
            expect = "superseded"
        legacy = self._legacy(pair)
        assert main(["recover", str(pair)]) == 1
        assert expect in capsys.readouterr().out
        assert self._legacy(pair) == legacy
        assert is_segment_store(pair.with_name("legacy.chrono.store"))
