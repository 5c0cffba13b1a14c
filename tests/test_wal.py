"""WAL format and writer contract: framing, checksums, torn tails.

The durability boundary under test is ``commit()``: a batch is wholly
present after it returns or wholly absent after any earlier failure --
the record framing makes "half a batch" detectable, and the scanner
turns it into a truncation, never into partial contacts.
"""

import struct
import zlib

import pytest

from repro.errors import (
    ChecksumMismatchError,
    FormatError,
    GraphDomainError,
    TruncatedContainerError,
    UnsupportedVersionError,
)
from repro.graph.model import Contact, GraphKind
from repro.storage.wal import (
    WAL_HEADER_SIZE,
    WAL_MAGIC,
    WalHeader,
    WriteAheadLog,
    _frame,
    encode_batch,
    repair_torn_tail,
    scan_wal,
    scan_wal_bytes,
)
from repro.storage.atomic import OS_FILESYSTEM

HEADER = WalHeader(kind=GraphKind.POINT, generation=0, base_size=10, base_crc=42)
CONTACTS = [Contact(0, 1, 3), Contact(1, 2, 5), Contact(2, 0, 9)]


def _make_wal(tmp_path, header=HEADER, batches=()):
    path = tmp_path / "g.chrono.wal"
    wal = WriteAheadLog.create(path, header)
    try:
        for batch in batches:
            wal.append(batch)
            wal.commit()
    finally:
        wal.close()
    return path


class TestHeader:
    def test_roundtrip(self):
        header = WalHeader(
            kind=GraphKind.INTERVAL, generation=7, base_size=12345, base_crc=99
        )
        blob = header.to_bytes()
        assert len(blob) == WAL_HEADER_SIZE
        assert WalHeader.from_bytes(blob) == header

    def test_truncated_header(self):
        with pytest.raises(TruncatedContainerError):
            WalHeader.from_bytes(HEADER.to_bytes()[:-1])

    def test_checksum_guard_fires_before_field_parsing(self):
        blob = bytearray(HEADER.to_bytes())
        blob[5] ^= 0xFF
        with pytest.raises(ChecksumMismatchError):
            WalHeader.from_bytes(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(HEADER.to_bytes())
        blob[:4] = b"NOPE"
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(FormatError):
            WalHeader.from_bytes(bytes(blob))

    def test_future_version_rejected(self):
        blob = bytearray(HEADER.to_bytes())
        blob[4] = 99
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        with pytest.raises(UnsupportedVersionError):
            WalHeader.from_bytes(bytes(blob))

    def test_magic_constant(self):
        assert HEADER.to_bytes()[:4] == WAL_MAGIC == b"CWAL"


class TestAppendCommit:
    def test_committed_contacts_roundtrip(self, tmp_path):
        path = _make_wal(tmp_path, batches=[CONTACTS[:2], CONTACTS[2:]])
        scan = scan_wal(path)
        assert scan.header == HEADER
        assert scan.batches == [CONTACTS[:2], CONTACTS[2:]]
        assert scan.contacts == CONTACTS
        assert not scan.torn and not scan.errors

    def test_uncommitted_contacts_are_invisible(self, tmp_path):
        path = tmp_path / "g.chrono.wal"
        wal = WriteAheadLog.create(path, HEADER)
        try:
            wal.append(CONTACTS)
            assert wal.pending_contacts == 3
            assert scan_wal(path).contacts == []  # nothing on disk yet
            assert wal.commit() == 3
            assert wal.pending_contacts == 0
        finally:
            wal.close()
        assert scan_wal(path).contacts == CONTACTS

    def test_empty_commit_is_a_noop(self, tmp_path):
        path = tmp_path / "g.chrono.wal"
        with WriteAheadLog.create(path, HEADER) as wal:
            assert wal.commit() == 0
        assert path.stat().st_size == WAL_HEADER_SIZE

    def test_plain_tuples_accepted(self, tmp_path):
        path = tmp_path / "g.chrono.wal"
        with WriteAheadLog.create(path, HEADER) as wal:
            wal.append([(4, 5, 17)])
            wal.commit()
        assert scan_wal(path).contacts == [Contact(4, 5, 17)]

    def test_interval_durations_survive(self, tmp_path):
        header = WalHeader(
            kind=GraphKind.INTERVAL, generation=0, base_size=1, base_crc=2
        )
        rows = [Contact(0, 1, 5, 4), Contact(1, 0, 9, 1)]
        path = _make_wal(tmp_path, header=header, batches=[rows])
        assert scan_wal(path).contacts == rows

    def test_reopen_appends_after_existing_batches(self, tmp_path):
        path = _make_wal(tmp_path, batches=[CONTACTS[:1]])
        with WriteAheadLog.open(path) as wal:
            assert wal.committed_contacts == 1
            assert wal.repaired_bytes == 0
            wal.append(CONTACTS[1:])
            wal.commit()
        assert scan_wal(path).contacts == CONTACTS


class TestAppendValidation:
    @pytest.mark.parametrize(
        "row",
        [
            (-1, 0, 5),
            (0, -1, 5),
            (0, 1, 5, -1),
            (1 << 41, 0, 5),
        ],
    )
    def test_bad_rows_rejected_before_buffering(self, tmp_path, row):
        path = tmp_path / "g.chrono.wal"
        with WriteAheadLog.create(path, HEADER) as wal:
            # A valid row ahead of the bad one is not buffered either.
            with pytest.raises(GraphDomainError):
                wal.append([(0, 1, 5), row])
            assert wal.pending_contacts == 0

    def test_point_graph_rejects_durations(self, tmp_path):
        path = tmp_path / "g.chrono.wal"
        with WriteAheadLog.create(path, HEADER) as wal:
            with pytest.raises(GraphDomainError):
                wal.append([Contact(0, 1, 5, 3)])


class TestTornTails:
    def test_mid_record_cut_is_reported_not_raised(self, tmp_path):
        path = _make_wal(tmp_path, batches=[CONTACTS[:2], CONTACTS[2:]])
        blob = path.read_bytes()
        scan_full = scan_wal_bytes(blob)
        cut = scan_full.record_ends[0] + 5  # inside the second record
        scan = scan_wal_bytes(blob[:cut])
        assert scan.contacts == CONTACTS[:2]  # first batch intact
        assert scan.torn and scan.dropped_bytes == 5
        assert scan.errors

    def test_crc_flip_drops_only_the_damaged_tail(self, tmp_path):
        path = _make_wal(tmp_path, batches=[CONTACTS[:2], CONTACTS[2:]])
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # last record's CRC byte
        scan = scan_wal_bytes(bytes(blob))
        assert scan.contacts == CONTACTS[:2]
        assert scan.torn and scan.errors

    def test_repair_truncates_in_place(self, tmp_path):
        path = _make_wal(tmp_path, batches=[CONTACTS[:2]])
        good_size = path.stat().st_size
        with path.open("ab") as fh:
            fh.write(b"\x07garbage-tail")
        scan = scan_wal(path)
        assert scan.torn
        removed = repair_torn_tail(path, scan, fs=OS_FILESYSTEM)
        assert removed == 13
        assert path.stat().st_size == good_size
        assert scan_wal(path).contacts == CONTACTS[:2]

    def test_open_repairs_and_reports(self, tmp_path):
        path = _make_wal(tmp_path, batches=[CONTACTS[:2]])
        with path.open("ab") as fh:
            fh.write(b"\xff" * 9)
        with WriteAheadLog.open(path) as wal:
            assert wal.repaired_bytes == 9
            assert wal.committed_contacts == 2
            wal.append(CONTACTS[2:])
            wal.commit()
        scan = scan_wal(path)
        assert scan.contacts == CONTACTS and not scan.torn

    def test_open_refuses_dead_header(self, tmp_path):
        path = tmp_path / "g.chrono.wal"
        path.write_bytes(b"\x00" * WAL_HEADER_SIZE)
        with pytest.raises(FormatError):
            WriteAheadLog.open(path)

    def test_scan_never_raises_on_garbage(self):
        for blob in (b"", b"\x00", b"CWAL", b"\xff" * 200):
            scan = scan_wal_bytes(blob)
            assert scan.contacts == []
            assert scan.header is None or blob[:4] == WAL_MAGIC


#: A CRC-valid record of type 2 (an old compaction marker's shape).
TYPE_2_RECORD = _frame(struct.pack("<BQI", 2, 1234, 0xDEAD))


class TestUnknownRecordType:
    """A batch is the only record type; any other is damage at its offset."""

    def test_scan_stops_at_a_crc_valid_type_2_record(self, tmp_path):
        good = _make_wal(tmp_path, batches=[CONTACTS[:1]]).read_bytes()
        rest = TYPE_2_RECORD + encode_batch(CONTACTS[1:])
        scan = scan_wal_bytes(good + rest)
        assert scan.contacts == CONTACTS[:1]
        assert scan.valid_end == len(good)
        assert scan.dropped_bytes == len(rest)
        assert scan.errors == [
            f"<wal>: unknown record type 2 at byte {len(good)}"
        ]

    def test_store_tail_serves_the_batches_before_it(self, tmp_path):
        from repro.storage.segments import WAL_TAIL_NAME, SegmentStore

        directory = tmp_path / "s"
        with SegmentStore.create(directory, GraphKind.POINT) as store:
            store.ingest(CONTACTS[:2])
        tail = directory / WAL_TAIL_NAME
        good = tail.read_bytes()
        rest = TYPE_2_RECORD + encode_batch(CONTACTS[2:])
        tail.write_bytes(good + rest)
        with SegmentStore.open(directory, read_only=True) as store:
            served = sorted(store.graph.iter_contacts())
            events = store.health().events
        assert served == sorted(CONTACTS[:2])
        assert any(f"{len(rest)} trailing bytes" in e for e in events)
        assert any(
            f"unknown record type 2 at byte {len(good)}" in e for e in events
        )
        assert tail.read_bytes() == good + rest  # read-only: not repaired
