"""Append-only, checksummed write-ahead log for incoming contacts.

The incremental setting of the paper (Section III-A: contacts arrive over
time and only ever extend the structure) needs a durable ingest path that
does not recompress the whole graph per contact.  The WAL provides it:
contacts are appended as length-prefixed, CRC32-guarded batch records to
the hot tail of a segment store (:mod:`repro.storage.segments`).

Layout (little-endian; see FORMAT.md):

* a fixed 32-byte header: magic ``CWAL``, version, graph kind, flags, a
  **generation** counter, and ``base_size``/``base_crc`` fields that the
  store fills from the generation, so a log that does not belong to the
  store is recognised on open;
* zero or more **batch** records, each
  ``u32 length | payload | u32 crc32(payload)`` (the same guard discipline
  as the VERSION 2 container sections), whose payload is the type byte
  ``1``, ``u32 count``, then ``count`` contacts as
  ``u64 u, u64 v, i64 time, i64 duration`` -- one committed append.  Any
  other type byte is damage, reported at its byte offset.

Durability contract: :meth:`WriteAheadLog.append` only buffers;
:meth:`WriteAheadLog.commit` writes the batch in one append and fsyncs.
A crash mid-commit leaves a torn tail that :func:`scan_wal` truncates at
the first bad CRC -- committed (fsynced) batches are never lost, and
uncommitted contacts are lost *wholly*, never partially applied.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import struct
import zlib
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    FormatError,
    GraphDomainError,
    LimitExceededError,
    TruncatedContainerError,
    UnsupportedVersionError,
)
from repro.graph.model import Contact, GraphKind
from repro.storage.atomic import (
    DEFAULT_RETRY,
    OS_FILESYSTEM,
    Filesystem,
    RetryPolicy,
    atomic_write_bytes,
)

__all__ = [
    "WAL_MAGIC",
    "WAL_VERSION",
    "WAL_HEADER_SIZE",
    "WalHeader",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
    "scan_wal_bytes",
    "repair_torn_tail",
]

WAL_MAGIC = b"CWAL"
WAL_VERSION = 1

_HEADER = struct.Struct("<4sBBHQQI")  # magic, version, kind, flags, gen, base_size, base_crc
_HEADER_CRC = struct.Struct("<I")
WAL_HEADER_SIZE = _HEADER.size + _HEADER_CRC.size  # 32 bytes

_RECORD_LEN = struct.Struct("<I")
_RECORD_CRC = struct.Struct("<I")
_BATCH_COUNT = struct.Struct("<I")
_CONTACT = struct.Struct("<QQqq")

#: The one record payload type.
_REC_BATCH = 1

#: Decode limits, mirroring the container's in :mod:`repro.core.serialize`:
#: a flipped length or label byte must never trigger a huge allocation or
#: let ``num_nodes`` explode into an unbounded query loop.
_MAX_RECORD_BYTES = 1 << 31
_MAX_LABEL = 1 << 40

_KIND_CODES = {GraphKind.POINT: 0, GraphKind.INTERVAL: 1, GraphKind.INCREMENTAL: 2}
_KIND_FROM_CODE = {v: k for k, v in _KIND_CODES.items()}

PathLike = Union[str, pathlib.Path]
ContactRow = Union[Contact, Tuple[int, ...]]


@dataclasses.dataclass(frozen=True)
class WalHeader:
    """The generation header tying a WAL to the store tail it extends."""

    kind: GraphKind
    generation: int
    base_size: int
    base_crc: int

    def to_bytes(self) -> bytes:
        """Serialise the header with its trailing CRC32 (32 bytes)."""
        body = _HEADER.pack(
            WAL_MAGIC,
            WAL_VERSION,
            _KIND_CODES[self.kind],
            0,
            self.generation,
            self.base_size,
            self.base_crc,
        )
        return body + _HEADER_CRC.pack(zlib.crc32(body))

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "<wal>") -> "WalHeader":
        """Parse and verify a header; raises from ``FormatError`` on any flaw."""
        if len(data) < WAL_HEADER_SIZE:
            raise TruncatedContainerError(
                f"{source}: truncated WAL header "
                f"({len(data)} of {WAL_HEADER_SIZE} bytes)"
            )
        body = data[: _HEADER.size]
        (crc,) = _HEADER_CRC.unpack_from(data, _HEADER.size)
        if zlib.crc32(body) != crc:
            raise ChecksumMismatchError(f"{source}: WAL header checksum mismatch")
        magic, version, kind_code, flags, gen, base_size, base_crc = (
            _HEADER.unpack(body)
        )
        if magic != WAL_MAGIC:
            raise FormatError(f"{source}: not a ChronoGraph WAL (bad magic)")
        if version != WAL_VERSION:
            raise UnsupportedVersionError(
                f"{source}: unsupported WAL version {version}"
            )
        if flags != 0:
            raise UnsupportedVersionError(
                f"{source}: unknown WAL flags 0x{flags:04x}"
            )
        try:
            kind = _KIND_FROM_CODE[kind_code]
        except KeyError:
            raise CorruptStreamError(
                f"{source}: unknown graph kind code {kind_code}"
            ) from None
        return cls(kind=kind, generation=gen, base_size=base_size, base_crc=base_crc)


def _frame(payload: bytes) -> bytes:
    return _RECORD_LEN.pack(len(payload)) + payload + _RECORD_CRC.pack(
        zlib.crc32(payload)
    )


def encode_batch(contacts: Sequence[Contact]) -> bytes:
    """One framed batch record for the given contacts."""
    parts = [struct.pack("<B", _REC_BATCH), _BATCH_COUNT.pack(len(contacts))]
    for c in contacts:
        parts.append(_CONTACT.pack(c.u, c.v, c.time, c.duration))
    return _frame(b"".join(parts))


def _parse_payload(
    payload: bytes, kind: GraphKind, source: str, offset: int
) -> List[Contact]:
    """Decode one batch record payload into its contacts.

    Raises from ``FormatError`` on structural damage (including any type
    byte but a batch's) so the scanner can truncate at this record.
    """
    if not payload:
        raise CorruptStreamError(f"{source}: empty record at byte {offset}")
    rec_type = payload[0]
    if rec_type != _REC_BATCH:
        raise CorruptStreamError(
            f"{source}: unknown record type {rec_type} at byte {offset}"
        )
    if len(payload) < 1 + _BATCH_COUNT.size:
        raise TruncatedContainerError(
            f"{source}: batch record at byte {offset} too short"
        )
    (count,) = _BATCH_COUNT.unpack_from(payload, 1)
    expected = 1 + _BATCH_COUNT.size + count * _CONTACT.size
    if expected != len(payload):
        raise CorruptStreamError(
            f"{source}: batch record at byte {offset} declares {count} "
            f"contacts but carries {len(payload)} payload bytes"
        )
    contacts: List[Contact] = []
    pos = 1 + _BATCH_COUNT.size
    for _ in range(count):
        u, v, time, duration = _CONTACT.unpack_from(payload, pos)
        pos += _CONTACT.size
        if u > _MAX_LABEL or v > _MAX_LABEL:
            raise LimitExceededError(
                f"{source}: contact label beyond {_MAX_LABEL} "
                f"at byte {offset}"
            )
        if duration < 0:
            raise CorruptStreamError(
                f"{source}: negative duration at byte {offset}"
            )
        if kind is not GraphKind.INTERVAL and duration:
            raise CorruptStreamError(
                f"{source}: {kind.value} contact with a duration "
                f"at byte {offset}"
            )
        contacts.append(Contact(u, v, time, duration))
    return contacts


@dataclasses.dataclass
class WalScan:
    """Everything a lenient front-to-back read of a WAL recovers.

    ``valid_end`` is the byte offset just past the last intact record;
    anything between it and ``file_size`` is a torn tail (or corruption)
    that replay drops -- :attr:`dropped_bytes` quantifies it and
    ``errors`` say why.  ``header`` is ``None`` only when the header
    itself did not survive, in which case nothing was recovered.
    """

    header: Optional[WalHeader]
    batches: List[List[Contact]]
    record_ends: List[int]
    valid_end: int
    file_size: int
    errors: List[str]

    @property
    def contacts(self) -> List[Contact]:
        """All committed contacts, in append order."""
        return [c for batch in self.batches for c in batch]

    @property
    def torn(self) -> bool:
        """Whether bytes past the last intact record were dropped."""
        return self.valid_end < self.file_size

    @property
    def dropped_bytes(self) -> int:
        """Size of the dropped tail."""
        return self.file_size - self.valid_end


def scan_wal_bytes(data: bytes, source: str = "<wal>") -> WalScan:
    """Lenient scan: recover every intact record, stop at the first flaw.

    Never raises -- a corrupt header yields an empty scan with errors,
    a torn or corrupt record truncates the scan at the previous record
    boundary, matching the recovery contract ("lose at most the
    uncommitted tail").
    """
    errors: List[str] = []
    try:
        header = WalHeader.from_bytes(data, source)
    except FormatError as exc:
        errors.append(str(exc))
        return WalScan(
            header=None, batches=[], record_ends=[],
            valid_end=0, file_size=len(data), errors=errors,
        )
    batches: List[List[Contact]] = []
    record_ends: List[int] = []
    pos = WAL_HEADER_SIZE
    valid_end = pos
    size = len(data)
    while pos < size:
        if pos + _RECORD_LEN.size > size:
            errors.append(f"{source}: torn record length at byte {pos}")
            break
        (length,) = _RECORD_LEN.unpack_from(data, pos)
        if length > _MAX_RECORD_BYTES:
            errors.append(
                f"{source}: record at byte {pos} declares {length} bytes "
                f"(limit {_MAX_RECORD_BYTES})"
            )
            break
        end = pos + _RECORD_LEN.size + length + _RECORD_CRC.size
        if end > size:
            errors.append(f"{source}: torn record at byte {pos}")
            break
        payload = data[pos + _RECORD_LEN.size : pos + _RECORD_LEN.size + length]
        (crc,) = _RECORD_CRC.unpack_from(data, end - _RECORD_CRC.size)
        if zlib.crc32(payload) != crc:
            errors.append(f"{source}: record checksum mismatch at byte {pos}")
            break
        try:
            batches.append(_parse_payload(payload, header.kind, source, pos))
        except FormatError as exc:
            errors.append(str(exc))
            break
        pos = end
        valid_end = end
        record_ends.append(end)
    return WalScan(
        header=header, batches=batches,
        record_ends=record_ends, valid_end=valid_end,
        file_size=size, errors=errors,
    )


def scan_wal(path: PathLike, source: Optional[str] = None) -> WalScan:
    """File variant of :func:`scan_wal_bytes`."""
    path = pathlib.Path(path)
    return scan_wal_bytes(path.read_bytes(), source or str(path))


def repair_torn_tail(
    path: PathLike, scan: WalScan, *, fs: Filesystem = OS_FILESYSTEM
) -> int:
    """Truncate a torn tail in place; returns bytes removed.

    Safe because it only ever *removes* bytes past the last intact
    record, which replay ignores anyway; the truncation is fsynced.
    """
    if not scan.torn or scan.header is None:
        return 0
    dropped = scan.dropped_bytes
    fd = fs.open(str(path), os.O_RDWR)
    try:
        fs.truncate(fd, scan.valid_end)
        fs.fsync(fd)
    finally:
        fs.close(fd)
    return dropped


def _as_contact(row: ContactRow) -> Contact:
    if isinstance(row, Contact):
        return row
    return Contact(*row)


class WriteAheadLog:
    """Writer handle over a WAL file.

    :meth:`append` buffers contacts in memory; :meth:`commit` writes them
    as one batch record in a single append and fsyncs -- the durability
    boundary.  Opening an existing log first scans it and truncates any
    torn tail (recorded in :attr:`repaired_bytes`), so fresh appends are
    always reachable by replay.
    """

    def __init__(
        self,
        path: pathlib.Path,
        header: WalHeader,
        fd: int,
        *,
        fs: Filesystem,
        repaired_bytes: int = 0,
        committed_contacts: int = 0,
    ) -> None:
        self.path = path
        self.header = header
        self.repaired_bytes = repaired_bytes
        self.committed_contacts = committed_contacts
        self._fd = fd
        self._fs = fs
        self._pending: List[Contact] = []

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: PathLike,
        header: WalHeader,
        *,
        fs: Filesystem = OS_FILESYSTEM,
        retry: RetryPolicy = DEFAULT_RETRY,
    ) -> "WriteAheadLog":
        """Atomically materialise a fresh (empty) log and open it."""
        path = pathlib.Path(path)
        atomic_write_bytes(path, header.to_bytes(), fs=fs, retry=retry)
        fd = fs.open(str(path), os.O_WRONLY | os.O_APPEND)
        return cls(path, header, fd, fs=fs)

    @classmethod
    def open(
        cls, path: PathLike, *, fs: Filesystem = OS_FILESYSTEM
    ) -> "WriteAheadLog":
        """Open an existing log for appending, repairing any torn tail.

        Raises from ``FormatError`` when the header is unreadable -- an
        unidentifiable log must not be silently overwritten or extended.
        """
        path = pathlib.Path(path)
        scan = scan_wal(path)
        if scan.header is None:
            raise FormatError(
                scan.errors[0] if scan.errors
                else f"{path}: unreadable WAL header"
            )
        repaired = repair_torn_tail(path, scan, fs=fs)
        fd = fs.open(str(path), os.O_WRONLY | os.O_APPEND)
        return cls(
            path, scan.header, fd, fs=fs,
            repaired_bytes=repaired,
            committed_contacts=sum(len(b) for b in scan.batches),
        )

    def close(self) -> None:
        """Release the descriptor; uncommitted contacts are discarded."""
        if self._fd is not None:
            self._fs.close(self._fd)
            self._fd = None
        self._pending = []

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- appending -----------------------------------------------------------

    @property
    def pending_contacts(self) -> int:
        """Contacts buffered but not yet committed (not on disk)."""
        return len(self._pending)

    def append(self, contacts: Iterable[ContactRow]) -> int:
        """Buffer contacts for the next :meth:`commit`; returns how many.

        Validation happens here, not at commit, and covers the whole call
        before anything is buffered: a bad row raises
        :class:`repro.errors.GraphDomainError` and buffers none of the
        call's rows, so it never poisons the next commit.
        """
        kind = self.header.kind
        rows = [_as_contact(row) for row in contacts]
        for c in rows:
            if c.u < 0 or c.v < 0:
                raise GraphDomainError(f"negative node label in {c}")
            if c.u > _MAX_LABEL or c.v > _MAX_LABEL:
                raise GraphDomainError(f"node label beyond {_MAX_LABEL} in {c}")
            if c.duration < 0:
                raise GraphDomainError(f"negative duration in {c}")
            if kind is not GraphKind.INTERVAL and c.duration:
                raise GraphDomainError(
                    f"{kind.value} graphs cannot carry durations: {c}"
                )
        self._pending.extend(rows)
        return len(rows)

    def _write_all(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            written = self._fs.write(self._fd, view)
            view = view[written:]

    def commit(self) -> int:
        """Write buffered contacts as one batch record and fsync.

        Returns the number of contacts made durable.  The record lands in
        a single append; a crash mid-write leaves a torn tail the next
        open truncates, so a batch is only ever wholly present or wholly
        absent.
        """
        if not self._pending:
            return 0
        batch = self._pending
        self._write_all(encode_batch(batch))
        self._fs.fsync(self._fd)
        self._pending = []
        self.committed_contacts += len(batch)
        return len(batch)
