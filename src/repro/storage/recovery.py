"""One-time conversion of a legacy ``base.chrono`` + ``.wal`` pair into a store.

Before the segment store (:mod:`repro.storage.segments`) became the one
way a graph grows, incremental ingest appended to a WAL bound to a single
``.chrono`` base snapshot.  :func:`convert_legacy_pair` reads such a pair
once and writes its contents as a one-segment store; it never modifies
the legacy files.

Binding and replay follow the pair's original contract:

* the WAL header names the exact base it extends (size + CRC32); a WAL
  bound to any other base raises
  :class:`repro.errors.GenerationMismatchError` before anything is
  written -- unless one of its compaction markers names the current base,
  in which case a compaction installed that base and crashed before
  resetting the log: the log is *superseded*, its records are already in
  the base, and the loss of the log is reported, not replayed;
* a torn tail -- the signature of a crash mid-commit -- is tolerated:
  replay stops at the last intact record and the dropped bytes are
  reported in the returned :class:`RecoveryReport`.

WAL contacts are already in stored time units, so base and WAL contacts go
through the seal's compress-stored path together, without re-bucketing.
"""

from __future__ import annotations

import dataclasses
import pathlib
import zlib
from typing import List, Union

from repro.errors import FormatError, GenerationMismatchError
from repro.storage.atomic import OS_FILESYSTEM, Filesystem
from repro.storage.wal import WalScan, scan_wal

__all__ = [
    "RecoveryReport",
    "default_wal_path",
    "convert_legacy_pair",
]

PathLike = Union[str, pathlib.Path]


def default_wal_path(base_path: PathLike) -> pathlib.Path:
    """The WAL that accompanies ``base_path`` (``<base>.wal``)."""
    base_path = pathlib.Path(base_path)
    return base_path.with_name(base_path.name + ".wal")


@dataclasses.dataclass
class RecoveryReport:
    """What converting a legacy pair recovered and lost.

    Mirrors :class:`repro.core.validate.SalvageReport`: ``ok`` means a
    clean conversion (nothing dropped, nothing suspicious), ``torn`` means
    a tail was truncated -- committed batches before it were still
    replayed in full.  ``generation`` is -1 when no WAL accompanies the
    base.
    """

    base_path: str
    wal_path: str
    generation: int = -1
    batches_replayed: int = 0
    contacts_replayed: int = 0
    dropped_bytes: int = 0
    superseded: bool = False
    errors: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Clean conversion: every WAL byte accounted for, nothing dropped."""
        return not self.errors and not self.superseded

    @property
    def torn(self) -> bool:
        """Whether a damaged tail was dropped during replay."""
        return self.dropped_bytes > 0

    def summary(self) -> str:
        """One line per fact, mirroring ``SalvageReport.summary()``."""
        if self.generation < 0:
            status = "clean (no WAL)"
        elif self.ok:
            status = "clean"
        elif self.superseded:
            status = "superseded WAL ignored"
        else:
            status = "recovered with loss"
        lines = [
            f"recovery of {self.base_path}: {status}",
            f"  wal: {self.wal_path} (generation {self.generation})",
            f"  replayed: {self.contacts_replayed} contacts in "
            f"{self.batches_replayed} batches",
        ]
        if self.dropped_bytes:
            lines.append(f"  dropped: {self.dropped_bytes} trailing bytes")
        for err in self.errors:
            lines.append(f"  error: {err}")
        return "\n".join(lines)


def _bind_scan(
    scan: WalScan,
    base_blob: bytes,
    kind,
    wal_name: str,
    report: RecoveryReport,
) -> bool:
    """Decide whether the scanned WAL may be replayed onto this base.

    Returns True to replay; flags ``report.superseded`` (marker names the
    current snapshot) instead when a compaction completed its snapshot
    install but crashed before resetting the log; raises
    :class:`GenerationMismatchError` for any other pairing.
    """
    header = scan.header
    assert header is not None
    base_size = len(base_blob)
    base_crc = zlib.crc32(base_blob)
    if header.base_size == base_size and header.base_crc == base_crc:
        if header.kind is not kind:
            raise GenerationMismatchError(
                f"{wal_name}: WAL kind {header.kind.value} does not match "
                f"base kind {kind.value}"
            )
        return True
    for marker_size, marker_crc in scan.markers:
        if marker_size == base_size and marker_crc == base_crc:
            report.superseded = True
            report.errors.append(
                f"{wal_name}: log precedes the current snapshot "
                "(compaction interrupted after installing it); "
                "records ignored -- they are already in the base"
            )
            return False
    raise GenerationMismatchError(
        f"{wal_name}: WAL is bound to a different base snapshot "
        f"(header says {header.base_size} bytes / crc 0x{header.base_crc:08x}, "
        f"base is {base_size} bytes / crc 0x{base_crc:08x})"
    )


def convert_legacy_pair(
    base_path: PathLike,
    wal_path: PathLike,
    store_dir: PathLike,
    *,
    fs: Filesystem = OS_FILESYSTEM,
) -> RecoveryReport:
    """Write base + replayed WAL as a new one-segment store at ``store_dir``.

    A missing ``wal_path`` converts the base alone (``generation == -1``
    in the report).  Raises from ``FormatError`` when the base container
    or the WAL header is unusable or the WAL is bound to another base
    (:class:`GenerationMismatchError`) -- always before ``store_dir`` is
    created -- and ``FileExistsError`` when ``store_dir`` already holds a
    store.  The legacy files are only read.
    """
    from repro.core.serialize import load_compressed_bytes
    from repro.storage.segments import create_sealed_store

    base_path = pathlib.Path(base_path)
    wal_path = pathlib.Path(wal_path)
    base_blob = base_path.read_bytes()
    graph = load_compressed_bytes(base_blob, source=str(base_path))
    report = RecoveryReport(base_path=str(base_path), wal_path=str(wal_path))
    contacts = list(graph.iter_contacts())
    if wal_path.exists():
        scan = scan_wal(wal_path)
        if scan.header is None:
            raise FormatError(
                scan.errors[0] if scan.errors
                else f"{wal_path}: unreadable WAL header"
            )
        report.generation = scan.header.generation
        if _bind_scan(scan, base_blob, graph.kind, str(wal_path), report):
            contacts.extend(scan.contacts)
            report.batches_replayed = len(scan.batches)
            report.contacts_replayed = len(scan.contacts)
            report.dropped_bytes = scan.dropped_bytes
            report.errors.extend(scan.errors)
    create_sealed_store(store_dir, graph.kind, graph.config, contacts, fs=fs)
    return report
