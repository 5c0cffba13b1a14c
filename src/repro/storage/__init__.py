"""Crash-safe persistence: atomic writes, the ingest WAL, and the segment store.

* :mod:`repro.storage.atomic` -- the one sanctioned write path for every
  artefact (temp file + fsync + rename), with an injectable filesystem
  for fault injection and retry-with-backoff for transient errors.
* :mod:`repro.storage.wal` -- the append-only, CRC32-guarded contact log
  behind a store's hot tail (``wal.tail``), bound to the store by a
  generation header.
* :mod:`repro.storage.segments` -- the LSM-style segmented store, the one
  way a graph grows: immutable time-partitioned segments under a
  CRC-guarded generation-numbered manifest, a hot WAL tail, a
  :class:`SegmentedChronoGraph` query facade, and per-segment quarantine
  surfaced in a :class:`HealthReport`.
* :mod:`repro.storage.compactor` -- the background merge thread plus the
  watchdog that degrades ingestion instead of crashing when it wedges.

``wal``/``segments``/``compactor`` names resolve lazily:
:mod:`repro.core.serialize` imports :mod:`repro.storage.atomic` for
durable saves, while the higher layers import the serializer back --
deferring the heavy half keeps the cycle open-ended instead of circular.
"""

from repro.storage.atomic import (
    DEFAULT_RETRY,
    NO_RETRY,
    OS_FILESYSTEM,
    TRANSIENT_ERRNOS,
    Filesystem,
    RetryPolicy,
    atomic_write_bytes,
    atomic_write_text,
)

__all__ = [
    # atomic (eager)
    "Filesystem",
    "OS_FILESYSTEM",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "NO_RETRY",
    "TRANSIENT_ERRNOS",
    "atomic_write_bytes",
    "atomic_write_text",
    # wal (lazy)
    "WalHeader",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
    "scan_wal_bytes",
    "repair_torn_tail",
    # segments (lazy)
    "Manifest",
    "SegmentInfo",
    "SegmentStore",
    "SegmentedChronoGraph",
    "StorePolicy",
    "QuarantineEntry",
    "HealthReport",
    "BackpressureError",
    "StoreClosedError",
    "is_segment_store",
    # compactor (lazy)
    "Compactor",
]

_WAL_NAMES = {
    "WalHeader", "WalScan", "WriteAheadLog",
    "scan_wal", "scan_wal_bytes", "repair_torn_tail",
}
_SEGMENT_NAMES = {
    "Manifest", "SegmentInfo", "SegmentStore", "SegmentedChronoGraph",
    "StorePolicy", "QuarantineEntry", "HealthReport",
    "BackpressureError", "StoreClosedError", "is_segment_store",
}


def __getattr__(name: str):
    if name in _WAL_NAMES:
        from repro.storage import wal

        return getattr(wal, name)
    if name in _SEGMENT_NAMES:
        from repro.storage import segments

        return getattr(segments, name)
    if name == "Compactor":
        from repro.storage.compactor import Compactor

        return Compactor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
