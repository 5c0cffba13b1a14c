"""Time-partitioned segment store: LSM-style streaming ingest for ChronoGraph.

A compressed graph is built once and never changes; the store is the one
way a graph grows.  It provides the structure continuous ingestion needs:

* a **store directory** holding immutable compressed ``.chrono`` segments
  (each a time partition of the contact stream), a hot WAL tail for the
  newest contacts, and a CRC-guarded, atomically-replaced ``MANIFEST``
  naming exactly which files constitute the store;
* a :class:`SegmentedChronoGraph` query view, the many-part case of
  :class:`repro.core.engine.QueryEngine`: it plans each window query
  across segments by time-range overlap, asks the planned segments and
  the tail for a node's records or their walks, and the engine merges
  them (every contact lives in exactly one part, so the union is exact);
* crash-safe **seal** and **compaction** protocols built on
  ``write-new -> fsync -> manifest swap -> delayed delete``: at every
  crash point the manifest references only complete, fsynced files, so
  recovery either restores bit-identical state or reports what it
  quarantined -- never silently wrong answers.  Both encode node records
  through the encoder's records core
  (:func:`repro.core.encoder.encode_records`), never contacts: a seal
  encodes the tail's walk, one record per node, and a compaction merges
  the two segments' decoded records node by node, gathering the manifest
  entry's fields in the same pass (:class:`_SegmentBuilder`);
* per-segment **quarantine**: a segment that fails its CRC binding or
  strict load on open is isolated (queries degrade to the remaining
  segments) and surfaced in a :class:`HealthReport` instead of poisoning
  the store.

The background merge policy lives in :mod:`repro.storage.compactor`; this
module owns the on-disk protocol and the query plane.

Concurrency model: readers grab the immutable published view
(:attr:`SegmentStore.graph`) with a single attribute read -- they never
block.  All mutations (ingest commits, seals, compaction swaps) serialise
on a writer-writer commit guard that readers never touch, so holding it
across the durable manifest write is safe by construction: the
reader-visible swap is still one atomic reference assignment, and every
swap publishes a new view -- a view once read never changes.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import os
import pathlib
import struct
import threading
import zlib
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.config import ChronoGraphConfig
from repro.core.encoder import Record, encode_records, resolve_zeta_k
from repro.core.engine import NodeRecord, QueryEngine, distinct_of, merged_record
from repro.core.serialize import dumps_compressed
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    FormatError,
    GenerationMismatchError,
    QueryInterrupted,
    RejectedError,
    TruncatedContainerError,
    UnsupportedVersionError,
)
from repro.graph.model import Contact, GraphKind, max_label
from repro.runtime.breaker import BreakerBoard
from repro.storage.atomic import (
    DEFAULT_RETRY,
    OS_FILESYSTEM,
    Filesystem,
    RetryPolicy,
    atomic_write_bytes,
)
from repro.storage.wal import WalHeader, WriteAheadLog, repair_torn_tail, scan_wal

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "WAL_TAIL_NAME",
    "BackpressureError",
    "StoreClosedError",
    "StorePolicy",
    "SegmentInfo",
    "Manifest",
    "QuarantineEntry",
    "HealthReport",
    "SegmentedChronoGraph",
    "SegmentStore",
    "is_segment_store",
]

PathLike = Union[str, pathlib.Path]
ContactRow = Union[Contact, Tuple[int, ...]]

MANIFEST_NAME = "MANIFEST"
MANIFEST_MAGIC = b"CMAN"
MANIFEST_VERSION = 1
WAL_TAIL_NAME = "wal.tail"

_MANIFEST_FRAME = struct.Struct("<4sBI")
_MANIFEST_CRC = struct.Struct("<I")

#: Hard ceiling on the manifest JSON payload: a flipped length byte must
#: never trigger a proportional allocation (same discipline as DecodeLimits).
_MAX_MANIFEST_BYTES = 1 << 26

_KIND_NAMES = {k.value: k for k in GraphKind}

#: Sentinel distinguishing "part skipped" from any real sub-query result
#: (an empty list is a legitimate answer from a healthy part).
_PART_SKIPPED = object()


class BackpressureError(RuntimeError):
    """Raised when the hot tail is full and sealing is suspended.

    Happens only in degraded mode (dead or wedged compactor): the segment
    set is read-only, the tail keeps absorbing writes up to
    ``StorePolicy.backpressure_contacts``, and past that the store pushes
    back on the producer instead of growing without bound or crashing.

    Carries structured fields so producers can react without parsing the
    message: ``tail_size`` (committed contacts currently in the tail),
    ``cap`` (the policy bound that was hit) and ``retry_after`` (suggested
    seconds before retrying -- the compactor heartbeat timeout, since
    nothing can drain the tail sooner than a compactor state change).
    """

    def __init__(
        self,
        message: str,
        *,
        tail_size: Optional[int] = None,
        cap: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        """Attach the tail size, the cap it hit and a retry-after hint."""
        super().__init__(message)
        self.tail_size = tail_size
        self.cap = cap
        self.retry_after = retry_after


class StoreClosedError(RuntimeError):
    """Raised when ingesting into or sealing a closed store."""


@dataclasses.dataclass(frozen=True)
class StorePolicy:
    """Tuning knobs of the segmented store.

    ``seal_contacts`` is the tail size that triggers sealing into a fresh
    segment; ``max_segments`` is the segment count past which the
    compactor merges adjacent pairs; ``backpressure_contacts`` is the hard
    tail bound enforced while degraded; ``compactor_timeout`` is the
    heartbeat age (seconds) past which an attached compactor counts as
    wedged.
    """

    seal_contacts: int = 4096
    max_segments: int = 8
    backpressure_contacts: int = 65536
    compactor_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.seal_contacts < 1:
            raise ValueError(f"seal_contacts must be >= 1, got {self.seal_contacts}")
        if self.max_segments < 1:
            raise ValueError(f"max_segments must be >= 1, got {self.max_segments}")
        if self.backpressure_contacts < self.seal_contacts:
            raise ValueError(
                "backpressure_contacts must be >= seal_contacts "
                f"({self.backpressure_contacts} < {self.seal_contacts})"
            )


@dataclasses.dataclass(frozen=True)
class SegmentInfo:
    """One immutable segment as the manifest describes it.

    ``size``/``crc`` bind the manifest entry to the exact file bytes (the
    same discipline as the WAL's base binding); the time fields drive
    query planning: ``t_min``/``t_max`` bound the contact timestamps and
    ``t_end_max`` bounds ``t + duration`` so interval activity that
    outlives ``t_max`` still plans correctly.
    """

    name: str
    seq: int
    size: int
    crc: int
    contacts: int
    nodes: int
    t_min: int
    t_max: int
    t_end_max: int

    def activity_bounds(self, kind: GraphKind) -> Tuple[int, float]:
        """First and last instant any contact of this segment can be active.

        Every contact is active at some instant of ``[lo, hi]`` or never:
        point contacts at ``t``, interval contacts on ``[t, t + d)`` (so up
        to ``t_end_max - 1``), incremental edges from ``t`` on forever
        (``hi`` is infinite).  These bounds are the whole query planner.
        """
        if kind is GraphKind.INCREMENTAL:
            return self.t_min, math.inf
        if kind is GraphKind.INTERVAL:
            return self.t_min, self.t_end_max - 1
        return self.t_min, self.t_max

    def overlaps(self, kind: GraphKind, t_start: int, t_end: int) -> bool:
        """Whether any contact of this segment can be active in the window.

        Must be a superset test: a segment this rejects may not contain an
        active contact for any graph kind's activity predicate (FORMAT.md,
        "Query window semantics"); a segment it accepts is simply queried.
        """
        lo, hi = self.activity_bounds(kind)
        return t_start <= t_end and lo <= t_end and t_start <= hi

    def to_json(self) -> Dict[str, int]:
        """Plain-dict form for the manifest payload."""
        return dataclasses.asdict(self)


def _segment_name(seq: int) -> str:
    return f"seg-{seq:08d}.chrono"


def _wal_binding(generation: int) -> Tuple[int, int]:
    """Synthetic (base_size, base_crc) binding a tail WAL to the store.

    The WAL header carries ``base_size``/``base_crc`` fields; the segmented
    store has no single base file for them to name, so the tail binds to
    its manifest-recorded generation instead: both sides of the pair are
    derived from the generation alone, and the manifest says which
    generation is current.  A WAL whose binding disagrees with its own
    generation field was written by something else entirely and is
    quarantined.
    """
    tag = f"chrono-segment-store:wal:{generation}".encode("ascii")
    return generation, zlib.crc32(tag)


def _require(cond: bool, source: str, message: str) -> None:
    if not cond:
        raise CorruptStreamError(f"{source}: {message}")


@dataclasses.dataclass(frozen=True)
class Manifest:
    """The generation-numbered list of files that constitute the store.

    Serialised as a small CRC-guarded binary frame around a JSON payload
    (FORMAT.md, "Segmented store"); always replaced atomically, never
    edited in place.  ``generation`` increases by one per manifest swap;
    ``wal_generation`` increases only when the tail log is reset (seal);
    ``next_seq`` is the lowest segment sequence number never yet used, so
    writers never reuse a file name whose delete may still be pending.
    """

    generation: int
    kind: GraphKind
    config: ChronoGraphConfig
    wal_generation: int
    next_seq: int
    segments: Tuple[SegmentInfo, ...]

    def to_bytes(self) -> bytes:
        """Serialise: magic, version, length-prefixed JSON, CRC32."""
        payload = json.dumps(
            {
                "generation": self.generation,
                "kind": self.kind.value,
                "config": dataclasses.asdict(self.config),
                "wal_generation": self.wal_generation,
                "next_seq": self.next_seq,
                "segments": [s.to_json() for s in self.segments],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        return (
            _MANIFEST_FRAME.pack(MANIFEST_MAGIC, MANIFEST_VERSION, len(payload))
            + payload
            + _MANIFEST_CRC.pack(zlib.crc32(payload))
        )

    @classmethod
    def from_bytes(cls, data: bytes, source: str = "<manifest>") -> "Manifest":
        """Parse and verify a manifest; raises from ``FormatError`` on any flaw."""
        if len(data) < _MANIFEST_FRAME.size:
            raise TruncatedContainerError(
                f"{source}: truncated manifest frame "
                f"({len(data)} of {_MANIFEST_FRAME.size}+ bytes)"
            )
        magic, version, length = _MANIFEST_FRAME.unpack_from(data, 0)
        if magic != MANIFEST_MAGIC:
            raise FormatError(f"{source}: not a ChronoGraph segment manifest (bad magic)")
        if version != MANIFEST_VERSION:
            raise UnsupportedVersionError(
                f"{source}: unsupported manifest version {version}"
            )
        if length > _MAX_MANIFEST_BYTES:
            raise CorruptStreamError(
                f"{source}: manifest declares {length} payload bytes "
                f"(limit {_MAX_MANIFEST_BYTES})"
            )
        end = _MANIFEST_FRAME.size + length
        if end + _MANIFEST_CRC.size > len(data):
            raise TruncatedContainerError(f"{source}: truncated manifest payload")
        if end + _MANIFEST_CRC.size != len(data):
            raise CorruptStreamError(f"{source}: trailing bytes after manifest")
        payload = data[_MANIFEST_FRAME.size : end]
        (crc,) = _MANIFEST_CRC.unpack_from(data, end)
        if zlib.crc32(payload) != crc:
            raise ChecksumMismatchError(f"{source}: manifest checksum mismatch")
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CorruptStreamError(
                f"{source}: manifest payload is not valid JSON: {exc}"
            ) from exc
        return cls._from_json(doc, source)

    @classmethod
    def _from_json(cls, doc: object, source: str) -> "Manifest":
        _require(isinstance(doc, dict), source, "manifest payload is not an object")
        assert isinstance(doc, dict)
        for key in ("generation", "wal_generation", "next_seq"):
            value = doc.get(key)
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                source,
                f"manifest field {key!r} must be a non-negative integer",
            )
        kind = _KIND_NAMES.get(doc.get("kind"))
        _require(kind is not None, source, f"unknown graph kind {doc.get('kind')!r}")
        assert kind is not None
        try:
            config = ChronoGraphConfig(**doc.get("config", {}))
        except (TypeError, ValueError) as exc:
            raise CorruptStreamError(
                f"{source}: manifest config is invalid: {exc}"
            ) from exc
        raw_segments = doc.get("segments")
        _require(isinstance(raw_segments, list), source, "manifest segments must be a list")
        segments: List[SegmentInfo] = []
        seen_names = set()
        for i, raw in enumerate(raw_segments):
            segments.append(cls._segment_from_json(raw, i, source))
            info = segments[-1]
            _require(info.name not in seen_names, source, f"duplicate segment {info.name!r}")
            seen_names.add(info.name)
            _require(
                info.seq < doc["next_seq"],
                source,
                f"segment {info.name!r} has seq {info.seq} >= next_seq {doc['next_seq']}",
            )
        return cls(
            generation=doc["generation"],
            kind=kind,
            config=config,
            wal_generation=doc["wal_generation"],
            next_seq=doc["next_seq"],
            segments=tuple(segments),
        )

    @staticmethod
    def _segment_from_json(raw: object, index: int, source: str) -> SegmentInfo:
        _require(isinstance(raw, dict), source, f"segment #{index} is not an object")
        assert isinstance(raw, dict)
        for key in ("seq", "size", "crc", "contacts", "nodes"):
            value = raw.get(key)
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= 0,
                source,
                f"segment #{index} field {key!r} must be a non-negative integer",
            )
        for key in ("t_min", "t_max", "t_end_max"):
            value = raw.get(key)
            _require(
                isinstance(value, int) and not isinstance(value, bool),
                source,
                f"segment #{index} field {key!r} must be an integer",
            )
        name = raw.get("name")
        _require(isinstance(name, str), source, f"segment #{index} name must be a string")
        assert isinstance(name, str)
        # A manifest is untrusted input: a hostile name must not escape the
        # store directory or collide with the store's own bookkeeping files.
        _require(
            name == os.path.basename(name)
            and name not in ("", ".", "..", MANIFEST_NAME)
            and not name.startswith("wal."),
            source,
            f"segment #{index} has an unsafe file name {name!r}",
        )
        _require(raw["contacts"] > 0, source, f"segment {name!r} declares no contacts")
        _require(
            raw["t_min"] <= raw["t_max"] <= raw["t_end_max"],
            source,
            f"segment {name!r} has an inverted time range",
        )
        return SegmentInfo(
            name=name,
            seq=raw["seq"],
            size=raw["size"],
            crc=raw["crc"],
            contacts=raw["contacts"],
            nodes=raw["nodes"],
            t_min=raw["t_min"],
            t_max=raw["t_max"],
            t_end_max=raw["t_end_max"],
        )


@dataclasses.dataclass(frozen=True)
class QuarantineEntry:
    """One isolated file: why it was pulled from service, what salvage saw."""

    name: str
    reason: str
    salvaged_nodes: int = 0
    salvaged_contacts: int = 0


@dataclasses.dataclass
class HealthReport:
    """Operational truth of a store at one instant.

    ``ok`` means full service: nothing quarantined, no data-bearing file
    unaccounted for, and an attached compactor (if any) alive.  A degraded
    store still answers queries over the healthy segments plus the tail --
    the report says exactly what is missing from those answers.
    """

    path: str
    generation: int
    wal_generation: int
    segments: int
    segment_contacts: int
    tail_contacts: int
    quarantined: List[QuarantineEntry]
    compactor: str  # "none" | "healthy" | "wedged" | "dead"
    degraded: bool
    events: List[str]
    #: Per-segment circuit-breaker snapshots keyed by segment name
    #: (see :meth:`repro.runtime.breaker.CircuitBreaker.snapshot`).
    breakers: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict
    )

    @property
    def ok(self) -> bool:
        """Full service: no quarantine, no degradation."""
        return not self.quarantined and not self.degraded

    @property
    def total_contacts(self) -> int:
        """Contacts currently served (healthy segments + tail)."""
        return self.segment_contacts + self.tail_contacts

    def summary(self) -> str:
        """One line per fact, mirroring the other report types."""
        status = "ok" if self.ok else "degraded"
        lines = [
            f"store {self.path}: {status} (generation {self.generation})",
            f"  segments: {self.segments} ({self.segment_contacts} contacts)",
            f"  tail: {self.tail_contacts} contacts "
            f"(wal generation {self.wal_generation})",
            f"  compactor: {self.compactor}",
        ]
        for q in self.quarantined:
            lines.append(
                f"  quarantined: {q.name}: {q.reason} "
                f"(salvage saw {q.salvaged_nodes} nodes / "
                f"{q.salvaged_contacts} contacts)"
            )
        for name in sorted(self.breakers):
            snap = self.breakers[name]
            if snap.get("state") == "closed" and not snap.get("trips"):
                continue  # quiet breakers are noise in a one-line-per-fact report
            lines.append(
                f"  breaker: {name}: {snap.get('state')} "
                f"(trips {snap.get('trips')}, "
                f"retry after {snap.get('retry_after')}s)"
            )
        for event in self.events:
            lines.append(f"  event: {event}")
        return "\n".join(lines)


class _TailBuffer:
    """The hot tail: committed, unsealed contacts as one sorted tuple.

    Contacts are in stored time units and sorted by ``(u, v, time,
    duration)``, so a node's contacts are one bisected slice, and that
    slice's columns are its record.  The buffer is a part of
    :mod:`repro.core.engine`: it answers both part questions from those
    slices, and a seal encodes its walk.  It never changes:
    :meth:`extended` returns a new buffer, which is what makes a
    published view a snapshot.
    """

    __slots__ = ("kind", "contacts", "num_nodes", "_grouped")

    def __init__(
        self,
        kind: GraphKind,
        contacts: Tuple[Contact, ...] = (),
        num_nodes: int = 0,
    ) -> None:
        self.kind = kind
        self.contacts = contacts
        self.num_nodes = num_nodes
        self._grouped: Optional[Tuple[Tuple[int, NodeRecord], ...]] = None

    @property
    def num_contacts(self) -> int:
        """Contacts held by this buffer."""
        return len(self.contacts)

    def extended(self, batch: Sequence[Contact]) -> "_TailBuffer":
        """A new buffer holding this one's contacts plus ``batch``."""
        return _TailBuffer(
            self.kind,
            tuple(sorted(self.contacts + tuple(batch))),
            max(self.num_nodes, max_label(batch) + 1),
        )

    def _columns(self, run: Iterable[Contact]) -> NodeRecord:
        """The record of one node's run of contacts (empty when none)."""
        interval = self.kind is GraphKind.INTERVAL
        if not run:
            return (), (), (() if interval else None)
        _us, vs, ts, ds = zip(*run)
        return vs, ts, ds if interval else None

    def _record(self, u: int) -> NodeRecord:
        """Node ``u``'s record: its bisected slice of the tail."""
        contacts = self.contacts
        lo = bisect_left(contacts, (u,))
        return self._columns(contacts[lo:bisect_left(contacts, (u + 1,), lo)])

    def _walk(self, ctx=None, *, structure_only=False):
        """Yield ``(u, record)`` -- or ``(u, distinct labels)`` -- for each
        node with contacts, in id order, polling ``ctx`` once per node.
        The records are grouped on the first walk and kept (the buffer
        never changes; a racing first walk builds an equal tuple), so
        repeated scans build none (DESIGN.md §9)."""
        grouped = self._grouped
        if grouped is None:
            grouped = self._grouped = tuple(
                (u, self._columns(run))
                for u, run in itertools.groupby(self.contacts, operator.itemgetter(0))
            )
        for u, record in grouped:
            if ctx is not None:
                ctx.checkpoint()
            yield u, distinct_of(record[0]) if structure_only else record


def _read_walk(part, ctx, structure_only, label):
    """A part's whole walk, labelled, read inside its breaker's accounting."""
    return label(part._walk(ctx, structure_only=structure_only))


class SegmentedChronoGraph(QueryEngine):
    """Immutable query view over sealed segments plus the hot tail.

    The many-part view of :class:`repro.core.engine.QueryEngine`: its
    parts are the segments, each a :class:`CompressedChronoGraph`, and
    the tail buffer.  A window query reads the segments :meth:`plan`
    gives it, any other query every segment, and both read the tail; each
    contact lives in exactly one part, so the merge of per-part answers is
    exact.

    The view is immutable: its segment tuple and its tail buffer never
    change, so a reader holding one view gets the same answers however
    the store moves on (ingest, seal and compaction publish new views).

    Resource governance: every query accepts an optional
    ``ctx=`` :class:`repro.runtime.context.QueryContext` (deadline /
    cancel / budget polls reach down into per-part decode loops), and when
    the view carries a :class:`repro.runtime.breaker.BreakerBoard` each
    *segment* part is guarded by a named circuit breaker -- a part that
    repeatedly fails decode (or stalls past the deadline) trips open and
    is skipped, annotated on the context as a reported subset when the
    query consents via ``allow_partial`` and rejected otherwise.  The hot
    tail is never breakered: it is in-memory and the store's only write
    path.
    """

    def __init__(
        self,
        kind: GraphKind,
        segments: Tuple[Tuple[SegmentInfo, "object"], ...],
        tail: _TailBuffer,
        *,
        breakers: Optional[BreakerBoard] = None,
    ) -> None:
        self.kind = kind
        self._segments = segments
        self._tail = tail
        self._breakers = breakers
        # The view never changes, so its size and each segment's activity
        # bounds (the planner's whole input) are computed once, here.
        self._num_nodes = max(
            [tail.num_nodes] + [info.nodes for info, _graph in segments]
        )
        self._bounds = tuple(
            (info, graph) + info.activity_bounds(kind)
            for info, graph in segments
        )

    # -- size ----------------------------------------------------------------

    @property
    def segment_count(self) -> int:
        """Healthy (servable) segments in this view."""
        return len(self._segments)

    @property
    def num_nodes(self) -> int:
        """One past the highest node label any part knows about."""
        return self._num_nodes

    @property
    def num_contacts(self) -> int:
        """Total contacts served across segments and tail."""
        return sum(info.contacts for info, _ in self._segments) + self._tail.num_contacts

    # -- planning ------------------------------------------------------------

    def plan(self, t_start: int, t_end: int) -> List[SegmentInfo]:
        """The segments a window query must consult, in seal order.

        Exactly the segments whose :meth:`SegmentInfo.overlaps` holds.
        """
        return [
            info
            for info, _graph, lo, hi in self._bounds
            if t_start <= t_end and lo <= t_end and t_start <= hi
        ]

    def _planned(self, t_start, t_end, windows=None):
        """(name, part) of each part a query reads, in seal order.

        The segments :meth:`plan` gives the closed window ``[t_start,
        t_end]`` (every segment when ``t_start`` is None), or at least one
        of ``windows`` when given; then the tail, whose name ``None``
        exempts it from breakers in :meth:`_query_part`.
        """
        if windows is not None:
            parts = []
            for info, graph, lo, hi in self._bounds:
                for t0, t1 in windows:
                    if t0 <= t1 and lo <= t1 and t0 <= hi:
                        parts.append((info.name, graph))
                        break
        elif t_start is None:
            parts = [(info.name, graph) for info, graph in self._segments]
        else:
            parts = [
                (info.name, graph)
                for info, graph, lo, hi in self._bounds
                if t_start <= t_end and lo <= t_end and t_start <= hi
            ]
        parts.append((None, self._tail))
        return parts

    def _part_records(self, u, t_start, t_end, ctx, windows=None):
        """Yield u's record from each planned part that holds a contact of
        u, in part order, asking each part under its breaker only when the
        op pulls; an empty record adds nothing to any op, so it is dropped."""
        for name, part in self._planned(t_start, t_end, windows):
            if u < part.num_nodes:
                record = self._query_part(name, ctx, part._record, u)
                if record is not _PART_SKIPPED and record[0]:
                    yield record

    def _part_walks(self, t_start, t_end, ctx, structure_only, label=None):
        """Each planned part's walk, in part order: a scan's (labelled) read
        whole under the part's breaker, :meth:`iter_contacts`'s streamed
        outside any breaker, as its consumer pulls it (DESIGN.md §9)."""
        for name, part in self._planned(t_start, t_end):
            if label is None:
                yield part._walk(ctx, structure_only=structure_only)
                continue
            walk = self._query_part(
                name, ctx, _read_walk, part, ctx, structure_only, label
            )
            if walk is not _PART_SKIPPED:
                yield walk

    # -- breaker-guarded part execution --------------------------------------

    def _query_part(self, name, ctx, fn, *args):
        """Run ``fn(*args)`` -- one part question -- under part ``name``'s breaker.

        Returns the part's answer, or the module sentinel
        ``_PART_SKIPPED`` when the part was skipped (breaker open, or the
        part failed decode and the context consented to a partial
        answer).  Outcomes feed the breaker: a clean return records
        success; a :class:`FormatError` records failure (CRC/decode rot in
        that part's bytes); a :class:`QueryInterrupted` *also* records
        failure -- the deadline blew while inside this part, so the stall
        is attributed to it -- but always propagates, because the query's
        envelope is violated regardless of which part consumed it.

        A segment part's entry poll happens here, inside that accounting,
        so a deadline, cancel or budget that fired since the previous
        part is charged to this part's breaker whatever ``fn`` does.
        The in-memory tail is never polled, as it is never breakered.
        """
        board = self._breakers
        breaker = (
            board.get(name) if board is not None and name is not None else None
        )
        if breaker is not None and not breaker.allow():
            self._skip_part(
                name, ctx, f"breaker {breaker.state}", breaker.retry_after(),
                cause=None,
            )
            return _PART_SKIPPED
        try:
            if ctx is not None and name is not None:
                ctx.checkpoint()
            result = fn(*args)
        except QueryInterrupted as exc:
            if breaker is not None:
                breaker.record_failure(f"{type(exc).__name__}: {exc}")
            raise
        except FormatError as exc:
            retry: Optional[float] = None
            if breaker is not None:
                breaker.record_failure(f"{type(exc).__name__}: {exc}")
                retry = breaker.retry_after()
            self._skip_part(
                name, ctx, f"{type(exc).__name__}: {exc}", retry, cause=exc
            )
            return _PART_SKIPPED
        if breaker is not None:
            breaker.record_success()
        return result

    def _skip_part(self, name, ctx, reason, retry_after, *, cause):
        """Annotate a skipped part on ``ctx``, or refuse the partial answer.

        A query only ever returns a subset with the caller's consent
        (``ctx.allow_partial``), and then the subset is *reported* via
        :meth:`QueryContext.note_skip`.  Without consent the original
        failure propagates, or -- when the part was never tried because
        its breaker is open -- a :class:`repro.errors.RejectedError` with
        the breaker's retry-after hint.
        """
        if ctx is not None and ctx.allow_partial:
            ctx.note_skip(name or "tail", reason, retry_after=retry_after)
            return
        if cause is not None:
            raise cause
        raise RejectedError(
            f"segment {name} is isolated by its circuit breaker ({reason}); "
            "pass a QueryContext with allow_partial=True to accept a "
            "reported subset",
            reason="segment-breaker",
            retry_after=retry_after,
        )


def is_segment_store(path: PathLike) -> bool:
    """Whether ``path`` is a segment-store directory (has a MANIFEST)."""
    path = pathlib.Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


class _SegmentBuilder:
    """The node records of one new segment and the manifest fields they imply.

    Seal and compaction add records in id order (:meth:`add`), and every
    :class:`SegmentInfo` field is gathered in the same pass; :meth:`encode`
    then runs them through the encoder's records core
    (:func:`repro.core.encoder.encode_records`).  Records are in stored
    time units, so the store's resolution is recorded in the container,
    not applied again.  The record sequences are only read: a merge passes
    the input segments' cached records through as they are.
    """

    __slots__ = ("records", "contacts", "nodes", "lows", "highs", "ends")

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.contacts = 0
        self.nodes = 0
        # Per-record time bounds, reduced once in encode().
        self.lows: List[int] = []
        self.highs: List[int] = []
        self.ends: List[int] = []

    def add(
        self,
        u: int,
        multiset: Sequence[int],
        times: Sequence[int],
        durations: Optional[Sequence[int]],
    ) -> None:
        """Append node ``u``'s record (label-sorted, ``u`` above the last)."""
        self.records.append((u, multiset, times, durations))
        self.contacts += len(multiset)
        top = max(u, multiset[-1]) + 1
        if top > self.nodes:
            self.nodes = top
        self.lows.append(min(times))
        self.highs.append(max(times))
        if durations is not None:
            self.ends.append(max(map(operator.add, times, durations)))

    def encode(
        self, manifest: Manifest, name: str, seq: int
    ) -> Tuple[bytes, SegmentInfo]:
        """The segment's container bytes and the manifest entry binding them."""
        t_min = min(self.lows)
        t_max = max(self.highs)
        config = resolve_zeta_k(manifest.config, manifest.kind, self.records, t_min)
        payload = dumps_compressed(
            encode_records(
                manifest.kind, self.nodes, t_min, self.records, config, name=name
            )
        )
        return payload, SegmentInfo(
            name=name,
            seq=seq,
            size=len(payload),
            crc=zlib.crc32(payload),
            contacts=self.contacts,
            nodes=self.nodes,
            t_min=t_min,
            t_max=t_max,
            t_end_max=max(self.ends, default=t_max),
        )


class SegmentStore:
    """Writer handle and query front end over one store directory.

    Create with :meth:`create`, reopen with :meth:`open` (which performs
    full crash recovery: manifest verification, per-segment quarantine,
    tail repair, orphan sweep).  Ingest with :meth:`ingest`; sealing and
    compaction normally run automatically (inline past the seal threshold,
    in the background via :class:`repro.storage.compactor.Compactor`) but
    are also callable directly for synchronous use.
    """

    def __init__(
        self,
        directory: pathlib.Path,
        manifest: Manifest,
        view: SegmentedChronoGraph,
        wal: Optional[WriteAheadLog],
        *,
        fs: Filesystem,
        retry: RetryPolicy,
        limits=None,
        policy: StorePolicy,
        quarantined: Optional[List[QuarantineEntry]] = None,
        events: Optional[List[str]] = None,
        breakers: Optional[BreakerBoard] = None,
        mmap_segments: bool = True,
    ) -> None:
        self.directory = directory
        self.policy = policy
        self._fs = fs
        self._retry = retry
        self._limits = limits
        # Whether sealed segments are memory-mapped (shared page cache)
        # rather than read into per-process heap bytes.
        self._mmap_segments = mmap_segments
        self._manifest = manifest
        self._view = view
        self._wal = wal
        self._quarantined = list(quarantined or [])
        self._events = list(events or [])
        # Breaker state belongs to the store, not the view: a tripped
        # segment stays tripped across the view rebuilds that follow
        # seals and compactions.
        self._breakers = breakers if breakers is not None else BreakerBoard()
        self._next_seq = manifest.next_seq
        # Writer-writer serialisation only; readers use the published view
        # and never touch this guard, so durable writes under it cannot
        # stall a query (the reader-visible swap is one reference store).
        self._commit_guard = threading.Lock()
        self._compactor = None  # attached by repro.storage.compactor
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: PathLike,
        kind: GraphKind,
        config: Optional[ChronoGraphConfig] = None,
        *,
        fs: Filesystem = OS_FILESYSTEM,
        retry: RetryPolicy = DEFAULT_RETRY,
        limits=None,
        policy: Optional[StorePolicy] = None,
    ) -> "SegmentStore":
        """Initialise an empty store directory (refuses to overwrite one)."""
        directory = pathlib.Path(path)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists():
            raise FileExistsError(f"{directory} already holds a segment store")
        os.makedirs(str(directory), exist_ok=True)
        manifest = Manifest(
            generation=0,
            kind=kind,
            config=config or ChronoGraphConfig(),
            wal_generation=0,
            next_seq=0,
            segments=(),
        )
        atomic_write_bytes(manifest_path, manifest.to_bytes(), fs=fs, retry=retry)
        wal = cls._create_tail_wal(directory, manifest, fs=fs, retry=retry)
        board = BreakerBoard()
        view = SegmentedChronoGraph(kind, (), _TailBuffer(kind), breakers=board)
        return cls(
            directory,
            manifest,
            view,
            wal,
            fs=fs,
            retry=retry,
            limits=limits,
            policy=policy or StorePolicy(),
            breakers=board,
        )

    @staticmethod
    def _create_tail_wal(
        directory: pathlib.Path,
        manifest: Manifest,
        *,
        fs: Filesystem,
        retry: RetryPolicy,
    ) -> WriteAheadLog:
        base_size, base_crc = _wal_binding(manifest.wal_generation)
        header = WalHeader(
            kind=manifest.kind,
            generation=manifest.wal_generation,
            base_size=base_size,
            base_crc=base_crc,
        )
        return WriteAheadLog.create(
            directory / WAL_TAIL_NAME, header, fs=fs, retry=retry
        )

    @classmethod
    def open(
        cls,
        path: PathLike,
        *,
        fs: Filesystem = OS_FILESYSTEM,
        retry: RetryPolicy = DEFAULT_RETRY,
        limits=None,
        policy: Optional[StorePolicy] = None,
        read_only: bool = False,
        mmap: bool = True,
    ) -> "SegmentStore":
        """Open with full crash recovery; raises ``FormatError`` only when
        the manifest itself is unreadable (segments and the tail degrade to
        quarantine instead).

        ``read_only`` skips every repair side effect (tail truncation,
        quarantine renames, orphan sweeps, WAL creation) so diagnostics can
        inspect a damaged store without changing a byte of it.

        With ``mmap=True`` (the default) sealed segments are memory-mapped
        read-only instead of read into the heap, so N processes opening the
        same store share one copy of every segment in the OS page cache.
        Integrity checking is unchanged -- the manifest binding and every
        container checksum are still verified eagerly at open (the CRC scan
        touches the mapped pages without copying them).  Segments are
        immutable and replaced only by whole-file rename, so a concurrent
        writer sealing or compacting never perturbs a mapped reader: the
        reader's mapping pins the old inode until the view is rebuilt.
        """
        from repro.core.serialize import _map_readonly, load_compressed_bytes
        from repro.core.validate import SalvageReport

        directory = pathlib.Path(path)
        manifest_path = directory / MANIFEST_NAME
        manifest = Manifest.from_bytes(
            manifest_path.read_bytes(), str(manifest_path)
        )
        events: List[str] = []
        quarantined: List[QuarantineEntry] = []
        loaded: List[Tuple[SegmentInfo, object]] = []
        for info in manifest.segments:
            seg_path = directory / info.name
            reason: Optional[str] = None
            blob = b""
            try:
                blob = _map_readonly(seg_path) if mmap else seg_path.read_bytes()
            except OSError as exc:
                reason = f"unreadable: {exc}"
            if reason is None and (
                len(blob) != info.size or zlib.crc32(blob) != info.crc
            ):
                reason = (
                    f"manifest binding mismatch ({len(blob)} bytes / "
                    f"crc 0x{zlib.crc32(blob):08x}, manifest says {info.size} "
                    f"bytes / crc 0x{info.crc:08x})"
                )
            if reason is None:
                try:
                    graph = load_compressed_bytes(
                        blob, limits=limits, source=str(seg_path)
                    )
                except FormatError as exc:
                    reason = f"{type(exc).__name__}: {exc}"
                else:
                    loaded.append((info, graph))
                    continue
            report: Optional[SalvageReport] = None
            if blob:
                from repro.core.serialize import salvage_bytes

                report = salvage_bytes(blob, limits=limits, source=str(seg_path))
            quarantined.append(
                QuarantineEntry(
                    name=info.name,
                    reason=reason,
                    salvaged_nodes=report.nodes_recovered if report else 0,
                    salvaged_contacts=report.contacts_recovered if report else 0,
                )
            )
        tail_contacts, wal, tail_events, tail_quarantine = cls._recover_tail(
            directory, manifest, fs=fs, retry=retry, read_only=read_only
        )
        events.extend(tail_events)
        quarantined.extend(tail_quarantine)
        if not read_only:
            events.extend(cls._sweep_orphans(directory, manifest, fs=fs))
        board = BreakerBoard()
        view = SegmentedChronoGraph(
            manifest.kind,
            tuple(loaded),
            _TailBuffer(manifest.kind).extended(tail_contacts),
            breakers=board,
        )
        return cls(
            directory,
            manifest,
            view,
            wal,
            fs=fs,
            retry=retry,
            limits=limits,
            policy=policy or StorePolicy(),
            quarantined=quarantined,
            events=events,
            breakers=board,
            mmap_segments=mmap,
        )

    @classmethod
    def _recover_tail(
        cls,
        directory: pathlib.Path,
        manifest: Manifest,
        *,
        fs: Filesystem,
        retry: RetryPolicy,
        read_only: bool,
    ) -> Tuple[List[Contact], Optional[WriteAheadLog], List[str], List[QuarantineEntry]]:
        """Recover the hot tail against the manifest's WAL generation.

        Returns (committed contacts, open writer handle or None, events,
        quarantine entries).  Every outcome is explicit: a missing or
        stale log is re-created (its contacts are provably already sealed
        or were never durable), a torn tail is truncated and reported, and
        a foreign or unreadable log is quarantined -- renamed aside, never
        replayed, never deleted.
        """
        wal_path = directory / WAL_TAIL_NAME
        events: List[str] = []
        quarantine: List[QuarantineEntry] = []
        expected_gen = manifest.wal_generation

        def fresh() -> Optional[WriteAheadLog]:
            if read_only:
                return None
            return cls._create_tail_wal(directory, manifest, fs=fs, retry=retry)

        if not wal_path.exists():
            events.append(
                "wal tail missing; created fresh (interrupted seal had "
                "already folded its contacts into a sealed segment)"
            )
            return [], fresh(), events, quarantine

        scan = scan_wal(wal_path)
        header = scan.header
        if header is not None:
            bound_size, bound_crc = _wal_binding(header.generation)
            bound = (
                header.kind is manifest.kind
                and header.base_size == bound_size
                and header.base_crc == bound_crc
            )
            if bound and header.generation == expected_gen:
                if scan.torn:
                    if read_only:
                        events.append(
                            f"wal tail torn: {scan.dropped_bytes} trailing "
                            "bytes would be dropped (read-only: not repaired)"
                        )
                    else:
                        dropped = repair_torn_tail(wal_path, scan, fs=fs)
                        events.append(
                            f"wal tail torn: dropped {dropped} trailing bytes "
                            "(crash mid-commit; committed batches intact)"
                        )
                    for err in scan.errors:
                        events.append(f"wal tail: {err}")
                wal = None if read_only else WriteAheadLog.open(wal_path, fs=fs)
                return list(scan.contacts), wal, events, quarantine
            if bound and header.generation < expected_gen:
                events.append(
                    f"wal tail at stale generation {header.generation} "
                    f"(manifest says {expected_gen}): its contacts are "
                    "already sealed; log reset"
                )
                return [], fresh(), events, quarantine
            reason = (
                f"wal tail at generation {header.generation} does not bind "
                f"to this store (manifest wal_generation {expected_gen})"
            )
        else:
            reason = "; ".join(scan.errors) or "unreadable WAL header"

        # Foreign or unreadable log: preserve the bytes out of the data
        # path.  Replay would risk serving contacts that were never part
        # of this store -- a silent wrong answer, the one forbidden outcome.
        quarantine.append(
            QuarantineEntry(
                name=WAL_TAIL_NAME,
                reason=reason,
                salvaged_contacts=sum(len(b) for b in scan.batches),
            )
        )
        if not read_only:
            aside = cls._quarantine_aside(directory, fs)
            fs.replace(str(wal_path), str(aside))
            events.append(f"wal tail quarantined to {aside.name}")
        return [], fresh(), events, quarantine

    @staticmethod
    def _quarantine_aside(directory: pathlib.Path, fs: Filesystem) -> pathlib.Path:
        for i in range(10_000):
            candidate = directory / f"wal.quarantine-{i:04d}"
            if not candidate.exists():
                return candidate
        raise RuntimeError(f"{directory}: too many quarantined WAL tails")

    @staticmethod
    def _sweep_orphans(
        directory: pathlib.Path, manifest: Manifest, *, fs: Filesystem
    ) -> List[str]:
        """Delete segment files the manifest no longer references.

        This is the delayed-delete half of every swap protocol: a crash
        between the manifest swap and the delete leaves complete, fsynced
        but unreferenced files, which are semantically already deleted.
        Temp litter from interrupted atomic writes goes the same way.
        Quarantine files (``wal.quarantine-*``) are never swept.
        """
        events: List[str] = []
        referenced = {info.name for info in manifest.segments}
        for entry in sorted(directory.iterdir()):
            name = entry.name
            doomed = (
                name.startswith("seg-")
                and name.endswith(".chrono")
                and name not in referenced
            ) or name.endswith(".tmp")
            if not doomed:
                continue
            try:
                fs.remove(str(entry))
            except OSError:
                continue  # sweep again next open
            events.append(f"swept orphan {name}")
        return events

    def close(self) -> None:
        """Detach the compactor reference and release the tail descriptor."""
        with self._commit_guard:
            self._closed = True
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- read side -----------------------------------------------------------

    @property
    def graph(self) -> SegmentedChronoGraph:
        """The current immutable query view (one atomic reference read)."""
        return self._view

    @property
    def manifest(self) -> Manifest:
        """The current in-memory manifest (matches the durable one)."""
        return self._manifest

    @property
    def tail_size(self) -> int:
        """Committed contacts currently living in the hot tail."""
        return self._view._tail.num_contacts

    def attach_compactor(self, compactor) -> None:
        """Register the background compactor the watchdog should monitor."""
        self._compactor = compactor

    def _compactor_state(self) -> str:
        compactor = self._compactor
        if compactor is None:
            return "none"
        return compactor.state(self.policy.compactor_timeout)

    def health(self) -> HealthReport:
        """Snapshot the store's operational state into a report."""
        view = self._view
        manifest = self._manifest
        compactor = self._compactor_state()
        open_breakers = self._breakers.open_count()
        return HealthReport(
            path=str(self.directory),
            generation=manifest.generation,
            wal_generation=manifest.wal_generation,
            segments=view.segment_count,
            segment_contacts=sum(i.contacts for i in manifest.segments),
            tail_contacts=view._tail.num_contacts,
            quarantined=list(self._quarantined),
            compactor=compactor,
            degraded=bool(self._quarantined)
            or compactor in ("dead", "wedged")
            or open_breakers > 0,
            events=list(self._events),
            breakers=self._breakers.states(),
        )

    # -- ingest --------------------------------------------------------------

    def ingest(self, rows: Iterable[ContactRow]) -> int:
        """Durably commit a batch of contacts into the hot tail.

        Contacts are bucketed by the store's configured resolution,
        validated (:class:`repro.errors.GraphDomainError` rejects the
        whole batch), appended to the tail WAL and fsynced as one
        all-or-nothing batch, then published in a new view whose tail
        buffer holds them.  Crossing the seal threshold seals inline --
        unless the store is degraded (dead or wedged compactor), in which
        case the segment set is read-only and a full tail raises
        :class:`BackpressureError` instead.
        """
        batch = self._bucket(rows)
        if not batch:
            return 0
        with self._commit_guard:
            if self._closed or self._wal is None:
                raise StoreClosedError(f"{self.directory}: store is closed")
            view = self._view
            tail_size = view._tail.num_contacts
            degraded = self._compactor_state() in ("dead", "wedged")
            if degraded and (
                tail_size + len(batch) > self.policy.backpressure_contacts
            ):
                raise BackpressureError(
                    f"{self.directory}: compactor is "
                    f"{self._compactor_state()} and the tail holds "
                    f"{tail_size} contacts "
                    f"(cap {self.policy.backpressure_contacts}); "
                    "ingestion is backpressured until compaction resumes",
                    tail_size=tail_size,
                    cap=self.policy.backpressure_contacts,
                    retry_after=self.policy.compactor_timeout,
                )
            self._wal.append(batch)
            committed = self._wal.commit()
            self._view = SegmentedChronoGraph(
                view.kind,
                view._segments,
                view._tail.extended(batch),
                breakers=self._breakers,
            )
            if (
                not degraded
                and tail_size + len(batch) >= self.policy.seal_contacts
            ):
                self._seal_locked()
        return committed

    def _bucket(self, rows: Iterable[ContactRow]) -> List[Contact]:
        from repro.graph.aggregate import _aggregate_duration

        manifest = self._manifest
        resolution = manifest.config.resolution
        interval = manifest.kind is GraphKind.INTERVAL
        batch: List[Contact] = []
        for row in rows:
            c = row if isinstance(row, Contact) else Contact(*row)
            if resolution > 1:
                duration = (
                    _aggregate_duration(c.time, c.duration, resolution)
                    if interval
                    else 0
                )
                c = Contact(c.u, c.v, c.time // resolution, duration)
            batch.append(c)
        return batch

    # -- seal (tail -> immutable segment) --------------------------------------

    def seal(self) -> Optional[SegmentInfo]:
        """Fold the committed tail into a fresh immutable segment.

        No-op (returns None) on an empty tail.  Crash-safe: the segment
        file lands complete and fsynced before the manifest swap names it,
        and the stale tail log left by a crash between the swap and the
        log reset is recognised by its old generation and discarded --
        exactly once, because its contacts are in the sealed segment.
        """
        with self._commit_guard:
            if self._closed or self._wal is None:
                raise StoreClosedError(f"{self.directory}: store is closed")
            return self._seal_locked()

    def _seal_locked(self) -> Optional[SegmentInfo]:
        if not self._view._tail.contacts:
            return None
        manifest = self._manifest
        seq = self._next_seq
        self._next_seq += 1
        name = _segment_name(seq)
        # Every contact in the tail was validated by WriteAheadLog.append
        # or by the replay scan, and its walk is already one record per
        # node, in id order.
        builder = _SegmentBuilder()
        for u, (multiset, times, durations) in self._view._tail._walk():
            builder.add(u, multiset, times, durations)
        payload, info = builder.encode(manifest, name, seq)
        # 1. write-new: the segment is complete and fsynced before anything
        #    references it; a crash here leaves an orphan the sweep removes.
        atomic_write_bytes(
            self.directory / name, payload, fs=self._fs, retry=self._retry
        )
        # 2. manifest swap: the store's contents change in one rename.
        new_manifest = dataclasses.replace(
            manifest,
            generation=manifest.generation + 1,
            wal_generation=manifest.wal_generation + 1,
            next_seq=self._next_seq,
            segments=manifest.segments + (info,),
        )
        atomic_write_bytes(
            self.directory / MANIFEST_NAME,
            new_manifest.to_bytes(),
            fs=self._fs,
            retry=self._retry,
        )
        # 3. log reset: a crash before this leaves the old-generation log,
        #    which recovery recognises as sealed-and-stale and discards.
        self._wal.close()
        self._manifest = new_manifest
        self._wal = self._create_tail_wal(
            self.directory, new_manifest, fs=self._fs, retry=self._retry
        )
        from repro.core.serialize import _map_readonly, load_compressed_bytes

        # Map the file just written rather than adopting the in-heap encode
        # buffer: the long-lived view then shares pages with every other
        # process, and the reload doubles as a read-back verification.
        seg_path = self.directory / name
        graph = load_compressed_bytes(
            _map_readonly(seg_path) if self._mmap_segments else payload,
            limits=self._limits,
            source=str(seg_path),
        )
        view = self._view
        self._view = SegmentedChronoGraph(
            new_manifest.kind,
            view._segments + ((info, graph),),
            _TailBuffer(new_manifest.kind),
            breakers=self._breakers,
        )
        return info

    # -- compaction (merge adjacent segments) ----------------------------------

    def compaction_needed(self) -> bool:
        """Whether the segment count exceeds the policy bound."""
        return len(self._manifest.segments) > self.policy.max_segments

    def pick_merge(self) -> Optional[Tuple[SegmentInfo, SegmentInfo]]:
        """The adjacent pair to merge next: smallest combined byte size.

        Merging only ever adjacent (in seal order) pairs keeps segments
        time-partitioned: seal order is arrival order, so the merged
        segment's span covers a contiguous stretch of the stream.
        """
        segments = self._manifest.segments
        if len(segments) <= self.policy.max_segments:
            return None
        best = min(
            range(len(segments) - 1),
            key=lambda i: segments[i].size + segments[i + 1].size,
        )
        return segments[best], segments[best + 1]

    def compact_once(self) -> bool:
        """Merge one adjacent segment pair crash-safely; False when idle.

        The merge works on node records: a node held by one segment keeps
        its decoded record as is, a node held by both gets the two merged
        on ``(v, time, duration)``, and the result is encoded by the
        records core -- the bytes a recompression of the two segments'
        contacts would give.

        Phases: (1) read the immutable inputs and write the merged
        replacement -- no guard held, ingest proceeds concurrently;
        (2) under the commit guard, re-check the inputs are still current
        and swap the manifest; (3) delayed delete of the replaced files.
        Killing this method at any point never changes query answers: the
        view only advances at the swap, and both old files outlive it.
        """
        pair = self.pick_merge()
        if pair is None:
            return False
        a, b = pair
        view = self._view
        graphs = {info.name: graph for info, graph in view._segments}
        if a.name not in graphs or b.name not in graphs:
            return False  # raced with another swap; retry next cycle
        manifest = self._manifest
        left = {u: (m, t, d) for u, m, t, d in graphs[a.name].iter_records()}
        right = {u: (m, t, d) for u, m, t, d in graphs[b.name].iter_records()}
        builder = _SegmentBuilder()
        for u in sorted(left.keys() | right.keys()):
            if u not in right:
                builder.add(u, *left[u])
            elif u not in left:
                builder.add(u, *right[u])
            else:
                builder.add(u, *merged_record((left[u], right[u])))
        with self._commit_guard:
            seq = self._next_seq
            self._next_seq += 1
        name = _segment_name(seq)
        payload, info = builder.encode(manifest, name, seq)
        # 1. write-new (complete + fsynced before any reference exists).
        atomic_write_bytes(
            self.directory / name, payload, fs=self._fs, retry=self._retry
        )
        from repro.core.serialize import _map_readonly, load_compressed_bytes

        merged_path = self.directory / name
        merged_graph = load_compressed_bytes(
            _map_readonly(merged_path) if self._mmap_segments else payload,
            limits=self._limits,
            source=str(merged_path),
        )
        with self._commit_guard:
            if self._closed:
                return False
            current = self._manifest
            names = [s.name for s in current.segments]
            try:
                ia = names.index(a.name)
            except ValueError:
                ia = -1
            if ia < 0 or ia + 1 >= len(names) or names[ia + 1] != b.name:
                # Inputs vanished under us (concurrent swap): the freshly
                # written file is an orphan; drop it and report idle.
                try:
                    self._fs.remove(str(self.directory / name))
                except OSError:
                    pass
                return False
            new_segments = (
                current.segments[:ia] + (info,) + current.segments[ia + 2 :]
            )
            new_manifest = dataclasses.replace(
                current,
                generation=current.generation + 1,
                next_seq=max(current.next_seq, self._next_seq),
                segments=new_segments,
            )
            # 2. manifest swap: one rename retires a and b and enlists the
            #    merged segment.
            atomic_write_bytes(
                self.directory / MANIFEST_NAME,
                new_manifest.to_bytes(),
                fs=self._fs,
                retry=self._retry,
            )
            self._manifest = new_manifest
            old_view = self._view
            rebuilt: List[Tuple[SegmentInfo, object]] = []
            for seg_info, seg_graph in old_view._segments:
                if seg_info.name == a.name:
                    rebuilt.append((info, merged_graph))
                elif seg_info.name == b.name:
                    continue
                else:
                    rebuilt.append((seg_info, seg_graph))
            self._view = SegmentedChronoGraph(
                new_manifest.kind,
                tuple(rebuilt),
                old_view._tail,
                breakers=self._breakers,
            )
        # 3. delayed delete: failures leave orphans the next open sweeps.
        for old in (a, b):
            try:
                self._fs.remove(str(self.directory / old.name))
            except OSError:
                self._events.append(
                    f"delayed delete of {old.name} failed; orphan left for sweep"
                )
        return True

    def compact_all(self) -> int:
        """Seal the tail, then merge until within policy; returns merge count."""
        self.seal()
        merges = 0
        while self.compact_once():
            merges += 1
        return merges

    def verify_binding(self) -> None:
        """Cross-check the in-memory manifest against the durable one.

        Diagnostic used by tests and ``repro status``: raises
        :class:`GenerationMismatchError` when the directory's manifest is
        not the one this handle believes is current.
        """
        durable = Manifest.from_bytes(
            (self.directory / MANIFEST_NAME).read_bytes(),
            str(self.directory / MANIFEST_NAME),
        )
        if durable.generation != self._manifest.generation:
            raise GenerationMismatchError(
                f"{self.directory}: durable manifest is generation "
                f"{durable.generation}, handle believes {self._manifest.generation}"
            )
