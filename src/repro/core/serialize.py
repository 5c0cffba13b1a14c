"""Binary on-disk format for compressed ChronoGraphs (VERSION 2).

A compressed graph is an in-memory artefact in the paper; persisting it
makes the compression reusable across processes (compress once with the
CLI, query from anywhere).  VERSION 2 hardens the container for crossing
disk and network boundaries:

* a fixed preamble (magic, version, flags) followed by a length-prefixed
  **header section** (kind, counts, t_min, config, name) with a CRC32
  footer,
* four length-prefixed, CRC32-guarded **payload sections** in fixed order:
  structure stream, timestamp stream, structure offsets, timestamp offsets
  (offsets are VByte-coded deltas, decoded on load into the graph's flat
  offset arrays; the in-memory index is derived, so the format does not
  depend on it),
* **decode limits**: every declared count and size is cross-checked against
  the actual file size and the fixed caps ``_MAX_NODES``,
  ``_MAX_CONTACTS`` and ``_MAX_SECTION_BYTES`` *before* any proportional
  allocation, so a flipped header byte can never trigger a
  multi-gigabyte allocation or an unbounded loop.

All integers are little-endian.  VERSION 2 is the only version read or
written; any other version byte raises
:class:`repro.errors.UnsupportedVersionError`.

One walk, two error policies
----------------------------

The layout is read by one walk, :func:`_walk`, which reports every flaw
it finds to an error policy held by its :class:`_Walk` cursor:

* **strict** -- :func:`load_compressed_bytes` and ``load_compressed``
  (heap or ``mmap=True``): the first flaw raises its
  :class:`repro.errors.FormatError` subclass, after any deferred stream
  checksum has been settled, so a lazy load raises what an eager one
  raises;
* **salvage** -- :func:`salvage_bytes` and
  ``load_compressed(path, salvage=True)``: each flaw's message is
  recorded, the damaged field is clipped and the walk goes on; the
  recovered graph then goes through
  :func:`repro.core.validate.salvage_scan`, which keeps the longest
  valid prefix of nodes in a :class:`repro.core.validate.SalvageReport`.

Buffer discipline
-----------------

The read path is zero-copy end to end: :class:`_Walk` wraps whatever
buffer it is given in a ``memoryview`` and every section it hands out is a
*view* into that buffer, never a slice copy.  ``load_compressed`` therefore
has two modes that differ only in who owns the underlying pages:

* heap (default): the file is read once into a ``bytes`` blob and the
  graph's streams are views into it;
* ``mmap=True``: the file is memory-mapped read-only and the views walk the
  mapped pages directly, so N processes opening the same container share
  one copy in the OS page cache.  Stream-section CRCs are deferred to first
  decode (:class:`_LazySectionCheck`) so merely opening a container faults
  in only the header and offset pages.
"""

from __future__ import annotations

import io
import mmap
import pathlib
import struct
import zlib
from array import array
from bisect import bisect_right
from typing import BinaryIO, Dict, List, NoReturn, Optional, Tuple, Type, Union

from repro.bits.bitio import Buffer
from repro.core.compressed import CompressedChronoGraph
from repro.core.config import ChronoGraphConfig
from repro.core.validate import SalvageReport, salvage_scan
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    EndOfStreamError,
    FormatError,
    GraphDomainError,
    LimitExceededError,
    TruncatedContainerError,
    UnsupportedVersionError,
)
from repro.graph.model import GraphKind

__all__ = [
    "FormatError",
    "VERSION",
    "save_compressed",
    "dumps_compressed",
    "load_compressed",
    "load_compressed_bytes",
]

MAGIC = b"CHRG"
VERSION = 2

#: Section tags, in the exact order they must appear in the container.
_SECTION_STRUCTURE = 1
_SECTION_TIMESTAMPS = 2
_SECTION_SOFFSETS = 3
_SECTION_TOFFSETS = 4
_SECTION_NAMES = {
    _SECTION_STRUCTURE: "structure stream",
    _SECTION_TIMESTAMPS: "timestamp stream",
    _SECTION_SOFFSETS: "structure offsets",
    _SECTION_TOFFSETS: "timestamp offsets",
}
_SECTION_ORDER = (
    _SECTION_STRUCTURE,
    _SECTION_TIMESTAMPS,
    _SECTION_SOFFSETS,
    _SECTION_TOFFSETS,
)

_KIND_CODES = {GraphKind.POINT: 0, GraphKind.INTERVAL: 1, GraphKind.INCREMENTAL: 2}
_KIND_FROM_CODE = {v: k for k, v in _KIND_CODES.items()}

#: Minimum encoded size of one node's structure record, in bits: four
#: gamma codes of zero (dedup count, reference gap, interval count, extra
#: count) take one bit each.  Used to reject impossible node counts.
_MIN_STRUCTURE_BITS_PER_NODE = 4

#: Longest valid VByte offset code: a delta below 2**64 needs at most ten
#: 7-bit groups.
_MAX_CODE_BYTES = 10

#: What :func:`_read_offsets` yields for a longer code: an offset beyond
#: every stream, since a stream's bit length is a u64.
_OVERLONG = 1 << 64

#: Hard ceilings applied while reading an untrusted container.  These are
#: sanity bounds, not tuning knobs: a legitimate container never comes
#: near them, and breaching one raises
#: :class:`repro.errors.LimitExceededError` before any allocation sized by
#: the offending field.
_MAX_NODES = 1 << 40
_MAX_CONTACTS = 1 << 48
_MAX_SECTION_BYTES = 1 << 40

PathLike = Union[str, pathlib.Path]


# --------------------------------------------------------------------------
# Writing
# --------------------------------------------------------------------------

def _config_tuple(config: ChronoGraphConfig) -> tuple:
    return (
        config.window,
        config.min_interval_length,
        0xFFFF if config.max_ref_chain is None else config.max_ref_chain,
        config.timestamp_zeta_k or 0,
        config.duration_zeta_k or 0,
        config.structure_zeta_k,
        config.resolution,
    )


def _offsets_payload(offsets: "array[int]") -> bytes:
    """The entry count, then each offset's delta as a VByte code.

    VByte writes 7-bit groups, high group first, with the top bit set on
    every byte but the last: the bytes
    :func:`repro.bits.codes.write_vbyte` writes, appended directly.
    """
    out = array("B", struct.pack("<Q", len(offsets)))
    append = out.append
    prev = 0
    for value in offsets:
        delta = value - prev
        prev = value
        if delta < 0x80:
            append(delta)
            continue
        shift = (delta.bit_length() - 1) // 7 * 7
        while shift:
            append(0x80 | ((delta >> shift) & 0x7F))
            shift -= 7
        append(delta & 0x7F)
    return out.tobytes()


def _write_section(out: BinaryIO, tag: int, *parts: Buffer) -> None:
    """Frame one section from payload ``parts`` without concatenating them.

    The payload is written (and its CRC32 chained) part by part so a
    stream body that is a ``memoryview`` -- e.g. a graph loaded with
    ``mmap=True`` being re-serialised -- is streamed straight from its
    source buffer.
    """
    out.write(struct.pack("<BQ", tag, sum(len(p) for p in parts)))
    crc = 0
    for part in parts:
        out.write(part)
        crc = zlib.crc32(part, crc)
    out.write(struct.pack("<I", crc))


def _header_payload(graph: CompressedChronoGraph) -> bytes:
    buffer = io.BytesIO()
    buffer.write(struct.pack("<B", _KIND_CODES[graph.kind]))
    buffer.write(
        struct.pack("<QQq", graph.num_nodes, graph.num_contacts, graph.t_min)
    )
    buffer.write(struct.pack("<7I", *_config_tuple(graph.config)))
    name_bytes = graph.name.encode("utf-8")[:255]
    buffer.write(struct.pack("<B", len(name_bytes)))
    buffer.write(name_bytes)
    return buffer.getvalue()


def dumps_compressed(graph: CompressedChronoGraph) -> bytes:
    """Serialise the compressed graph to VERSION 2 container bytes."""
    if graph.config.timestamp_zeta_k is None:  # pragma: no cover - encoder sets it
        raise GraphDomainError("cannot serialise a graph with unresolved zeta parameters")
    # A lazily-verified (mmap-loaded) graph must not be re-serialised
    # before its deferred stream checksums have been confirmed.
    graph._touch_structure()
    graph._touch_timestamps()
    buffer = io.BytesIO()
    buffer.write(MAGIC)
    buffer.write(struct.pack("<BB", VERSION, 0))
    header = _header_payload(graph)
    buffer.write(struct.pack("<I", len(header)))
    buffer.write(header)
    buffer.write(struct.pack("<I", zlib.crc32(header)))
    _write_section(
        buffer, _SECTION_STRUCTURE, struct.pack("<Q", graph._sbits), graph._sbytes
    )
    _write_section(
        buffer, _SECTION_TIMESTAMPS, struct.pack("<Q", graph._tbits), graph._tbytes
    )
    _write_section(buffer, _SECTION_SOFFSETS, _offsets_payload(graph._soffsets))
    _write_section(buffer, _SECTION_TOFFSETS, _offsets_payload(graph._toffsets))
    return buffer.getvalue()


def save_compressed(graph: CompressedChronoGraph, path: PathLike) -> int:
    """Write the compressed graph to ``path``; returns bytes written.

    The write is atomic and durable (:mod:`repro.storage.atomic`): a crash
    or disk error mid-save leaves the previous container intact, never a
    torn one.
    """
    from repro.storage.atomic import atomic_write_bytes

    payload = dumps_compressed(graph)
    return atomic_write_bytes(path, payload)


# --------------------------------------------------------------------------
# Reading -- one walk, two error policies
# --------------------------------------------------------------------------

def _read_offsets(data: Buffer, count: int) -> List[int]:
    """The first ``count`` absolute offsets of a run of VByte deltas.

    Reads no byte past the ``count``-th delta, so the work is bounded by
    the declared count, not by the section's length.  Returns fewer when
    ``data`` ends first; a code cut off by the end is dropped.  A code
    longer than ``_MAX_CODE_BYTES`` is corrupt whatever its payload:
    reading stops at its tenth byte, and the code yields ``_OVERLONG``
    as the last offset.  Shared by the strict and the salvage loaders.
    """
    offsets: List[int] = []
    if not count:
        return offsets
    append = offsets.append
    left = count
    value = 0
    high = run = 0
    for byte in data:
        if byte < 0x80:
            value += high | byte
            high = run = 0
            append(value)
            left -= 1
            if not left:
                break
        else:
            run += 1
            if run == _MAX_CODE_BYTES:
                append(_OVERLONG)
                break
            high = (high | (byte & 0x7F)) << 7
    return offsets


class _LazySectionCheck:
    """Deferred CRC32 verification of one stream section.

    ``load_compressed(mmap=True)`` defers stream-section checksums so that
    merely opening a container faults in no stream pages.  The graph runs
    the check on first decode of that stream (see
    ``CompressedChronoGraph._touch_structure``), raising exactly the
    :class:`ChecksumMismatchError` the eager path would have raised at
    load time.  The check is idempotent and reads only immutable state, so
    a benign race between two first readers is harmless.
    """

    __slots__ = ("_payload", "_crc", "_message")

    def __init__(self, payload: Buffer, crc: int, message: str) -> None:
        self._payload = payload
        self._crc = crc
        self._message = message

    def __call__(self) -> None:
        if zlib.crc32(self._payload) != self._crc:
            raise ChecksumMismatchError(self._message)


class _Unreadable(Exception):
    """Ends a salvage walk at a flaw that leaves nothing to recover."""


class _Walk:
    """A bounded cursor over one container that reports each flaw to a policy.

    ``errors=None`` is the strict policy: a flaw raises its
    :class:`FormatError` subclass, named after ``source``, once every
    deferred stream checksum has been settled.  A list is the salvage
    policy: :meth:`flaw` appends the message and returns, so the walk
    clips the damaged field and goes on, while :meth:`fail` -- a flaw that
    leaves nothing to recover -- appends it with the source and ends the
    walk.

    The buffer is wrapped in a ``memoryview`` once, so every :meth:`take`
    returns a zero-copy view into the container -- multi-megabyte stream
    sections are never duplicated, whether the container lives on the
    heap or in a memory-mapped file.
    """

    def __init__(
        self, data: Buffer, source: str, errors: Optional[List[str]] = None
    ) -> None:
        self.data = data if isinstance(data, memoryview) else memoryview(data)
        self.pos = 0
        self.source = source
        self.errors = errors
        #: Stream checksums a lazy load defers, by section tag.
        self.deferred: Dict[int, _LazySectionCheck] = {}

    @property
    def remaining(self) -> int:
        """Bytes left between the cursor and the end of the container."""
        return len(self.data) - self.pos

    def fail(self, cls: Type[FormatError], message: str) -> NoReturn:
        """Report a flaw that ends the walk under either policy."""
        if self.errors is not None:
            self.errors.append(f"{self.source}: {message}")
            raise _Unreadable
        # A corrupted stream section can masquerade as a geometry or
        # cross-check flaw before its checksum was ever read: settle the
        # deferred checksums first, so a lazy load raises what the eager
        # load raises for the same bytes.
        for check in self.deferred.values():
            check()
        raise cls(f"{self.source}: {message}")

    def flaw(self, cls: Type[FormatError], message: str) -> None:
        """Report a flaw the salvage policy records and clips past."""
        if self.errors is None:
            self.fail(cls, message)
        self.errors.append(message)

    def take(
        self, n: int, what: str, *, fatal: bool = False, at: str = ""
    ) -> memoryview:
        """The next ``n`` bytes; a short read is a flaw, clipped to the end."""
        if n > self.remaining:
            report = self.fail if fatal else self.flaw
            report(
                TruncatedContainerError,
                f"truncated container: {what} wants {n} bytes, only "
                f"{self.remaining} remain{at}",
            )
            n = self.remaining
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def field(self, fmt: str, what: str) -> tuple:
        """A fixed-width little-endian field; cutting it short is fatal."""
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size, what, fatal=True))


def _read_header(
    walk: _Walk,
) -> Tuple[GraphKind, int, int, int, ChronoGraphConfig, str]:
    """The header fields; a flaw in any of them leaves nothing to recover."""
    (kind_code,) = walk.field("<B", "kind")
    kind = _KIND_FROM_CODE.get(kind_code)
    if kind is None:
        walk.fail(CorruptStreamError, f"unknown graph kind code {kind_code}")
    num_nodes, num_contacts, t_min = walk.field("<QQq", "counts")
    (window, min_interval, max_ref, ts_k, dur_k, struct_k, resolution) = (
        walk.field("<7I", "config")
    )
    try:
        config = ChronoGraphConfig(
            window=window,
            min_interval_length=min_interval,
            max_ref_chain=None if max_ref == 0xFFFF else max_ref,
            timestamp_zeta_k=ts_k or None,
            duration_zeta_k=dur_k or None,
            structure_zeta_k=struct_k,
            resolution=resolution,
        )
    except ValueError as exc:
        walk.fail(CorruptStreamError, f"invalid config: {exc}")
    (name_len,) = walk.field("<B", "name length")
    # The one sanctioned copy on the load path: a <=255-byte name field
    # (memoryview has no .decode).
    raw_name = bytes(walk.take(name_len, "name", fatal=True))  # repro: noqa[CG006]
    try:
        name = raw_name.decode("utf-8")
    except UnicodeDecodeError:
        walk.fail(CorruptStreamError, "name is not valid UTF-8")
    return kind, num_nodes, num_contacts, t_min, config, name


def _check_counts(
    walk: _Walk, num_nodes: int, num_contacts: int, file_size: int
) -> None:
    """Reject node/contact counts no container of this size could hold."""
    if num_nodes > _MAX_NODES:
        walk.fail(
            LimitExceededError, f"{num_nodes} nodes exceeds limit {_MAX_NODES}"
        )
    if num_contacts > _MAX_CONTACTS:
        walk.fail(
            LimitExceededError,
            f"{num_contacts} contacts exceeds limit {_MAX_CONTACTS}",
        )
    # Each node costs >= 4 structure bits plus >= 2 offset bytes; each
    # contact >= 1 timestamp bit.  A count past these bounds cannot fit.
    if num_nodes > 2 * file_size:
        walk.fail(
            LimitExceededError,
            f"{num_nodes} nodes impossible in a {file_size}-byte container",
        )
    if num_contacts > 8 * file_size:
        walk.fail(
            LimitExceededError,
            f"{num_contacts} contacts impossible in a {file_size}-byte "
            "container",
        )


def _read_stream(walk: _Walk, payload: Buffer, what: str) -> Tuple[int, Buffer]:
    """``(bit length, bytes)`` of a stream section, clipped on a flaw."""
    if len(payload) < 8:
        walk.flaw(TruncatedContainerError, f"{what}: payload too short")
        return 0, b""
    (nbits,) = struct.unpack("<Q", payload[:8])
    data = payload[8:]
    if nbits > 8 * len(data) or (nbits + 7) // 8 != len(data):
        walk.flaw(
            CorruptStreamError,
            f"{what}: declared {nbits} bits inconsistent with {len(data)} "
            "payload bytes",
        )
        nbits = min(nbits, 8 * len(data))
    return nbits, data


def _read_offset_section(
    walk: _Walk, payload: Buffer, num_nodes: int, what: str
) -> List[int]:
    """The absolute offsets of an offsets section, clipped on a flaw."""
    if len(payload) < 8:
        walk.flaw(TruncatedContainerError, f"{what}: payload too short")
        return []
    (count,) = struct.unpack("<Q", payload[:8])
    data = payload[8:]
    if count != num_nodes:
        walk.flaw(
            CorruptStreamError, f"{what}: {count} entries for {num_nodes} nodes"
        )
        count = min(count, num_nodes)
    if count > len(data):
        # Every VByte delta occupies at least one byte.
        walk.flaw(
            LimitExceededError,
            f"{what}: {count} offsets declared but only {len(data)} payload "
            "bytes",
        )
        count = len(data)
    offsets = _read_offsets(data, count)
    if offsets and offsets[-1] >= _OVERLONG:
        walk.flaw(
            CorruptStreamError,
            f"{what}: offset {offsets[-1]} beyond any 64-bit stream",
        )
        del offsets[-1]
    elif len(offsets) < count:
        walk.flaw(
            EndOfStreamError,
            f"{what}: delta stream ended early, after {len(offsets)} of "
            f"{count} offsets",
        )
    return offsets


def _walk(
    data: Buffer,
    source: str,
    errors: Optional[List[str]] = None,
    *,
    lazy_crc: bool = False,
) -> Tuple[CompressedChronoGraph, int]:
    """Read a VERSION 2 container under the policy ``errors`` selects.

    Returns the graph and the node count its header declares.  Under the
    strict policy the graph is exactly the container; under the salvage
    policy its offset indexes are clipped to the nodes whose records are
    locatable, so it may hold fewer nodes than declared.  Checks run in
    one fixed order, so a strict load raises the class of the first flaw.
    """
    walk = _Walk(data, source, errors)
    if walk.take(4, "magic", fatal=True) != MAGIC:
        walk.fail(FormatError, "not a ChronoGraph file (bad magic)")
    (version,) = walk.field("<B", "version")
    if version != VERSION:
        walk.fail(UnsupportedVersionError, f"unsupported version {version}")
    (flags,) = walk.field("<B", "flags")
    if flags != 0:
        walk.flaw(
            UnsupportedVersionError, f"unknown container flags 0x{flags:02x}"
        )
    (header_len,) = walk.field("<I", "header length")
    header = walk.take(header_len, "header")
    header_crc = walk.take(4, "header checksum")
    if len(header_crc) == 4 and (
        zlib.crc32(header) != struct.unpack("<I", header_crc)[0]
    ):
        walk.flaw(ChecksumMismatchError, "header checksum mismatch")
    kind, num_nodes, num_contacts, t_min, config, name = _read_header(
        _Walk(header, source, errors)
    )
    _check_counts(walk, num_nodes, num_contacts, len(walk.data))

    payloads: Dict[int, Buffer] = {}
    for tag in _SECTION_ORDER:
        what = _SECTION_NAMES[tag]
        # Section flaws carry the section's starting byte offset, so a
        # report pinpoints where in the container the damage lies.
        at = f" (at byte {walk.pos})"
        head = walk.take(min(9, walk.remaining), what)
        if head and head[0] != tag:
            walk.flaw(
                CorruptStreamError,
                f"expected {what} section (tag {tag}), found tag {head[0]}{at}",
            )
        if len(head) < 9:
            walk.flaw(
                TruncatedContainerError, f"{what}: section header missing{at}"
            )
            break
        (length,) = struct.unpack_from("<Q", head, 1)
        if length > _MAX_SECTION_BYTES:
            walk.flaw(
                LimitExceededError,
                f"{what}: {length} bytes exceeds section limit "
                f"{_MAX_SECTION_BYTES}{at}",
            )
            length = _MAX_SECTION_BYTES
        payload = payloads[tag] = walk.take(length, what, at=at)
        crc_field = walk.take(4, f"{what} checksum", at=at)
        if len(crc_field) < 4:
            continue
        (crc,) = struct.unpack("<I", crc_field)
        mismatch = f"{what} checksum mismatch{at}"
        if lazy_crc and tag in (_SECTION_STRUCTURE, _SECTION_TIMESTAMPS):
            # Offsets are fully decoded below (their pages are touched
            # anyway), so only the two stream sections are worth deferring.
            walk.deferred[tag] = _LazySectionCheck(
                payload, crc, f"{source}: {mismatch}"
            )
        elif zlib.crc32(payload) != crc:
            walk.flaw(ChecksumMismatchError, mismatch)
    if walk.remaining:
        walk.flaw(
            CorruptStreamError,
            f"{walk.remaining} trailing bytes after final section",
        )

    sbits, sbytes = _read_stream(
        walk, payloads.get(_SECTION_STRUCTURE, b""), "structure stream"
    )
    tbits, tbytes = _read_stream(
        walk, payloads.get(_SECTION_TIMESTAMPS, b""), "timestamp stream"
    )
    soffsets = _read_offset_section(
        walk, payloads.get(_SECTION_SOFFSETS, b""), num_nodes, "structure offsets"
    )
    toffsets = _read_offset_section(
        walk, payloads.get(_SECTION_TOFFSETS, b""), num_nodes, "timestamp offsets"
    )
    for offsets, nbits, what in (
        (soffsets, sbits, "structure offsets"),
        (toffsets, tbits, "timestamp offsets"),
    ):
        # Offsets never decrease, so those within the stream are a prefix.
        if offsets and offsets[-1] > nbits:
            walk.flaw(
                CorruptStreamError,
                f"{what}: offset {offsets[-1]} beyond {nbits}-bit stream",
            )
            del offsets[bisect_right(offsets, nbits):]
    usable = min(len(soffsets), len(toffsets))
    if usable < num_nodes:
        walk.flaw(
            CorruptStreamError,
            f"only {usable} of {num_nodes} node offsets recoverable",
        )
        del soffsets[usable:], toffsets[usable:]
    if usable and sbits < _MIN_STRUCTURE_BITS_PER_NODE * usable:
        walk.flaw(
            LimitExceededError,
            f"{usable} nodes cannot fit in a {sbits}-bit structure stream",
        )
    if num_contacts > 0 and tbits < num_contacts:
        walk.flaw(
            LimitExceededError,
            f"{num_contacts} contacts cannot fit in a {tbits}-bit timestamp "
            "stream",
        )
    # Offsets never decrease, so with the last one inside its stream every
    # entry fits the unsigned 64-bit array.
    graph = CompressedChronoGraph(
        kind=kind,
        num_nodes=usable,
        num_contacts=num_contacts,
        t_min=t_min,
        config=config,
        structure_bytes=sbytes,
        structure_bits=sbits,
        timestamp_bytes=tbytes,
        timestamp_bits=tbits,
        structure_offsets=array("Q", soffsets),
        timestamp_offsets=array("Q", toffsets),
        name=name,
    )
    graph._sverify = walk.deferred.get(_SECTION_STRUCTURE)
    graph._tverify = walk.deferred.get(_SECTION_TIMESTAMPS)
    return graph, num_nodes


def load_compressed_bytes(
    data: Buffer,
    *,
    source: str = "<bytes>",
    lazy_crc: bool = False,
) -> CompressedChronoGraph:
    """Parse an in-memory container produced by :func:`dumps_compressed`.

    Verifies every checksum and applies all decode limits; raises a
    :class:`repro.errors.FormatError` subclass on any integrity violation.
    The graph's streams are zero-copy views into ``data``, which must stay
    immutable for the graph's lifetime.

    With ``lazy_crc=True`` the two stream-section checksums are deferred to
    the first decode touching each stream (header, framing and offset
    checksums stay eager); the deferred check raises the same
    :class:`repro.errors.ChecksumMismatchError` the eager path would.
    Callers whose buffer integrity is already guaranteed elsewhere (e.g. a
    segment blob bound to a manifest CRC) use this to skip a redundant
    checksum pass.
    """
    return _walk(data, source, lazy_crc=lazy_crc)[0]


def _map_readonly(path: PathLike) -> Buffer:
    """Map ``path`` read-only and return a zero-copy view of its bytes.

    A slice of the returned ``memoryview`` keeps the underlying ``mmap``
    alive (memoryviews hold their exporter), so callers simply let views
    propagate; the mapping closes when the last view is garbage-collected.
    Empty files cannot be mapped and unmappable filesystems do exist, so
    both fall back to a plain heap read.
    """
    target = pathlib.Path(path)
    with open(target, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            # Sanctioned heap fallback for unmappable inputs.
            return target.read_bytes()  # repro: noqa[CG006]
    return memoryview(mapped)


def load_compressed(
    path: PathLike,
    *,
    salvage: bool = False,
    mmap: bool = False,
):
    """Read a compressed graph written by :func:`save_compressed`.

    With ``salvage=False`` (the default) the container is verified strictly
    -- checksums, section framing and decode limits -- and a
    :class:`CompressedChronoGraph` is returned; any integrity violation
    raises a :class:`repro.errors.FormatError` subclass.

    With ``mmap=True`` the container is memory-mapped read-only instead of
    read into the heap: the graph's streams walk the mapped pages directly,
    so any number of processes opening the same file share a single copy in
    the OS page cache.  Header, framing and offset checksums are verified
    eagerly (those pages are touched anyway); the two stream-section CRCs
    are verified lazily on the first decode that touches each stream, or
    at load time if the walk finds any other flaw.  Use ``repro verify``
    for an eager end-to-end check.  The mapped file must not be rewritten
    in place while the graph is live -- the saver's atomic rename
    discipline guarantees this for containers it wrote.

    With ``salvage=True`` nothing raises short of an unreadable *path*:
    the longest valid prefix of nodes is decoded best-effort and a
    :class:`repro.core.validate.SalvageReport` is returned, whose ``graph``
    attribute holds the recovered prefix (or ``None`` when not even the
    header survived).  Salvage always maps the file and walks sections as
    views, so inspecting a huge or truncated container does not require
    materialising it in heap memory first.
    """
    source = str(path)
    if salvage:
        return salvage_bytes(_map_readonly(path), source=source)
    if mmap:
        return load_compressed_bytes(
            _map_readonly(path), source=source, lazy_crc=True
        )
    # The explicit heap loader: materialising is the requested behaviour.
    blob = pathlib.Path(path).read_bytes()  # repro: noqa[CG006]
    return load_compressed_bytes(blob, source=source)


def salvage_bytes(data: Buffer, *, source: str = "<bytes>") -> SalvageReport:
    """Best-effort decode of a possibly-corrupt container.

    Walks the container under the salvage policy -- checksum mismatches,
    truncated sections and out-of-range fields are recorded as report
    errors rather than raised -- then decodes nodes from the start until
    the first flawed one.  The result is the longest valid prefix, wrapped
    in a :class:`repro.core.validate.SalvageReport`.
    """
    errors: List[str] = []
    try:
        graph, nodes_declared = _walk(data, source, errors)
    except _Unreadable:
        return SalvageReport(
            graph=None,
            nodes_declared=0,
            nodes_recovered=0,
            contacts_declared=0,
            contacts_recovered=0,
            errors=errors,
        )
    return salvage_scan(graph, errors=errors, nodes_declared=nodes_declared)
