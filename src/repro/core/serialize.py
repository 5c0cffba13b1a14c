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
  the actual file size *before* any proportional allocation, so a flipped
  header byte can never trigger a multi-gigabyte allocation or an unbounded
  loop.

All integers are little-endian.  Every failure mode raises an exception
from the :class:`repro.errors.FormatError` hierarchy.  VERSION 2 is the only
version read or written; any other version byte raises
:class:`repro.errors.UnsupportedVersionError`.

``load_compressed(path, salvage=True)`` switches to best-effort decoding:
instead of raising, it returns a :class:`repro.core.validate.SalvageReport`
describing the longest valid prefix of nodes that could be recovered.

Buffer discipline
-----------------

The read path is zero-copy end to end: :class:`_Cursor` wraps whatever
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

import dataclasses
import io
import mmap
import pathlib
import struct
import zlib
from array import array
from bisect import bisect_right
from typing import BinaryIO, List, Optional, Tuple, Union

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
    "DecodeLimits",
    "DEFAULT_LIMITS",
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

PathLike = Union[str, pathlib.Path]


@dataclasses.dataclass(frozen=True)
class DecodeLimits:
    """Hard ceilings applied while parsing an untrusted container.

    These are sanity bounds, not tuning knobs: a legitimate container never
    comes near them, and breaching one raises
    :class:`repro.errors.LimitExceededError` before any allocation sized by
    the offending field.
    """

    #: Largest accepted node count.
    max_nodes: int = 1 << 40
    #: Largest accepted contact count.
    max_contacts: int = 1 << 48
    #: Largest accepted single-section payload, in bytes.
    max_section_bytes: int = 1 << 40


#: Limits used when the caller does not supply their own.
DEFAULT_LIMITS = DecodeLimits()


class _Cursor:
    """Bounded reader over an in-memory container with typed failures.

    The buffer is wrapped in a ``memoryview`` once, so every
    :meth:`read_exact` returns a zero-copy view into the container --
    multi-megabyte stream sections are never duplicated, whether the
    container lives on the heap or in a memory-mapped file.
    """

    def __init__(self, data: Buffer, source: str) -> None:
        self._data = data if isinstance(data, memoryview) else memoryview(data)
        self._pos = 0
        self.source = source

    @property
    def remaining(self) -> int:
        """Bytes left between the cursor and the end of the container."""
        return len(self._data) - self._pos

    def read_exact(self, n: int, what: str) -> memoryview:
        """Read exactly ``n`` bytes or raise :class:`TruncatedContainerError`."""
        if n < 0 or n > self.remaining:
            raise TruncatedContainerError(
                f"{self.source}: truncated container: {what} wants {n} bytes, "
                f"only {self.remaining} remain"
            )
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        """Read and unpack a fixed-width little-endian struct."""
        return struct.unpack(fmt, self.read_exact(struct.calcsize(fmt), what))


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
# Reading -- shared helpers
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


def _decode_offset_deltas(
    data: Buffer, count: int, source: str, what: str
) -> List[int]:
    """Decode ``count`` VByte deltas into absolute offsets."""
    if count > len(data):
        # Every VByte delta occupies at least one byte.
        raise LimitExceededError(
            f"{source}: {what}: {count} offsets declared but only "
            f"{len(data)} payload bytes"
        )
    offsets = _read_offsets(data, count)
    if offsets and offsets[-1] >= _OVERLONG:
        raise CorruptStreamError(
            f"{source}: {what}: offset {offsets[-1]} beyond any 64-bit stream"
        )
    if len(offsets) < count:
        raise EndOfStreamError(
            f"{source}: {what}: delta stream ends after {len(offsets)} "
            f"of {count} offsets"
        )
    return offsets


def _check_stream_geometry(
    nbits: int, nbytes: int, source: str, what: str
) -> None:
    if nbits > 8 * nbytes or (nbits + 7) // 8 != nbytes:
        raise CorruptStreamError(
            f"{source}: {what}: declared {nbits} bits inconsistent with "
            f"{nbytes} payload bytes"
        )


def _check_counts(
    num_nodes: int,
    num_contacts: int,
    file_size: int,
    limits: DecodeLimits,
    source: str,
) -> None:
    """Reject node/contact counts no container of this size could hold."""
    if num_nodes > limits.max_nodes:
        raise LimitExceededError(
            f"{source}: {num_nodes} nodes exceeds limit {limits.max_nodes}"
        )
    if num_contacts > limits.max_contacts:
        raise LimitExceededError(
            f"{source}: {num_contacts} contacts exceeds limit "
            f"{limits.max_contacts}"
        )
    # Each node costs >= 4 structure bits plus >= 2 offset bytes; each
    # contact >= 1 timestamp bit.  A count past these bounds cannot fit.
    if num_nodes > 2 * file_size:
        raise LimitExceededError(
            f"{source}: {num_nodes} nodes impossible in a "
            f"{file_size}-byte container"
        )
    if num_contacts > 8 * file_size:
        raise LimitExceededError(
            f"{source}: {num_contacts} contacts impossible in a "
            f"{file_size}-byte container"
        )


def _parse_header_fields(
    cur: _Cursor, source: str
) -> Tuple[GraphKind, int, int, int, ChronoGraphConfig, str]:
    (kind_code,) = cur.unpack("<B", "kind")
    try:
        kind = _KIND_FROM_CODE[kind_code]
    except KeyError:
        raise CorruptStreamError(
            f"{source}: unknown graph kind code {kind_code}"
        ) from None
    num_nodes, num_contacts, t_min = cur.unpack("<QQq", "counts")
    (window, min_interval, max_ref, ts_k, dur_k, struct_k, resolution) = (
        cur.unpack("<7I", "config")
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
        raise CorruptStreamError(f"{source}: invalid config: {exc}") from exc
    (name_len,) = cur.unpack("<B", "name length")
    try:
        # The one sanctioned copy on the load path: a <=255-byte name field
        # (memoryview has no .decode).
        name = bytes(cur.read_exact(name_len, "name")).decode("utf-8")  # repro: noqa[CG006]
    except UnicodeDecodeError as exc:
        raise CorruptStreamError(f"{source}: name is not valid UTF-8") from exc
    return kind, num_nodes, num_contacts, t_min, config, name


def _assemble_graph(
    *,
    kind: GraphKind,
    num_nodes: int,
    num_contacts: int,
    t_min: int,
    config: ChronoGraphConfig,
    name: str,
    sbits: int,
    sbytes: Buffer,
    tbits: int,
    tbytes: Buffer,
    soffsets: List[int],
    toffsets: List[int],
    source: str,
) -> CompressedChronoGraph:
    for offsets, nbits, what in (
        (soffsets, sbits, "structure offsets"),
        (toffsets, tbits, "timestamp offsets"),
    ):
        if len(offsets) != num_nodes:
            raise CorruptStreamError(
                f"{source}: {what}: {len(offsets)} entries for "
                f"{num_nodes} nodes"
            )
        if offsets and offsets[-1] > nbits:
            raise CorruptStreamError(
                f"{source}: {what}: offset {offsets[-1]} beyond "
                f"{nbits}-bit stream"
            )
    if num_nodes > 0 and sbits < _MIN_STRUCTURE_BITS_PER_NODE * num_nodes:
        raise LimitExceededError(
            f"{source}: {num_nodes} nodes cannot fit in a "
            f"{sbits}-bit structure stream"
        )
    if num_contacts > 0 and tbits < num_contacts:
        raise LimitExceededError(
            f"{source}: {num_contacts} contacts cannot fit in a "
            f"{tbits}-bit timestamp stream"
        )
    # Offsets never decrease, so with the last one inside its stream every
    # entry fits the unsigned 64-bit array.
    return CompressedChronoGraph(
        kind=kind,
        num_nodes=num_nodes,
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


# --------------------------------------------------------------------------
# Reading -- strict paths
# --------------------------------------------------------------------------

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


def _load_v2_body(
    cur: _Cursor, limits: DecodeLimits, source: str, *, lazy_crc: bool = False
) -> CompressedChronoGraph:
    (flags,) = cur.unpack("<B", "flags")
    if flags != 0:
        raise UnsupportedVersionError(
            f"{source}: unknown container flags 0x{flags:02x}"
        )
    (header_len,) = cur.unpack("<I", "header length")
    header = cur.read_exact(header_len, "header")
    (header_crc,) = cur.unpack("<I", "header checksum")
    if zlib.crc32(header) != header_crc:
        raise ChecksumMismatchError(f"{source}: header checksum mismatch")
    hcur = _Cursor(header, source)
    kind, num_nodes, num_contacts, t_min, config, name = _parse_header_fields(
        hcur, source
    )
    _check_counts(num_nodes, num_contacts, len(cur._data), limits, source)

    payloads = {}
    deferred: List[Tuple[int, _LazySectionCheck]] = []
    try:
        for expected_tag in _SECTION_ORDER:
            what = _SECTION_NAMES[expected_tag]
            (tag,) = cur.unpack("<B", "section tag")
            if tag != expected_tag:
                raise CorruptStreamError(
                    f"{source}: expected {what} section (tag {expected_tag}), "
                    f"found tag {tag}"
                )
            (payload_len,) = cur.unpack("<Q", f"{what} length")
            if payload_len > limits.max_section_bytes:
                raise LimitExceededError(
                    f"{source}: {what}: {payload_len} bytes exceeds section "
                    f"limit {limits.max_section_bytes}"
                )
            payload = cur.read_exact(payload_len, what)
            (crc,) = cur.unpack("<I", f"{what} checksum")
            check = _LazySectionCheck(
                payload, crc, f"{source}: {what} checksum mismatch"
            )
            if lazy_crc and expected_tag in (
                _SECTION_STRUCTURE, _SECTION_TIMESTAMPS
            ):
                # Offsets are fully decoded below (their pages are touched
                # anyway), so only the two stream sections are worth
                # deferring.
                deferred.append((expected_tag, check))
            else:
                check()
            payloads[expected_tag] = payload
        if cur.remaining:
            raise CorruptStreamError(
                f"{source}: {cur.remaining} trailing bytes after final section"
            )

        streams = {}
        for tag in (_SECTION_STRUCTURE, _SECTION_TIMESTAMPS):
            what = _SECTION_NAMES[tag]
            payload = payloads[tag]
            if len(payload) < 8:
                raise TruncatedContainerError(
                    f"{source}: {what}: payload too short"
                )
            (nbits,) = struct.unpack("<Q", payload[:8])
            data = payload[8:]
            _check_stream_geometry(nbits, len(data), source, what)
            streams[tag] = (nbits, data)

        offset_lists = {}
        for tag in (_SECTION_SOFFSETS, _SECTION_TOFFSETS):
            what = _SECTION_NAMES[tag]
            payload = payloads[tag]
            if len(payload) < 8:
                raise TruncatedContainerError(
                    f"{source}: {what}: payload too short"
                )
            (count,) = struct.unpack("<Q", payload[:8])
            if count != num_nodes:
                raise CorruptStreamError(
                    f"{source}: {what}: {count} entries for {num_nodes} nodes"
                )
            offset_lists[tag] = _decode_offset_deltas(
                payload[8:], count, source, what
            )

        sbits, sbytes = streams[_SECTION_STRUCTURE]
        tbits, tbytes = streams[_SECTION_TIMESTAMPS]
        graph = _assemble_graph(
            kind=kind,
            num_nodes=num_nodes,
            num_contacts=num_contacts,
            t_min=t_min,
            config=config,
            name=name,
            sbits=sbits,
            sbytes=sbytes,
            tbits=tbits,
            tbytes=tbytes,
            soffsets=offset_lists[_SECTION_SOFFSETS],
            toffsets=offset_lists[_SECTION_TOFFSETS],
            source=source,
        )
    except FormatError:
        # A corrupted stream section can masquerade as a geometry or
        # cross-check error before its checksum was ever read.  Verify the
        # deferred CRCs now so a lazy load fails with the same exception
        # class the eager path raises for the same mutation.
        for _, check in deferred:
            check()
        raise
    for tag, check in deferred:
        if tag == _SECTION_STRUCTURE:
            graph._sverify = check
        else:
            graph._tverify = check
    return graph


def load_compressed_bytes(
    data: Buffer,
    *,
    limits: Optional[DecodeLimits] = None,
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
    limits = limits or DEFAULT_LIMITS
    cur = _Cursor(data, source)
    if cur.read_exact(4, "magic") != MAGIC:
        raise FormatError(f"{source}: not a ChronoGraph file (bad magic)")
    (version,) = cur.unpack("<B", "version")
    if version != VERSION:
        raise UnsupportedVersionError(f"{source}: unsupported version {version}")
    return _load_v2_body(cur, limits, source, lazy_crc=lazy_crc)


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
    limits: Optional[DecodeLimits] = None,
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
    are verified lazily on the first decode that touches each stream.  Use
    ``repro verify --deep`` for an eager end-to-end check.  The mapped file
    must not be rewritten in place while the graph is live -- the saver's
    atomic rename discipline guarantees this for containers it wrote.

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
        return salvage_bytes(_map_readonly(path), limits=limits, source=source)
    if mmap:
        return load_compressed_bytes(
            _map_readonly(path), limits=limits, source=source, lazy_crc=True
        )
    # The explicit heap loader: materialising is the requested behaviour.
    blob = pathlib.Path(path).read_bytes()  # repro: noqa[CG006]
    return load_compressed_bytes(blob, limits=limits, source=source)


# --------------------------------------------------------------------------
# Salvage (best-effort) reading
# --------------------------------------------------------------------------

def _split_part(part: Buffer) -> Optional[Tuple[int, Buffer]]:
    """``(u64 prefix, body)`` views of a salvaged section payload, or None."""
    if len(part) < 8:
        return None
    (value,) = struct.unpack("<Q", part[:8])
    return value, part[8:]


def _salvage_offsets(
    part: Buffer, want: int, nbits: int, errors: List[str], what: str
) -> List[int]:
    """Decode as many in-range offsets as the payload yields, never raising."""
    split = _split_part(part)
    if split is None:
        errors.append(f"{what}: payload too short for a count field")
        return []
    count, data = split
    if count != want:
        errors.append(f"{what}: {count} entries declared for {want} nodes")
    count = min(count, want, len(data))
    offsets = _read_offsets(data, count)
    # Offsets never decrease, so those within the stream are a prefix.
    keep = bisect_right(offsets, nbits)
    if keep < len(offsets):
        errors.append(
            f"{what}: offset {offsets[keep]} beyond {nbits}-bit stream"
        )
        del offsets[keep:]
    elif len(offsets) < count:
        errors.append(f"{what}: delta stream ended early")
    return offsets


def _salvage_stream(
    part: Buffer, errors: List[str], what: str
) -> Tuple[int, Buffer]:
    """Recover (nbits, data) from a stream payload, clipping as needed."""
    split = _split_part(part)
    if split is None:
        errors.append(f"{what}: payload too short for a length field")
        return 0, b""
    nbits, data = split
    if nbits > 8 * len(data):
        errors.append(
            f"{what}: declared {nbits} bits exceed {len(data)} payload bytes"
        )
        nbits = 8 * len(data)
    return nbits, data


def salvage_bytes(
    data: Buffer,
    *,
    limits: Optional[DecodeLimits] = None,
    source: str = "<bytes>",
) -> SalvageReport:
    """Best-effort decode of a possibly-corrupt container.

    Walks the container leniently -- checksum mismatches, truncated
    sections and out-of-range fields are recorded as report errors rather
    than raised -- then decodes nodes from the start until the first decode
    failure.  The result is the longest valid prefix, wrapped in a
    :class:`repro.core.validate.SalvageReport`.
    """
    limits = limits or DEFAULT_LIMITS
    errors: List[str] = []

    # Fast path: a pristine container needs no leniency.
    try:
        graph = load_compressed_bytes(data, limits=limits, source=source)
    except FormatError as exc:
        strict = str(exc)
    else:
        return salvage_scan(graph, errors=[])

    parts = _salvage_parts(data, limits, source, errors)
    # The lenient parse reports the flaw the strict loader stopped at, and
    # every later one; the strict message stands only for a flaw the
    # lenient parse tolerates.
    if not errors:
        errors.append(strict)
    if parts is None:
        return SalvageReport(
            graph=None,
            nodes_declared=0,
            nodes_recovered=0,
            contacts_declared=0,
            contacts_recovered=0,
            errors=errors,
        )
    return salvage_scan(parts, errors=errors)


def _salvage_parts(
    data: Buffer, limits: DecodeLimits, source: str, errors: List[str]
) -> Optional[CompressedChronoGraph]:
    """Lenient parse returning a best-effort graph, or None if unreadable."""
    if len(data) < 5 or data[:4] != MAGIC:
        errors.append(f"{source}: not a ChronoGraph file (bad magic)")
        return None
    version = data[4]
    if version != VERSION:
        errors.append(f"{source}: unsupported version {version}")
        return None

    cur = _Cursor(data, source)
    cur._pos = 6  # skip the flags byte; salvage tolerates any value
    try:
        (header_len,) = cur.unpack("<I", "header length")
        header = cur.read_exact(min(header_len, cur.remaining), "header")
        if cur.remaining >= 4:
            (header_crc,) = cur.unpack("<I", "header checksum")
            if zlib.crc32(header) != header_crc:
                errors.append("header checksum mismatch")
        else:
            errors.append("header checksum missing")
        kind, num_nodes, num_contacts, t_min, config, name = (
            _parse_header_fields(_Cursor(header, source), source)
        )
    except FormatError as exc:
        errors.append(f"header unreadable: {exc}")
        return None
    try:
        _check_counts(num_nodes, num_contacts, len(data), limits, source)
    except FormatError as exc:
        errors.append(str(exc))
        return None

    # Section errors carry the section's starting byte offset so a report
    # pinpoints *where* in the container the damage lies -- operators (and
    # the fault-matrix tests) can correlate entries with hexdump offsets.
    payloads = {}
    for expected_tag in _SECTION_ORDER:
        what = _SECTION_NAMES[expected_tag]
        section_start = cur._pos
        at = f"at byte {section_start}"
        if cur.remaining < 9:
            errors.append(f"{what}: section header missing ({at})")
            break
        (tag,) = cur.unpack("<B", "section tag")
        (payload_len,) = cur.unpack("<Q", f"{what} length")
        if tag != expected_tag:
            errors.append(f"{what}: unexpected section tag {tag} ({at})")
        take = min(payload_len, cur.remaining, limits.max_section_bytes)
        if take != payload_len:
            errors.append(
                f"{what}: declared {payload_len} bytes, "
                f"clipped to {take} ({at})"
            )
        payload = cur.read_exact(take, what)
        if cur.remaining >= 4:
            (crc,) = cur.unpack("<I", f"{what} checksum")
            if zlib.crc32(payload) != crc:
                errors.append(f"{what} checksum mismatch ({at})")
        else:
            errors.append(f"{what}: checksum missing ({at})")
            cur._pos = len(data)
        payloads[expected_tag] = payload

    sbits, sbytes = _salvage_stream(
        payloads.get(_SECTION_STRUCTURE, b""), errors, "structure stream"
    )
    tbits, tbytes = _salvage_stream(
        payloads.get(_SECTION_TIMESTAMPS, b""), errors, "timestamp stream"
    )
    soffsets = _salvage_offsets(
        payloads.get(_SECTION_SOFFSETS, b""),
        num_nodes, sbits, errors, "structure offsets",
    )
    toffsets = _salvage_offsets(
        payloads.get(_SECTION_TOFFSETS, b""),
        num_nodes, tbits, errors, "timestamp offsets",
    )
    usable = min(num_nodes, len(soffsets), len(toffsets))
    if usable < num_nodes:
        errors.append(
            f"only {usable} of {num_nodes} node offsets recoverable"
        )
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
        structure_offsets=array("Q", soffsets[:usable]),
        timestamp_offsets=array("Q", toffsets[:usable]),
        name=name,
    )
    graph._declared_nodes = num_nodes
    return graph
