"""Systematic fault injection over ``.chrono`` containers.

The mutators each take the bytes of a *valid* container and yield
:class:`Mutation` variants of it: single-bit flips on a stride, prefix
truncations, junk extensions, permutations of the VERSION 2 sections and
seeded random-region overwrites.  :func:`run_fault_injection` drives any
iterable of mutations through a full load-and-decode cycle and classifies
every outcome against the robustness contract:

* ``identical`` -- the mutation decoded to exactly the baseline contacts
  (e.g. the flip landed in a byte the decoder never dereferences);
* ``detected`` -- decoding raised from the
  :class:`repro.errors.FormatError` hierarchy;
* ``mismatch`` -- decoded without error but to *different* contacts
  (a silent corruption: always a failure);
* ``escaped`` -- raised anything outside ``FormatError`` (a failure);
* ``overbudget`` -- took longer than the per-mutation time budget
  (a proxy for hangs; always a failure).

All mutators are deterministic (random ones take a seed), so a passing
campaign stays passing.

Two further surfaces cover the crash-safe persistence layer (PR 3):

* **WAL mutations** -- :func:`wal_truncate_mutations` (record-boundary and
  mid-record cuts), :func:`wal_crc_flip_mutations` (checksum and payload
  flips) and :func:`wal_generation_mutations` (headers whose own CRC is
  *valid* but whose binding is wrong), driven by
  :func:`run_wal_fault_injection` through read-only opens of a segment
  store's tail log: the store must serve its segments plus exactly a
  prefix of the committed batches, and any dropped suffix must be
  reported, never silent.
* **Crash points** -- :class:`FaultyFilesystem` implements the
  :class:`repro.storage.atomic.Filesystem` surface but dies
  (:class:`CrashPoint`) at the N-th mutating operation;
  :func:`crash_points` iterates N upward until the action survives,
  giving an exhaustive every-possible-crash matrix for any write path.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import os
import pathlib
import random
import reprlib
import shutil
import struct
import time
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.engine import PART_QUESTIONS
from repro.core.serialize import (
    DecodeLimits,
    MAGIC,
    load_compressed_bytes,
    salvage_bytes,
)
from repro.errors import FormatError
from repro.graph.model import TemporalGraph
from repro.runtime.context import QueryContext, checkpoint_ambient
from repro.service.client import ServiceError
from repro.service.protocol import QUERY_OPS
from repro.storage.atomic import Filesystem

__all__ = [
    "Mutation",
    "FaultResult",
    "FaultInjectionReport",
    "bit_flip_mutations",
    "truncate_mutations",
    "extend_mutations",
    "section_shuffle_mutations",
    "random_region_mutations",
    "default_mutations",
    "run_fault_injection",
    "run_mmap_fault_injection",
    "CrashPoint",
    "FaultyFilesystem",
    "crash_points",
    "wal_truncate_mutations",
    "wal_crc_flip_mutations",
    "wal_generation_mutations",
    "default_wal_mutations",
    "run_wal_fault_injection",
    "manifest_field_mutations",
    "default_manifest_mutations",
    "run_segment_store_fault_injection",
    "run_segment_crash_matrix",
    "first_divergence",
    "StepClock",
    "SlowFilesystem",
    "StallingGraph",
    "ChaosReport",
    "run_chaos_harness",
]


@dataclasses.dataclass(frozen=True)
class Mutation:
    """One corrupted variant of a container, with a descriptive name."""

    name: str
    data: bytes


# --------------------------------------------------------------------------
# Mutators
# --------------------------------------------------------------------------

def bit_flip_mutations(
    data: bytes, *, stride_bits: int = 64, start_bit: int = 0
) -> Iterator[Mutation]:
    """Flip every ``stride_bits``-th bit of the container, one at a time.

    ``stride_bits=1`` exhausts every bit; the default keeps campaigns on
    larger containers tractable while still touching every region.
    """
    if stride_bits < 1:
        raise ValueError(f"stride_bits must be >= 1, got {stride_bits}")
    for bit in range(start_bit, 8 * len(data), stride_bits):
        mutated = bytearray(data)
        mutated[bit >> 3] ^= 0x80 >> (bit & 7)
        yield Mutation(f"bitflip@{bit}", bytes(mutated))


def truncate_mutations(data: bytes, *, steps: int = 24) -> Iterator[Mutation]:
    """Yield ``steps`` evenly spaced strict prefixes of the container."""
    n = len(data)
    seen = set()
    for i in range(steps):
        keep = (n * i) // steps
        if keep >= n or keep in seen:
            continue
        seen.add(keep)
        yield Mutation(f"truncate@{keep}", data[:keep])


def extend_mutations(
    data: bytes, *, tails: Sequence[int] = (1, 8, 64, 4096)
) -> Iterator[Mutation]:
    """Append junk tails (zero and 0xFF runs) after the final section."""
    for tail in tails:
        yield Mutation(f"extend+{tail}x00", data + b"\x00" * tail)
        yield Mutation(f"extend+{tail}xff", data + b"\xff" * tail)


def _v2_section_spans(data: bytes) -> Optional[List[tuple]]:
    """(start, end) byte spans of the four framed sections, or None."""
    if len(data) < 10 or data[:4] != MAGIC or data[4] != 2:
        return None
    (header_len,) = struct.unpack_from("<I", data, 6)
    pos = 10 + header_len + 4
    spans = []
    for _ in range(4):
        if pos + 9 > len(data):
            return None
        (payload_len,) = struct.unpack_from("<Q", data, pos + 1)
        end = pos + 9 + payload_len + 4
        if end > len(data):
            return None
        spans.append((pos, end))
        pos = end
    if pos != len(data):
        return None
    return spans


def section_shuffle_mutations(data: bytes) -> Iterator[Mutation]:
    """Permute the order of the four VERSION 2 sections.

    Yields nothing for containers that are not well-formed VERSION 2 (the
    section table cannot be located without valid framing).
    """
    spans = _v2_section_spans(data)
    if spans is None:
        return
    prefix = data[: spans[0][0]]
    sections = [data[a:b] for a, b in spans]
    for order in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 2, 1, 0)):
        shuffled = prefix + b"".join(sections[i] for i in order)
        yield Mutation(f"shuffle{order}", shuffled)


def random_region_mutations(
    data: bytes, *, seed: int = 0, count: int = 64, max_len: int = 16
) -> Iterator[Mutation]:
    """Overwrite ``count`` seeded-random regions with random bytes."""
    rng = random.Random(seed)
    if not data:
        return
    for i in range(count):
        start = rng.randrange(len(data))
        length = min(1 + rng.randrange(max_len), len(data) - start)
        junk = bytes(rng.randrange(256) for _ in range(length))
        mutated = bytearray(data)
        mutated[start : start + length] = junk
        yield Mutation(f"region@{start}+{length}#{i}", bytes(mutated))


def default_mutations(
    data: bytes, *, stride_bits: int = 8, seed: int = 0
) -> Iterator[Mutation]:
    """The standard campaign: all five mutator families, chained."""
    yield from bit_flip_mutations(data, stride_bits=stride_bits)
    yield from truncate_mutations(data)
    yield from extend_mutations(data)
    yield from section_shuffle_mutations(data)
    yield from random_region_mutations(data, seed=seed)


# --------------------------------------------------------------------------
# Harness
# --------------------------------------------------------------------------

@dataclasses.dataclass
class FaultResult:
    """Classification of a single mutation's decode attempt."""

    mutation: str
    outcome: str
    detail: str = ""
    elapsed: float = 0.0

    @property
    def failed(self) -> bool:
        """Whether this outcome violates the robustness contract."""
        return self.outcome in ("mismatch", "escaped", "overbudget")


@dataclasses.dataclass
class FaultInjectionReport:
    """Aggregate outcome of a fault-injection campaign.

    ``unit`` names what one entry is, for :meth:`summary`: a byte or
    filesystem ``mutations`` campaign, or the ``crash points`` of
    :func:`run_segment_crash_matrix`.
    """

    total: int = 0
    identical: int = 0
    detected: int = 0
    failures: List[FaultResult] = dataclasses.field(default_factory=list)
    slowest: float = 0.0
    unit: str = "mutations"

    @property
    def ok(self) -> bool:
        """Whether every mutation round-tripped or was cleanly detected."""
        return not self.failures

    def book(self, result: FaultResult, time_budget: float = math.inf) -> None:
        """Count one finished outcome; past ``time_budget`` it is ``overbudget``.

        Taking longer than the per-mutation budget is the hang proxy: it
        overrides whatever the attempt concluded.
        """
        if result.elapsed > time_budget:
            result = FaultResult(
                result.mutation,
                "overbudget",
                f"{result.elapsed:.2f}s > {time_budget:.2f}s budget",
                result.elapsed,
            )
        self.total += 1
        self.slowest = max(self.slowest, result.elapsed)
        if result.outcome == "identical":
            self.identical += 1
        elif result.outcome == "detected":
            self.detected += 1
        if result.failed:
            self.failures.append(result)

    def summary(self) -> str:
        """One-paragraph human-readable account of the campaign."""
        lines = [
            f"{self.total} {self.unit}: {self.identical} identical, "
            f"{self.detected} detected, {len(self.failures)} failures "
            f"(slowest {self.slowest * 1000:.1f} ms)"
        ]
        for failure in self.failures[:20]:
            lines.append(
                f"  - {failure.mutation}: {failure.outcome} {failure.detail}"
            )
        return "\n".join(lines)


def _decode_fully(blob: bytes, limits: Optional[DecodeLimits]) -> list:
    graph = load_compressed_bytes(blob, limits=limits)
    return list(graph.iter_contacts())


def run_fault_injection(
    container: bytes,
    mutations: Iterable[Mutation],
    *,
    time_budget: float = 5.0,
    limits: Optional[DecodeLimits] = None,
    check_salvage: bool = False,
) -> FaultInjectionReport:
    """Drive mutations through load-and-full-decode and classify outcomes.

    ``container`` must be a valid container; its decoded contacts are the
    baseline every mutation is compared against.  ``time_budget`` is the
    per-mutation ceiling in seconds (exceeding it is recorded as an
    ``overbudget`` failure -- the hang proxy).  With ``check_salvage`` the
    harness additionally asserts that salvage-mode loading never raises on
    any mutation.
    """
    baseline = _decode_fully(container, limits)
    report = FaultInjectionReport()
    for mutation in mutations:
        start = time.perf_counter()
        detail = ""
        try:
            contacts = _decode_fully(mutation.data, limits)
        except FormatError as exc:
            outcome = "detected"
            detail = f"{type(exc).__name__}"
        except Exception as exc:  # noqa: BLE001 - the contract under test
            outcome = "escaped"
            detail = repr(exc)
        else:
            if contacts == baseline:
                outcome = "identical"
            else:
                outcome = "mismatch"
                detail = f"{len(contacts)} vs {len(baseline)} contacts"
        elapsed = time.perf_counter() - start
        if check_salvage and elapsed <= time_budget:
            try:
                salvage_bytes(mutation.data, limits=limits)
            except Exception as exc:  # noqa: BLE001 - salvage must not raise
                outcome = "escaped"
                detail = f"salvage raised {exc!r}"
        report.book(
            FaultResult(mutation.name, outcome, detail, elapsed), time_budget
        )
    return report


def run_mmap_fault_injection(
    container: bytes,
    mutations: Iterable[Mutation],
    *,
    time_budget: float = 5.0,
    limits: Optional[DecodeLimits] = None,
) -> FaultInjectionReport:
    """Assert lazy-CRC (mmap-mode) loading has outcome parity with eager.

    Every mutation is decoded twice: eagerly (the default
    :func:`load_compressed_bytes` path) and lazily (``lazy_crc=True`` --
    the ``load_compressed(mmap=True)`` path -- followed by a full decode
    so every deferred stream checksum fires).  The contract extends the
    eager one with *parity*:

    * if the eager path raises a :class:`FormatError` subclass, the lazy
      path must raise the **same subclass** (at load time or at first
      stream touch -- never succeed silently);
    * if the eager path decodes contacts, the lazy path must decode the
      identical contacts.

    Parity violations are recorded as ``mismatch`` failures with both
    sides' outcomes in the detail.
    """
    baseline = _decode_fully(container, limits)
    report = FaultInjectionReport()

    def attempt(decode: Callable[[], list]) -> Tuple[str, object]:
        try:
            return "contacts", decode()
        except FormatError as exc:
            return "error", type(exc).__name__
        except Exception as exc:  # noqa: BLE001 - the contract under test
            return "escaped", repr(exc)

    for mutation in mutations:
        start = time.perf_counter()
        detail = ""
        eager_kind, eager_value = attempt(
            lambda: _decode_fully(mutation.data, limits)
        )
        lazy_kind, lazy_value = attempt(
            lambda: list(
                load_compressed_bytes(
                    memoryview(mutation.data), limits=limits, lazy_crc=True
                ).iter_contacts()
            )
        )
        if eager_kind == "escaped" or lazy_kind == "escaped":
            outcome = "escaped"
            detail = str(eager_value if eager_kind == "escaped" else lazy_value)
        elif eager_kind != lazy_kind:
            outcome = "mismatch"
            detail = (
                f"eager {eager_kind}:{eager_value if eager_kind == 'error' else ''} "
                f"vs lazy {lazy_kind}:{lazy_value if lazy_kind == 'error' else ''}"
            )
        elif eager_kind == "error":
            if eager_value == lazy_value:
                outcome = "detected"
                detail = str(eager_value)
            else:
                outcome = "mismatch"
                detail = f"eager raised {eager_value}, lazy raised {lazy_value}"
        else:
            if eager_value != lazy_value:
                outcome = "mismatch"
                detail = "eager and lazy decoded different contacts"
            elif eager_value == baseline:
                outcome = "identical"
            else:
                outcome = "mismatch"
                detail = f"{len(eager_value)} vs {len(baseline)} contacts"  # type: ignore[arg-type]
        elapsed = time.perf_counter() - start
        report.book(
            FaultResult(mutation.name, outcome, detail, elapsed), time_budget
        )
    return report


# --------------------------------------------------------------------------
# Crash-point injection over the filesystem shim
# --------------------------------------------------------------------------

class CrashPoint(OSError):
    """Simulated process death, raised by :class:`FaultyFilesystem`.

    Subclasses :class:`OSError` (with ``errno`` left ``None``) so cleanup
    code written for real I/O errors handles it, while the retry policy's
    transient-errno check never swallows it.
    """


class FaultyFilesystem(Filesystem):
    """A :class:`repro.storage.atomic.Filesystem` that injects faults.

    Mutating operations (``write``, ``fsync``, ``fsync_dir``, ``replace``,
    ``truncate``, ``remove``) are numbered 0, 1, 2, ... in call order:

    * ``crash_at=N`` makes operation N die with :class:`CrashPoint`
      *instead of happening* -- except a crashing ``write``, which first
      lands ``partial_bytes`` of its data (crash-at-byte-N); every later
      mutating operation and ``open`` also raise, modelling a dead
      process (``close`` still works so tests do not leak descriptors);
    * ``errors={N: errno}`` makes operation N fail once with that errno
      and lets subsequent calls proceed (transient / ``ENOSPC`` faults).

    ``ops`` journals every mutating call as ``(index, name)`` so tests
    can assert what a write path actually did.
    """

    def __init__(
        self,
        *,
        crash_at: Optional[int] = None,
        partial_bytes: int = 0,
        errors: Optional[Dict[int, int]] = None,
    ) -> None:
        self.crash_at = crash_at
        self.partial_bytes = partial_bytes
        self.errors = dict(errors or {})
        self.ops: List[Tuple[int, str]] = []
        self.crashed = False
        self._next = 0

    def _gate(self, name: str) -> bool:
        """Count one mutating op; True means "crash now"."""
        if self.crashed:
            raise CrashPoint(f"filesystem dead after crash ({name})")
        index = self._next
        self._next += 1
        self.ops.append((index, name))
        err = self.errors.pop(index, None)
        if err is not None:
            raise OSError(err, os.strerror(err))
        if self.crash_at is not None and index >= self.crash_at:
            self.crashed = True
            return True
        return False

    def open(self, path: str, flags: int, mode: int = 0o666) -> int:
        if self.crashed:
            raise CrashPoint("filesystem dead after crash (open)")
        return super().open(path, flags, mode)

    def write(self, fd: int, data: bytes) -> int:
        if self._gate("write"):
            if self.partial_bytes > 0:
                os.write(fd, bytes(data)[: self.partial_bytes])
            raise CrashPoint("crash during write")
        return super().write(fd, data)

    def fsync(self, fd: int) -> None:
        if self._gate("fsync"):
            raise CrashPoint("crash during fsync")
        super().fsync(fd)

    def fsync_dir(self, path: str) -> None:
        if self._gate("fsync_dir"):
            raise CrashPoint("crash during fsync_dir")
        super().fsync_dir(path)

    def replace(self, src: str, dst: str) -> None:
        if self._gate("replace"):
            raise CrashPoint("crash during replace")
        super().replace(src, dst)

    def truncate(self, fd: int, length: int) -> None:
        if self._gate("truncate"):
            raise CrashPoint("crash during truncate")
        super().truncate(fd, length)

    def remove(self, path: str) -> None:
        if self._gate("remove"):
            raise CrashPoint("crash during remove")
        super().remove(path)


def crash_points(
    action: Callable[[FaultyFilesystem], None],
    *,
    partial_bytes: int = 0,
    max_points: int = 10_000,
) -> Iterator[Tuple[int, FaultyFilesystem]]:
    """Run ``action`` once per possible crash point, yielding each crash.

    ``action(fs)`` must set up its own fresh inputs each call and route
    all mutating I/O through ``fs``.  Iteration yields ``(n, fs)`` for
    every n at which the action died, and stops after the first run that
    completes without crashing -- so a consumer that asserts its recovery
    invariant per yield has, by construction, covered *every* crash point
    of the write path.
    """
    for n in range(max_points + 1):
        fs = FaultyFilesystem(crash_at=n, partial_bytes=partial_bytes)
        try:
            action(fs)
        except CrashPoint:
            yield n, fs
        else:
            return
    raise RuntimeError(
        f"action still crashing after {max_points} crash points; "
        "is it re-running its own setup each call?"
    )


# --------------------------------------------------------------------------
# WAL-aware mutators
# --------------------------------------------------------------------------

def _wal_spans(data: bytes) -> Tuple[int, List[Tuple[int, int]]]:
    """(header_size, [(start, end) per intact record]) of a WAL image."""
    from repro.storage.wal import WAL_HEADER_SIZE, scan_wal_bytes

    scan = scan_wal_bytes(data)
    spans: List[Tuple[int, int]] = []
    prev = WAL_HEADER_SIZE
    for end in scan.record_ends:
        spans.append((prev, end))
        prev = end
    return WAL_HEADER_SIZE, spans


def wal_truncate_mutations(data: bytes) -> Iterator[Mutation]:
    """Cuts at and around every record boundary, plus header-level cuts.

    Boundary cuts model a crash exactly between commits; the off-by-one
    and mid-record cuts model a crash inside a commit's single append.
    """
    header_size, spans = _wal_spans(data)
    cuts = {0, header_size // 2, header_size}
    for start, end in spans:
        cuts.add(end)          # clean boundary: a whole batch missing
        cuts.add(end - 1)      # torn checksum
        cuts.add(start + 4)    # tear exactly after the length prefix
        cuts.add(start + 5)    # torn payload, length prefix intact
        cuts.add((start + end) // 2)
    for keep in sorted(cuts):
        if 0 <= keep < len(data):
            yield Mutation(f"wal-truncate@{keep}", data[:keep])


def wal_crc_flip_mutations(data: bytes) -> Iterator[Mutation]:
    """Per record: flip a checksum byte, and flip a payload byte.

    Both must be caught by the record CRC; the payload flip additionally
    proves the checksum actually covers the payload.
    """
    _, spans = _wal_spans(data)
    for start, end in spans:
        crc_at = end - 1
        mutated = bytearray(data)
        mutated[crc_at] ^= 0xFF
        yield Mutation(f"wal-crcflip@{crc_at}", bytes(mutated))
        payload_at = start + 4
        mutated = bytearray(data)
        mutated[payload_at] ^= 0x01
        yield Mutation(f"wal-payloadflip@{payload_at}", bytes(mutated))


def wal_generation_mutations(data: bytes) -> Iterator[Mutation]:
    """Headers whose own CRC is valid but whose snapshot binding is wrong.

    These must be refused by the *binding* check (generation mismatch),
    not the header checksum -- plus one plain header-CRC flip for the
    checksum path itself.
    """
    from repro.storage.wal import WAL_HEADER_SIZE, scan_wal_bytes

    if len(data) < WAL_HEADER_SIZE:
        return
    scan = scan_wal_bytes(data)
    if scan.header is None:
        return
    header = scan.header
    body = data[WAL_HEADER_SIZE:]
    rebinds = (
        ("wal-gen-basecrc", dataclasses.replace(
            header, base_crc=header.base_crc ^ 0xDEADBEEF)),
        ("wal-gen-basesize", dataclasses.replace(
            header, base_size=header.base_size + 1)),
        ("wal-gen-bothzero", dataclasses.replace(
            header, base_size=0, base_crc=0)),
    )
    for name, rebound in rebinds:
        yield Mutation(name, rebound.to_bytes() + body)
    kinds = [k for k in type(header.kind) if k is not header.kind]
    for kind in kinds[:1]:
        yield Mutation(
            "wal-gen-kind",
            dataclasses.replace(header, kind=kind).to_bytes() + body,
        )
    mutated = bytearray(data)
    mutated[WAL_HEADER_SIZE - 1] ^= 0xFF
    yield Mutation("wal-headercrcflip", bytes(mutated))


def default_wal_mutations(
    data: bytes, *, stride_bits: int = 8, seed: int = 0
) -> Iterator[Mutation]:
    """The standard WAL campaign: structural mutators plus raw bit flips."""
    yield from wal_truncate_mutations(data)
    yield from wal_crc_flip_mutations(data)
    yield from wal_generation_mutations(data)
    yield from bit_flip_mutations(data, stride_bits=stride_bits)
    yield from extend_mutations(data, tails=(1, 8, 64))
    yield from random_region_mutations(data, seed=seed, count=32)


def run_wal_fault_injection(
    directory,
    mutations: Iterable[Mutation],
    *,
    time_budget: float = 5.0,
    limits: Optional[DecodeLimits] = None,
) -> FaultInjectionReport:
    """Drive ``wal.tail`` mutations through a read-only store open and classify.

    ``directory`` must hold a healthy store whose tail log is pristine.
    The contract: every mutated open must either raise from
    ``FormatError`` (``detected``), or serve the sealed segments plus
    exactly some *prefix* of the committed tail batches -- the full log
    with a clean health report (``identical``), or a proper prefix **with
    the loss reported** by a quarantine entry or a recovery event
    (``detected``).  A tail that is not a committed-batch prefix, or that
    dropped data silently, is a ``mismatch``; any non-``FormatError``
    exception is an ``escaped``; exceeding ``time_budget`` is
    ``overbudget``.  Opens run read-only, and the original tail bytes are
    restored before returning.
    """
    from repro.storage.segments import WAL_TAIL_NAME, SegmentStore
    from repro.storage.wal import scan_wal_bytes

    directory = pathlib.Path(directory)
    tail_path = directory / WAL_TAIL_NAME
    original = tail_path.read_bytes()
    baseline = scan_wal_bytes(original)
    if baseline.header is None or baseline.errors:
        raise ValueError(f"{tail_path} must be a pristine WAL")

    def served(store) -> List[tuple]:
        return sorted(store.graph.iter_contacts())

    with SegmentStore.open(directory, read_only=True, limits=limits) as store:
        if not store.health().ok:
            raise ValueError(f"{directory}: baseline store must be healthy")
        full = served(store)
    sealed = collections.Counter(full) - collections.Counter(baseline.contacts)
    prefixes = []
    flat: List[tuple] = []
    for batch in [[]] + baseline.batches:
        flat.extend(batch)
        prefixes.append(sorted((sealed + collections.Counter(flat)).elements()))

    report = FaultInjectionReport()
    try:
        for mutation in mutations:
            tail_path.write_bytes(mutation.data)
            start = time.perf_counter()
            detail = ""
            try:
                store = SegmentStore.open(
                    directory, read_only=True, limits=limits
                )
            except FormatError as exc:
                outcome = "detected"
                detail = type(exc).__name__
            except Exception as exc:  # noqa: BLE001 - the contract under test
                outcome = "escaped"
                detail = repr(exc)
            else:
                health = store.health()
                got = served(store)
                store.close()
                reported = bool(health.quarantined or health.events)
                kept = len(got) - sum(sealed.values())
                if got not in prefixes:
                    outcome = "mismatch"
                    detail = (
                        f"served {kept} tail contacts: not a committed-batch "
                        "prefix"
                    )
                elif got == full and not reported:
                    outcome = "identical"
                elif reported:
                    outcome = "detected"
                    detail = (
                        f"prefix of {kept}/{len(baseline.contacts)} tail "
                        "contacts, reported"
                    )
                elif not scan_wal_bytes(mutation.data).torn:
                    # A cut at an exact record boundary leaves a well-formed
                    # shorter log -- indistinguishable from fewer commits, so
                    # a clean report is correct, not a silent loss.
                    outcome = "detected"
                    detail = (
                        f"clean boundary cut: {kept}/"
                        f"{len(baseline.contacts)} committed tail contacts "
                        "remain"
                    )
                else:
                    outcome = "mismatch"
                    detail = (
                        f"silent loss: {kept}/{len(baseline.contacts)} tail "
                        "contacts with a clean report"
                    )
            elapsed = time.perf_counter() - start
            report.book(
                FaultResult(mutation.name, outcome, detail, elapsed),
                time_budget,
            )
    finally:
        tail_path.write_bytes(original)
    return report


# --------------------------------------------------------------------------
# Segment-store mutators and harnesses
# --------------------------------------------------------------------------

def _manifest_frame(data: bytes) -> Optional[dict]:
    """The JSON document of a manifest image, or None if unframeable."""
    from repro.storage.segments import MANIFEST_MAGIC

    if len(data) < 9 or data[:4] != MANIFEST_MAGIC:
        return None
    (length,) = struct.unpack_from("<I", data, 5)
    if 9 + length + 4 != len(data):
        return None
    try:
        doc = json.loads(data[9 : 9 + length].decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return doc if isinstance(doc, dict) else None


def _reseal_manifest(doc: dict) -> bytes:
    """Re-frame a (possibly lying) manifest document with a *valid* CRC."""
    import zlib

    from repro.storage.segments import MANIFEST_MAGIC, MANIFEST_VERSION

    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return (
        struct.pack("<4sBI", MANIFEST_MAGIC, MANIFEST_VERSION, len(payload))
        + payload
        + struct.pack("<I", zlib.crc32(payload))
    )


def manifest_field_mutations(data: bytes) -> Iterator[Mutation]:
    """Manifests whose frame CRC is *valid* but whose contents lie.

    The CRC guard cannot catch these -- they exercise the semantic
    validation (unsafe names, duplicate entries, sequence invariants) and
    the per-segment binding checks (a manifest claiming the wrong size or
    checksum for a real file must quarantine it, not serve it).  Yields
    nothing for images that do not frame as a manifest.
    """
    import copy

    doc = _manifest_frame(data)
    if doc is None:
        return
    segments = doc.get("segments") or []

    def variant(label: str, **changes) -> Mutation:
        lied = copy.deepcopy(doc)
        lied.update(changes)
        return Mutation(label, _reseal_manifest(lied))

    def seg_variant(label: str, index: int, **changes) -> Mutation:
        lied = copy.deepcopy(doc)
        lied["segments"][index] = dict(lied["segments"][index], **changes)
        return Mutation(label, _reseal_manifest(lied))

    yield variant("manifest-lie-kind", kind="sausage")
    yield variant("manifest-lie-negative-generation", generation=-1)
    yield variant("manifest-lie-wal-generation",
                  wal_generation=doc.get("wal_generation", 0) + 7)
    if segments:
        yield seg_variant("manifest-lie-segment-crc", 0,
                          crc=segments[0]["crc"] ^ 0xDEADBEEF)
        yield seg_variant("manifest-lie-segment-size", 0,
                          size=segments[0]["size"] + 1)
        yield seg_variant("manifest-lie-segment-missing", 0,
                          name="seg-99999999.chrono")
        yield seg_variant("manifest-lie-segment-escape", 0,
                          name="../escaped.chrono")
        yield seg_variant("manifest-lie-segment-seq", 0,
                          seq=doc.get("next_seq", 0) + 5)
        yield seg_variant("manifest-lie-segment-empty", 0, contacts=0)
        yield seg_variant("manifest-lie-segment-timerange", 0,
                          t_min=segments[0]["t_max"] + 1)
        lied = copy.deepcopy(doc)
        lied["segments"].append(copy.deepcopy(lied["segments"][0]))
        yield Mutation("manifest-lie-duplicate-segment", _reseal_manifest(lied))


def default_manifest_mutations(
    data: bytes, *, stride_bits: int = 8, seed: int = 0
) -> Iterator[Mutation]:
    """The standard manifest campaign: frame damage plus semantic lies."""
    yield from bit_flip_mutations(data, stride_bits=stride_bits)
    yield from truncate_mutations(data)
    yield from extend_mutations(data, tails=(1, 8, 64))
    yield from random_region_mutations(data, seed=seed, count=32)
    yield from manifest_field_mutations(data)


def run_segment_store_fault_injection(
    directory,
    target: str,
    mutations: Iterable[Mutation],
    *,
    time_budget: float = 5.0,
    limits: Optional[DecodeLimits] = None,
) -> FaultInjectionReport:
    """Mutate one file of a segment store and classify every open.

    ``directory`` must hold a *healthy* store; ``target`` names the file
    under mutation (the manifest or a segment).  The contract mirrors the
    container campaigns, lifted to the store level: every mutated open
    must either raise from ``FormatError`` (``detected``), serve the
    baseline answers untouched (``identical``), or serve a *subset* of
    the baseline with the damage explicitly reported via quarantine
    entries or recovery events (``detected``).  Serving a contact the
    baseline never held, or dropping data with a clean health report, is
    a ``mismatch`` -- the silent wrong answer the store exists to prevent.

    Opens run read-only so no repair side effects touch the fixture; the
    target's original bytes are restored before returning.
    """
    from repro.storage.segments import SegmentStore

    directory = pathlib.Path(directory)
    target_path = directory / target

    def answers(store) -> List[tuple]:
        return sorted(
            (c.u, c.v, c.time, c.duration) for c in store.graph.iter_contacts()
        )

    with SegmentStore.open(directory, read_only=True, limits=limits) as store:
        if not store.health().ok:
            raise ValueError(f"{directory}: baseline store must be healthy")
        baseline = answers(store)
    base_counts = collections.Counter(baseline)

    original = target_path.read_bytes()
    report = FaultInjectionReport()
    try:
        for mutation in mutations:
            target_path.write_bytes(mutation.data)
            start = time.perf_counter()
            detail = ""
            try:
                store = SegmentStore.open(
                    directory, read_only=True, limits=limits
                )
            except FormatError as exc:
                outcome = "detected"
                detail = type(exc).__name__
            except Exception as exc:  # noqa: BLE001 - the contract under test
                outcome = "escaped"
                detail = repr(exc)
            else:
                health = store.health()
                served = answers(store)
                store.close()
                reported = bool(health.quarantined or health.events)
                fabricated = collections.Counter(served) - base_counts
                if fabricated:
                    outcome = "mismatch"
                    detail = (
                        f"served {sum(fabricated.values())} contact(s) the "
                        "baseline never held"
                    )
                elif served == baseline:
                    outcome = "identical" if not reported else "detected"
                    if reported:
                        detail = "full answers, damage reported"
                elif reported:
                    outcome = "detected"
                    detail = (
                        f"degraded to {len(served)}/{len(baseline)} "
                        "contacts, reported"
                    )
                else:
                    outcome = "mismatch"
                    detail = (
                        f"silent loss: {len(served)}/{len(baseline)} "
                        "contacts with a clean health report"
                    )
            elapsed = time.perf_counter() - start
            report.book(
                FaultResult(mutation.name, outcome, detail, elapsed),
                time_budget,
            )
    finally:
        target_path.write_bytes(original)
    return report


def run_segment_crash_matrix(
    workdir,
    batches: Sequence[Sequence[tuple]],
    *,
    kind=None,
    policy=None,
    partial_bytes: int = 0,
    queries_per_crash: int = 8,
) -> FaultInjectionReport:
    """Exhaustive crash matrix over the full segment-store lifecycle.

    Drives ``create -> ingest (with inline seals) -> seal -> compact ->
    close`` through :func:`crash_points`, killing the store at every
    mutating filesystem operation, then reopens each wreck with the real
    filesystem and asserts the recovery contract:

    * recovery never quarantines anything (a pure crash only ever leaves
      complete-but-unreferenced files or a torn WAL tail, both of which
      recover losslessly);
    * the recovered contacts equal exactly a *batch prefix* bounded below
      by the last ingest that returned and above by the last one started
      (the durability boundary is the WAL commit inside ingest);
    * query answers over the recovered store equal the plain
      :class:`TemporalGraph` of that same prefix (:func:`first_divergence`);
    * the recovered store accepts further ingest.

    Every crash point is one report entry: ``identical`` when the
    contract holds, a failure naming the violated clause otherwise.
    """
    from repro.graph.builders import graph_from_contacts
    from repro.graph.model import Contact, GraphKind
    from repro.storage.atomic import NO_RETRY
    from repro.storage.segments import SegmentStore, StorePolicy

    kind = kind or GraphKind.POINT
    policy = policy or StorePolicy(
        seal_contacts=6, max_segments=1, backpressure_contacts=4096
    )
    workdir = pathlib.Path(workdir)
    store_dir = workdir / "crash-store"
    rows = [
        [
            (r.u, r.v, r.time, r.duration) if isinstance(r, Contact) else tuple(r)
            for r in batch
        ]
        for batch in batches
    ]
    prefixes: List[List[tuple]] = [[]]
    for batch in rows:
        prefixes.append(sorted(prefixes[-1] + list(batch)))
    progress = {"started": 0, "done": 0}

    def action(fs: FaultyFilesystem) -> None:
        shutil.rmtree(store_dir, ignore_errors=True)
        progress["started"] = progress["done"] = 0
        store = SegmentStore.create(
            store_dir, kind, fs=fs, retry=NO_RETRY, policy=policy
        )
        for batch in rows:
            progress["started"] += 1
            store.ingest(batch)
            progress["done"] += 1
        store.seal()
        store.compact_once()
        store.close()

    report = FaultInjectionReport(unit="crash points")

    def record(n: int, outcome: str, detail: str = "") -> None:
        report.book(FaultResult(f"crash@{n}", outcome, detail))

    for n, _fs in crash_points(action, partial_bytes=partial_bytes):
        lo, hi = progress["done"], progress["started"]
        try:
            store = SegmentStore.open(store_dir, policy=policy)
        except FileNotFoundError:
            # Crash before the very first manifest write: the store was
            # never durably created, which is only honest if nothing had
            # been durably ingested either.
            if lo == 0:
                record(n, "detected", "store creation never completed")
            else:
                record(n, "mismatch", "manifest vanished after durable ingest")
            continue
        except Exception as exc:  # noqa: BLE001 - recovery must not raise
            record(n, "escaped", f"recovery raised {exc!r}")
            continue
        try:
            health = store.health()
            if health.quarantined:
                record(
                    n, "mismatch",
                    "pure crash produced quarantine: "
                    + "; ".join(q.reason for q in health.quarantined),
                )
                continue
            recovered = sorted(
                (c.u, c.v, c.time, c.duration)
                for c in store.graph.iter_contacts()
            )
            match = next(
                (k for k in range(lo, hi + 1) if recovered == prefixes[k]),
                None,
            )
            if match is None:
                record(
                    n, "mismatch",
                    f"recovered {len(recovered)} contacts: not a batch "
                    f"prefix in [{lo}, {hi}]",
                )
                continue
            prefix = prefixes[match]
            if prefix:
                view = store.graph
                oracle = graph_from_contacts(
                    kind, prefix, num_nodes=view.num_nodes
                )
                calls = _prefix_calls(
                    prefix, min(view.num_nodes, queries_per_crash)
                )
                flaw = first_divergence(view, oracle, calls)
                if flaw is not None:
                    record(n, "mismatch", flaw)
                    continue
            # Recovery must yield a live, writable store.
            probe_d = 1 if kind is GraphKind.INTERVAL else 0
            store.ingest([(0, 1, 1, probe_d)])
            record(n, "identical", f"prefix {match}/{len(rows)}")
        finally:
            store.close()
    return report


def _prefix_calls(rows: Sequence[tuple], nodes: int) -> List[Tuple[str, tuple]]:
    """Query calls over a recovered prefix: ``nodes`` nodes, three windows."""
    t_lo = min(r[2] for r in rows)
    t_hi = max(r[2] + r[3] for r in rows)
    third = (t_hi - t_lo) // 3
    calls: List[Tuple[str, tuple]] = [("contacts_of", (u,)) for u in range(nodes)]
    for t1, t2 in [(t_lo, t_hi), (t_lo + third, t_hi - third), (t_hi + 1, t_hi + 2)]:
        calls.append(("snapshot", (t1, t2)))
        calls.extend(("neighbors", (u, t1, t2)) for u in range(nodes))
    return calls


def _outcome(call: Callable[[], Any]) -> Tuple[Any, Optional[str]]:
    """``(answer, None)``, or ``(None, name)`` of the class the call raised.

    A served call's class is the server's: the ``error_type`` of its
    :class:`repro.service.client.ServiceError`.
    """
    try:
        return call(), None
    except ServiceError as exc:
        return None, exc.error_type
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return None, type(exc).__name__


def _shown(outcome: Tuple[Any, Optional[str]]) -> str:
    answer, raised = outcome
    return reprlib.repr(answer) if raised is None else f"raises {raised}"


def first_divergence(
    surface: Any,
    oracle: TemporalGraph,
    calls: Iterable[Tuple[str, Sequence[Any]]],
    ctx: Optional[QueryContext] = None,
) -> Optional[str]:
    """The first query call whose outcome on ``surface`` is not the oracle's.

    Each ``(op, args)`` call names an op of
    :data:`repro.service.protocol.QUERY_OPS`.  It runs as
    ``surface.<op>(*args)``, passing ``ctx=ctx`` when a context is given,
    and must answer as the op does on the plain ``oracle``, or raise the
    same exception class when the oracle raises.  Returns one line naming
    the first call that differs and both outcomes, or ``None`` when every
    call agrees.
    """
    kwargs = {} if ctx is None else {"ctx": ctx}
    for op, args in calls:
        method = getattr(surface, op)
        got = _outcome(lambda: method(*args, **kwargs))
        want = _outcome(lambda: QUERY_OPS[op].answer(oracle, *args))
        if got != want:
            return (
                f"{op}{tuple(args)} = {_shown(got)}, "
                f"the plain model gives {_shown(want)}"
            )
    return None


# --------------------------------------------------------------------------
# Latency / stall injection and the chaos harness
# --------------------------------------------------------------------------

class StepClock:
    """A manually advanced monotonic clock for deterministic stall tests.

    Inject it as the ``clock`` of :class:`repro.runtime.context.Deadline`,
    :class:`repro.runtime.context.QueryContext` and
    :class:`repro.runtime.breaker.BreakerBoard`, then :meth:`advance` it
    from a fault to model a 10-second stall without sleeping 10 seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        """Start the clock at ``start`` seconds."""
        self._now = float(start)

    def __call__(self) -> float:
        """The current time (monotonic-clock calling convention)."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds`` (never backward)."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self._now += seconds


class SlowFilesystem(Filesystem):
    """A :class:`repro.storage.atomic.Filesystem` that injects latency.

    Before each operation named in ``operations`` (default: every
    mutating op plus ``open``), ``delay`` seconds are charged through the
    injectable ``sleep`` -- pass a :class:`StepClock`-advancing lambda to
    model pathological I/O latency without real waiting, or
    ``time.sleep`` to exercise true wall-clock stalls.  ``stalls`` counts
    injections so tests can assert the slow path was actually taken.
    """

    _ALL_OPS = frozenset(
        {"open", "write", "fsync", "fsync_dir", "replace", "truncate", "remove"}
    )

    def __init__(
        self,
        *,
        delay: float,
        operations: Optional[Iterable[str]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        """Configure which operations stall, for how long, and how."""
        self.delay = delay
        self.operations = (
            frozenset(operations) if operations is not None else self._ALL_OPS
        )
        unknown = self.operations - self._ALL_OPS
        if unknown:
            raise ValueError(f"unknown operations: {sorted(unknown)}")
        self._sleep = sleep
        self.stalls = 0

    def _stall(self, name: str) -> None:
        if name in self.operations and self.delay > 0:
            self.stalls += 1
            self._sleep(self.delay)

    def open(self, path: str, flags: int, mode: int = 0o666) -> int:
        self._stall("open")
        return super().open(path, flags, mode)

    def write(self, fd: int, data: bytes) -> int:
        self._stall("write")
        return super().write(fd, data)

    def fsync(self, fd: int) -> None:
        self._stall("fsync")
        super().fsync(fd)

    def fsync_dir(self, path: str) -> None:
        self._stall("fsync_dir")
        super().fsync_dir(path)

    def replace(self, src: str, dst: str) -> None:
        self._stall("replace")
        super().replace(src, dst)

    def truncate(self, fd: int, length: int) -> None:
        self._stall("truncate")
        super().truncate(fd, length)

    def remove(self, path: str) -> None:
        self._stall("remove")
        super().remove(path)


class StallingGraph:
    """Proxy over one query part that stalls before every query.

    ``stall`` is any zero-argument callable -- typically one that
    advances a :class:`StepClock` past the query deadline, modelling a
    segment whose decode path has hit pathological latency.  The ops of
    :data:`repro.service.protocol.QUERY_OPS` and the part questions a
    store asks (:data:`repro.core.engine.PART_QUESTIONS`) stall, then
    poll the ambient context as a stalled decode loop would, so a stall
    is charged to that part's breaker.  Everything else passes straight
    through, so a chaos view built around this proxy still supports
    reference building and seal/compact reads.
    """

    def __init__(self, inner, stall: Callable[[], None]) -> None:
        """Wrap ``inner``, invoking ``stall()`` before each query."""
        self._inner = inner
        self._stall = stall
        self.calls = 0

    def __getattr__(self, name: str):
        """Delegate to the inner graph, stalling the query surface."""
        attr = getattr(self._inner, name)
        if (name in QUERY_OPS or name in PART_QUESTIONS) and callable(attr):
            def stalled(*args, _attr=attr, **kwargs):
                self.calls += 1
                self._stall()
                checkpoint_ambient()
                return _attr(*args, **kwargs)

            return stalled
        return attr


@dataclasses.dataclass
class ChaosReport:
    """Aggregate outcome of a :func:`run_chaos_harness` campaign."""

    total: int = 0
    deadlines_held: int = 0
    shed: int = 0
    partial: int = 0
    breaker_trips: int = 0
    failures: List[FaultResult] = dataclasses.field(default_factory=list)
    slowest: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every probe honoured the latency-isolation contract."""
        return not self.failures

    def summary(self) -> str:
        """One-paragraph human-readable account of the campaign."""
        lines = [
            f"{self.total} probes: {self.deadlines_held} deadlines held, "
            f"{self.shed} shed by breaker, {self.partial} partial answers, "
            f"{self.breaker_trips} breaker trip(s), "
            f"{len(self.failures)} failures "
            f"(slowest {self.slowest * 1000:.1f} ms wall)"
        ]
        for failure in self.failures[:20]:
            lines.append(
                f"  - {failure.mutation}: {failure.outcome} {failure.detail}"
            )
        return "\n".join(lines)


def run_chaos_harness(
    store,
    *,
    stall_seconds: float = 10.0,
    deadline: float = 0.1,
    failure_threshold: int = 3,
    probe_nodes: int = 8,
    time_budget: float = 2.0,
) -> ChaosReport:
    """Prove deadlines hold and breakers isolate under an injected stall.

    Builds a chaos view over ``store``'s current graph in which the
    *first sealed segment* stalls for ``stall_seconds`` (on a
    :class:`StepClock`, so no real time passes) before every query, then
    drives the full isolation story and records each probe:

    1. **Deadlines hold** -- windowed queries under a ``deadline``-second
       budget raise :class:`repro.errors.QueryTimeout` (never hang, never
       answer late); each probe's *wall* time must stay under
       ``time_budget``, proving interruption is cooperative and prompt.
    2. **The breaker trips** -- after ``failure_threshold`` attributed
       failures the stalled segment's breaker is open, and the next
       default query is shed with :class:`repro.errors.RejectedError`
       (structured retry-after) without touching the stalled part.
    3. **Partial answers are exact** -- queries consenting via
       ``allow_partial`` return, annotate the skipped segment, and equal
       the plain :class:`TemporalGraph` of the healthy subset (healthy
       segments plus tail).
    4. **Half-open re-trips** -- advancing the clock past the backoff
       admits a single probe, which stalls again and re-opens the
       breaker with a longer backoff.

    The store itself is never mutated; the chaos view shares its segment
    graphs read-only.
    """
    from repro.errors import QueryTimeout, RejectedError
    from repro.runtime.breaker import BreakerBoard
    from repro.storage.segments import SegmentedChronoGraph

    view = store.graph
    if not view._segments:
        raise ValueError("chaos harness needs at least one sealed segment")

    clock = StepClock()
    board = BreakerBoard(failure_threshold=failure_threshold, clock=clock)
    victim_info, victim_graph = view._segments[0]
    wrapped = StallingGraph(victim_graph, lambda: clock.advance(stall_seconds))
    chaos = SegmentedChronoGraph(
        view.kind,
        ((victim_info, wrapped),) + view._segments[1:],
        view._tail,
        breakers=board,
    )

    healthy = [
        c for _info, graph in view._segments[1:] for c in graph.iter_contacts()
    ]
    healthy.extend(view._tail.contacts)
    n = view.num_nodes
    reference = TemporalGraph(view.kind, n, healthy)
    all_rows = [
        (c.u, c.v, c.time, c.duration) for c in view.iter_contacts()
    ]
    t_lo = min(r[2] for r in all_rows)
    t_hi = max(r[2] + r[3] for r in all_rows)

    report = ChaosReport()

    def record(name: str, outcome: str, detail: str, elapsed: float) -> None:
        if elapsed > time_budget:
            outcome = "overbudget"
            detail = f"{elapsed:.3f}s wall > {time_budget:.3f}s budget"
        result = FaultResult(name, outcome, detail, elapsed)
        report.total += 1
        report.slowest = max(report.slowest, elapsed)
        if outcome == "deadline-held":
            report.deadlines_held += 1
        elif outcome == "shed":
            report.shed += 1
        elif outcome == "partial":
            report.partial += 1
        if result.failed:
            report.failures.append(result)

    # 1. Deadline probes until the breaker trips.
    for attempt in range(failure_threshold):
        ctx = QueryContext(timeout=deadline, clock=clock)
        start = time.perf_counter()
        try:
            chaos.snapshot(t_lo, t_hi, ctx=ctx)
        except QueryTimeout as exc:
            record(
                f"deadline@{attempt}", "deadline-held",
                f"budget {exc.budget}s", time.perf_counter() - start,
            )
        except Exception as exc:  # noqa: BLE001 - the contract under test
            record(
                f"deadline@{attempt}", "escaped", repr(exc),
                time.perf_counter() - start,
            )
        else:
            record(
                f"deadline@{attempt}", "mismatch",
                "stalled query answered instead of timing out",
                time.perf_counter() - start,
            )

    breaker = board.peek(victim_info.name)
    report.breaker_trips = breaker.snapshot()["trips"] if breaker else 0
    if breaker is None or breaker.state != "open":
        record(
            "breaker-tripped", "mismatch",
            f"breaker is {breaker.state if breaker else 'absent'} after "
            f"{failure_threshold} attributed failures",
            0.0,
        )

    # 2. Default (non-partial) query is shed, promptly and typed.
    start = time.perf_counter()
    try:
        chaos.snapshot(t_lo, t_hi, ctx=QueryContext(timeout=deadline, clock=clock))
    except RejectedError as exc:
        record(
            "shed", "shed",
            f"reason={exc.reason} retry_after={exc.retry_after}",
            time.perf_counter() - start,
        )
    except Exception as exc:  # noqa: BLE001 - the contract under test
        record("shed", "escaped", repr(exc), time.perf_counter() - start)
    else:
        record(
            "shed", "mismatch", "open breaker did not shed the query",
            time.perf_counter() - start,
        )

    # 3. Partial answers: annotated, unthrottled, equal to the plain
    #    model of the healthy subset.
    windows = [(t_lo, t_hi), (t_lo, (t_lo + t_hi) // 2)]
    for t1, t2 in windows:
        ctx = QueryContext(allow_partial=True, timeout=deadline, clock=clock)
        calls = [("snapshot", (t1, t2))]
        calls += [("neighbors", (u, t1, t2)) for u in range(min(n, probe_nodes))]
        start = time.perf_counter()
        try:
            flaw = first_divergence(chaos, reference, calls, ctx)
        except Exception as exc:  # noqa: BLE001 - the contract under test
            record(
                f"partial@{t1}-{t2}", "escaped", repr(exc),
                time.perf_counter() - start,
            )
            continue
        elapsed = time.perf_counter() - start
        skipped = [s.part for s in ctx.skipped]
        if flaw is not None:
            record(f"partial@{t1}-{t2}", "mismatch", flaw, elapsed)
        elif victim_info.name not in skipped:
            record(
                f"partial@{t1}-{t2}", "mismatch",
                f"skip not annotated (skipped={skipped})", elapsed,
            )
        else:
            record(f"partial@{t1}-{t2}", "partial", "", elapsed)

    # 4. Half-open probe: past the backoff one probe is admitted, stalls
    #    again, and re-trips the breaker with a longer backoff.
    if breaker is not None:
        clock.advance(breaker.retry_after() + 0.001)
        before = breaker.snapshot()["trips"]
        start = time.perf_counter()
        try:
            chaos.snapshot(t_lo, t_hi, ctx=QueryContext(timeout=deadline, clock=clock))
        except QueryTimeout:
            after = breaker.snapshot()["trips"]
            if breaker.state == "open" and after > before:
                record(
                    "half-open-retrip", "deadline-held",
                    f"trips {before} -> {after}", time.perf_counter() - start,
                )
            else:
                record(
                    "half-open-retrip", "mismatch",
                    f"state={breaker.state} trips={after}",
                    time.perf_counter() - start,
                )
        except Exception as exc:  # noqa: BLE001 - the contract under test
            record(
                "half-open-retrip", "escaped", repr(exc),
                time.perf_counter() - start,
            )
        else:
            record(
                "half-open-retrip", "mismatch",
                "half-open probe answered despite the stall",
                time.perf_counter() - start,
            )
        report.breaker_trips = breaker.snapshot()["trips"]
    return report
