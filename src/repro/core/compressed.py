"""The in-memory compressed temporal graph and its query surface.

A :class:`CompressedChronoGraph` owns four artefacts (Section IV-F):

* the compressed structure stream and the compressed timestamp stream,
* one offset index per stream: a flat ``array('Q')`` of each node's
  starting bit, charged at its Elias-Fano payload
  (:func:`repro.bits.eliasfano.payload_bits`), as in the paper.

Every query seeks straight to a node's records through the offset indexes,
decodes only what it needs, and never touches the rest of the graph -- this
is why the paper's access times depend on the average degree, not the graph
size (Section V-D).

Two layers keep the decode cost off the hot path:

* a bounded, memory-budgeted LRU of fully decoded node records (neighbor
  multiset, timestamps, durations) so repeated queries against the same
  node decode it once -- see :meth:`CompressedChronoGraph.cache_stats`,
  :meth:`configure_cache` and :meth:`clear_cache`;
* sequential-scan fast paths (:meth:`snapshot`, :meth:`to_static_graph`,
  :meth:`iter_contacts`, :meth:`iter_window_neighbors`), all on one
  walker that goes through the streams in storage order and decodes every
  node at most once per pass, resolving reference chains from a rolling
  window instead of re-seeking.  An empty node (the 4-bit record
  ``1111``, no timestamp bits) is recognised from its offsets and passed
  over without a decode or a cache lookup; a point lookup of one caches
  the graph's one shared empty record instead of decoding it.

Concurrency model
-----------------

The query surface is safe to share across threads:

* The decoded-record cache is one ``OrderedDict`` LRU.  A hit takes no
  lock: its ``get`` and ``move_to_end`` are single C calls, atomic under
  the GIL.  One lock guards every insert, eviction and clear, so the
  byte total and the eviction count stay exact; the hit and miss
  counters are atomic, so no update is lost under threads.
* The graph itself is immutable: streams, offsets and counts are fixed
  at construction, so a cached record stays valid for the graph's whole
  lifetime and the cache needs no invalidation.  Growing a graph online
  is the job of :class:`repro.storage.segments.SegmentStore`, which
  publishes new immutable views instead of mutating this one.
* Each decode builds its own :class:`repro.bits.bitio.BitReader` over the
  shared immutable stream bytes (reader-per-thread rule): readers carry
  mutable positions and must never be shared across threads.

:meth:`neighbors_many` is the batch form of :meth:`neighbors`: it groups
the batch by node and decodes each node once, with the exact semantics of
a :meth:`neighbors` loop (output order included).

Resource governance
-------------------

Every query entry point accepts an optional
``ctx=`` :class:`repro.runtime.context.QueryContext` -- a wall-clock
deadline, cooperative cancel flag and decode-work budget polled at cheap
checkpoints down to the record-decode loops.  An expired envelope raises
the typed :class:`repro.errors.QueryTimeout` /
:class:`repro.errors.QueryCancelled` / :class:`repro.errors.QueryBudgetExceeded`
branch; interruption always leaves reader cursors (query-local) and the
caches (which only ingest completed decodes) consistent, so a retry with
a larger envelope returns the complete answer.  A context carrying a
governor is additionally subject to admission control
(:class:`repro.errors.RejectedError` before any work happens).
"""

from __future__ import annotations

import itertools
import threading
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bits import codes
from repro.bits.bitio import BitReader, Buffer
from repro.bits.eliasfano import payload_bits
from repro.core.config import ChronoGraphConfig
from repro.core.structure import decode_node_structure, multiset_from_parts
from repro.core.timestamps import decode_node_timestamps
from repro.errors import (
    CorruptStreamError,
    FormatError,
    GraphDomainError,
    LimitExceededError,
    QueryInterrupted,
)
from repro.graph.model import Contact, GraphKind
from repro.runtime.context import QueryContext, activate, query_scope

#: Exceptions a decoder may hit on a corrupt stream; every decode path
#: converts them to :class:`repro.errors.CorruptStreamError` so callers can
#: rely on the :class:`repro.errors.FormatError` hierarchy alone.
_DECODE_FAILURES = (
    EOFError, ValueError, IndexError, KeyError, OverflowError, TypeError,
)

#: Fixed metadata charged to every compressed graph: kind, node count,
#: global minimum timestamp, configuration and stream lengths.
HEADER_BITS = 5 * 64

_DISTINCT_CACHE_CAP = 4096

#: Default memory budget of the decoded-record cache, in (estimated) bytes.
DEFAULT_CACHE_BUDGET_BYTES = 32 << 20

_UNSET = object()

#: A decoded node record: (neighbor multiset, timestamps, durations-or-None).
NodeRecord = Tuple[List[int], List[int], Optional[List[int]]]

#: Attributes rebuilt from scratch on unpickle: locks, caches and their
#: counters (a transported graph starts cold).
_RUNTIME_KEYS = (
    "_empty_record",
    "_cache_lock",
    "_records",
    "_cache_bytes",
    "_cache_hits",
    "_cache_misses",
    "_cache_evictions",
    "_distinct_lock",
    "_distinct_cache",
)


def _index_bits(offsets: "array[int]", nbits: int) -> int:
    """Elias-Fano payload of an offset index over an ``nbits``-bit stream."""
    return payload_bits(len(offsets), offsets[-1] if offsets else 0, nbits + 1)


def _is_empty_record(
    sbytes: Buffer, start: int, end: int, tstart: int, tend: int
) -> bool:
    """Whether a node's records, given by their bit bounds, are empty.

    An empty node is a structure record of exactly the four bits ``1111``
    (four γ(0) codes) and a timestamp record of no bits.  A valid
    non-empty record is never shorter than 7 bits, so any other 4-bit
    record is corrupt and must decode, and fail, like any other record.
    """
    if end - start != 4 or tend != tstart:
        return False
    at, shift = start >> 3, start & 7
    if shift <= 4:
        nibble = sbytes[at] >> (4 - shift)
    else:
        nibble = (sbytes[at] << 8 | sbytes[at + 1]) >> (12 - shift)
    return nibble & 15 == 15


def _distinct_of(multiset: List[int]) -> List[int]:
    """The distinct labels of a label-sorted multiset, in order."""
    distinct: List[int] = []
    last = None
    for v in multiset:
        if v != last:
            distinct.append(v)
            last = v
    return distinct


class _AtomicCounter:
    """Lock-free monotone counter safe under concurrent increments.

    ``itertools.count.__next__`` is a single C call -- atomic under the
    GIL -- so increments from racing threads are never lost, unlike
    ``n += 1`` (a load/add/store bytecode triple).  ``value()`` reads the
    current count through the iterator's pickle protocol without
    consuming it.
    """

    __slots__ = ("_advance",)

    def __init__(self) -> None:
        self._advance = itertools.count(1).__next__

    def increment(self) -> None:
        """Add one; safe to call from any thread without a lock."""
        self._advance()

    def value(self) -> int:
        """Increments so far (``count.__reduce__`` exposes the next value)."""
        return self._advance.__self__.__reduce__()[1][0] - 1


class CompressedChronoGraph:
    """Queryable compressed representation produced by :func:`repro.core.compress`."""

    def __init__(
        self,
        *,
        kind: GraphKind,
        num_nodes: int,
        num_contacts: int,
        t_min: int,
        config: ChronoGraphConfig,
        structure_bytes: Buffer,
        structure_bits: int,
        timestamp_bytes: Buffer,
        timestamp_bits: int,
        structure_offsets: "array[int]",
        timestamp_offsets: "array[int]",
        name: str = "unnamed",
    ) -> None:
        self.kind = kind
        self.num_nodes = num_nodes
        self.num_contacts = num_contacts
        self.t_min = t_min
        self.config = config
        self.name = name
        self._sbytes = structure_bytes
        self._sbits = structure_bits
        self._tbytes = timestamp_bytes
        self._tbits = timestamp_bits
        # Deferred per-stream CRC checks installed by mmap-mode loading
        # (repro.core.serialize); run once at the first decode touching
        # each stream, then dropped.  None everywhere else.
        self._sverify: Optional[Callable[[], None]] = None
        self._tverify: Optional[Callable[[], None]] = None
        self._soffsets = structure_offsets
        self._toffsets = timestamp_offsets
        self._cache_max_bytes: Optional[int] = DEFAULT_CACHE_BUDGET_BYTES
        self._cache_max_entries: Optional[int] = None
        self._init_runtime()

    def _init_runtime(self) -> None:
        """Create the locks, caches and counters (never pickled)."""
        # What a decode of an empty node returns.  Every empty node shares
        # this one value; no caller mutates a decoded record.
        self._empty_record: NodeRecord = (
            [], [], [] if self.kind is GraphKind.INTERVAL else None
        )
        self._cache_lock = threading.Lock()
        # node -> (cost, record), least recently used first.
        self._records: "OrderedDict[int, Tuple[int, NodeRecord]]" = OrderedDict()
        self._cache_bytes = 0
        self._cache_hits = _AtomicCounter()
        self._cache_misses = _AtomicCounter()
        self._cache_evictions = 0
        self._distinct_lock = threading.RLock()
        self._distinct_cache: "OrderedDict[int, List[int]]" = OrderedDict()

    def _touch_structure(self) -> None:
        """Run (once) the deferred structure-stream checksum, if any."""
        check = self._sverify
        if check is not None:
            check()
            self._sverify = None

    def _touch_timestamps(self) -> None:
        """Run (once) the deferred timestamp-stream checksum, if any."""
        check = self._tverify
        if check is not None:
            check()
            self._tverify = None

    def __getstate__(self):
        state = self.__dict__.copy()
        for key in _RUNTIME_KEYS:
            state.pop(key, None)
        # A pickle crosses process or machine boundaries: settle any
        # deferred checksum now and ship plain bytes -- memoryviews (e.g.
        # over an mmap-ed container) cannot be pickled.
        self._touch_structure()
        self._touch_timestamps()
        state["_sverify"] = None
        state["_tverify"] = None
        if not isinstance(self._sbytes, bytes):
            state["_sbytes"] = bytes(self._sbytes)  # repro: noqa[CG006]
        if not isinstance(self._tbytes, bytes):
            state["_tbytes"] = bytes(self._tbytes)  # repro: noqa[CG006]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Pickles written before lazy verification existed lack these.
        self.__dict__.setdefault("_sverify", None)
        self.__dict__.setdefault("_tverify", None)
        # Older pickles carry Elias-Fano objects; iterating one yields
        # its offsets.
        for key in ("_soffsets", "_toffsets"):
            offsets = self.__dict__[key]
            if not isinstance(offsets, array):
                self.__dict__[key] = array("Q", offsets)
        self._init_runtime()

    # -- size accounting -----------------------------------------------------

    @property
    def structure_size_bits(self) -> int:
        """Structure stream plus its offset index."""
        return self._sbits + _index_bits(self._soffsets, self._sbits)

    @property
    def timestamp_size_bits(self) -> int:
        """Timestamp stream plus its offset index (the Table IV parenthesis)."""
        return self._tbits + _index_bits(self._toffsets, self._tbits)

    @property
    def size_in_bits(self) -> int:
        """Total in-memory footprint charged by the evaluation."""
        return self.structure_size_bits + self.timestamp_size_bits + HEADER_BITS

    @property
    def bits_per_contact(self) -> float:
        """The paper's headline metric."""
        if self.num_contacts == 0:
            return 0.0
        return self.size_in_bits / self.num_contacts

    @property
    def timestamp_bits_per_contact(self) -> float:
        """Timestamp share of the footprint, per contact."""
        if self.num_contacts == 0:
            return 0.0
        return self.timestamp_size_bits / self.num_contacts

    # -- decoded-record cache ------------------------------------------------

    @staticmethod
    def _record_cost(record: NodeRecord) -> int:
        """Deterministic byte estimate of a cached record.

        Roughly a CPython small int (28 bytes) plus a list slot (8) per
        element, plus fixed list/tuple overhead; exactness does not matter,
        only that the budget scales with decoded size.
        """
        multiset, times, durations = record
        elements = len(multiset) + len(times)
        if durations is not None:
            elements += len(durations)
        return 120 + 36 * elements

    def cache_stats(self) -> Dict[str, Optional[int]]:
        """Hit/miss/eviction counters and current occupancy of the record cache.

        Every record-level lookup counts exactly one hit or one miss: one
        per point query, and one per non-empty record of a sequential
        pass, which never looks up, counts or caches an empty node.
        Evictions count records dropped to honour the budget, not
        overwrites.
        Counters are atomic and monotone, so no lost updates under
        concurrency; occupancy is read under the cache lock.
        """
        with self._cache_lock:
            entries = len(self._records)
            current = self._cache_bytes
            evictions = self._cache_evictions
        return {
            "hits": self._cache_hits.value(),
            "misses": self._cache_misses.value(),
            "evictions": evictions,
            "entries": entries,
            "current_bytes": current,
            "max_bytes": self._cache_max_bytes,
            "max_entries": self._cache_max_entries,
        }

    def configure_cache(self, *, max_bytes=_UNSET, max_entries=_UNSET) -> None:
        """Re-bound the record cache; ``None`` lifts that bound.

        ``max_bytes`` budgets the estimated decoded footprint
        (:meth:`_record_cost`); ``max_entries`` caps the record count.
        Shrinking evicts least-recently-used records immediately.
        """
        with self._cache_lock:
            if max_bytes is not _UNSET:
                self._cache_max_bytes = max_bytes
            if max_entries is not _UNSET:
                self._cache_max_entries = max_entries
            self._evict_lru()

    def clear_cache(self) -> None:
        """Drop every cached decoded record (counters are preserved)."""
        with self._cache_lock:
            self._records.clear()
            self._cache_bytes = 0

    def _evict_lru(self) -> None:
        """Drop least-recently-used records until both bounds hold.

        The caller holds ``_cache_lock``.  An empty cache meets every
        bound, including a negative ``max_entries``.
        """
        records = self._records
        max_bytes = self._cache_max_bytes
        max_entries = self._cache_max_entries
        # Each pass is one O(1) popitem, and a record is evicted at most
        # once per insert, so the loop is bounded by the records cached.
        while records and (  # repro: noqa[CG007]
            (max_entries is not None and len(records) > max_entries)
            or (max_bytes is not None and self._cache_bytes > max_bytes)
        ):
            _, (cost, _) = records.popitem(last=False)
            self._cache_bytes -= cost
            self._cache_evictions += 1

    def _cache_get(self, u: int) -> Optional[NodeRecord]:
        """Counting lookup: promotes and returns the record on a hit.

        Lock-free: ``get`` and ``move_to_end`` are single C calls, atomic
        under the GIL.  A racing insert may evict ``u`` between the two;
        the record is still returned, because the graph is immutable and
        a record never goes stale.
        """
        entry = self._records.get(u)
        if entry is None:
            self._cache_misses.increment()
            return None
        try:
            self._records.move_to_end(u)
        except KeyError:
            pass
        self._cache_hits.increment()
        return entry[1]

    def _cache_peek(self, u: int) -> Optional[NodeRecord]:
        """Non-counting, non-promoting lookup (structure-only passes)."""
        entry = self._records.get(u)
        return None if entry is None else entry[1]

    def _cache_put(self, u: int, record: NodeRecord) -> None:
        max_entries = self._cache_max_entries
        if max_entries is not None and max_entries <= 0:
            return
        cost = self._record_cost(record)
        max_bytes = self._cache_max_bytes
        if max_bytes is not None and cost > max_bytes:
            return  # would evict the whole cache for a single-use record
        with self._cache_lock:
            # A racing decode of the same node may have got here first;
            # both records are identical, so keep the byte total exact.
            old = self._records.pop(u, None)
            if old is not None:
                self._cache_bytes -= old[0]
            self._records[u] = (cost, record)
            self._cache_bytes += cost
            self._evict_lru()

    def _decode_record(self, u: int) -> NodeRecord:
        """The fully decoded record of ``u``, through the LRU cache.

        An empty node is recognised from its offsets, as the walk does,
        and caches the shared empty record without a decode.  A miss
        touches each stream once and builds its two readers here.
        """
        self._check_node(u)
        record = self._cache_get(u)
        if record is not None:
            return record
        # Checksums first: mapped bytes are read only once verified.
        self._touch_structure()
        self._touch_timestamps()
        soffsets = self._soffsets
        toffsets = self._toffsets
        start, tstart = soffsets[u], toffsets[u]
        if u + 1 < self.num_nodes:
            end, tend = soffsets[u + 1], toffsets[u + 1]
        else:
            end, tend = self._sbits, self._tbits
        if _is_empty_record(self._sbytes, start, end, tstart, tend):
            record = self._empty_record
        else:
            record = self._decode_at(
                u,
                BitReader(self._sbytes, self._sbits),
                start,
                BitReader(self._tbytes, self._tbits),
                tstart,
                self._resolve_distinct,
            )
        self._cache_put(u, record)
        return record

    def _decode_at(
        self,
        u: int,
        sreader: BitReader,
        start: int,
        treader: BitReader,
        tstart: int,
        resolve: Callable[[int], List[int]],
    ) -> NodeRecord:
        """Decode ``u``'s two records from their starting bits.

        The record decode of both a point lookup's miss and the walk.  The
        caller has run the streams' deferred checksums.  A failure in
        either stream raises :class:`CorruptStreamError` naming its stage.
        """
        config = self.config
        try:
            sreader.seek(start)
            dedup, singles = decode_node_structure(
                sreader, u, resolve, config, limit=self.num_contacts
            )
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "structure", exc) from exc
        multiset = multiset_from_parts(dedup, singles)
        try:
            treader.seek(tstart)
            times, durations = decode_node_timestamps(
                treader,
                len(multiset),
                self.kind is GraphKind.INTERVAL,
                self.t_min,
                config.timestamp_zeta_k,
                config.duration_zeta_k,
            )
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "timestamp", exc) from exc
        return multiset, times, durations

    # -- decoding ------------------------------------------------------------

    def _check_node(self, u: int) -> None:
        n = self.num_nodes
        if not 0 <= u < n:
            raise GraphDomainError(f"node {u} outside [0, {n})")

    def _corrupt(self, u: int, stage: str, exc: Exception) -> CorruptStreamError:
        return CorruptStreamError(f"node {u}: {stage} decode failed: {exc}")

    def _structure_reader(self, u: int) -> BitReader:
        if u < 0:
            # A corrupt reference gap can point before node 0, and a
            # negative index would wrap to the end of the offset array.
            raise IndexError(f"record {u} before node 0")
        self._touch_structure()
        reader = BitReader(self._sbytes, self._sbits)
        reader.seek(self._soffsets[u])
        return reader

    def _decode_structure(self, u: int):
        try:
            reader = self._structure_reader(u)
            return decode_node_structure(
                reader, u, self._resolve_distinct, self.config,
                limit=self.num_contacts,
            )
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "structure", exc) from exc

    def _reference_of(self, u: int) -> int:
        """The reference target of ``u``'s record (-1 when none).

        Scans only the dedup block and the reference field; used to resolve
        reference chains iteratively so that unbounded chains
        (``max_ref_chain=None``) cannot exhaust the Python stack.
        """
        try:
            reader = self._structure_reader(u)
            dedup_count = codes.read_gamma_natural(reader)
            limit = self.num_contacts
            if dedup_count > limit:
                raise LimitExceededError(
                    f"node {u}: dedup block claims {dedup_count} runs, "
                    f"graph has {limit} contacts"
                )
            if dedup_count:
                codes.read_many_gamma_natural(reader, 2 * dedup_count)
            r = codes.read_gamma_natural(reader)
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "reference", exc) from exc
        return u - r if r else -1

    def _resolve_distinct(self, v: int) -> List[int]:
        """Distinct neighbor labels of ``v``, through the chain cache.

        Mutations are guarded by a reentrant lock: reference resolution
        both reads and warms the distinct-list cache, and decoding a chain
        re-enters this method for its targets.  The hit path is lock-free:
        distinct lists are immutable once inserted, and the dict read is
        GIL-atomic, so at worst a racing miss re-decodes.
        """
        cached = self._distinct_cache.get(v)
        if cached is not None:
            return cached
        with self._distinct_lock:
            cached = self._distinct_cache.get(v)
            if cached is not None:
                self._distinct_cache.move_to_end(v)
                return cached
            # Walk the reference chain down to a cached or reference-free
            # record, then decode upward so every recursive lookup is a
            # cache hit.
            chain = [v]
            target = self._reference_of(v)
            while target >= 0 and target not in self._distinct_cache:
                chain.append(target)
                target = self._reference_of(target)
            for node in reversed(chain):
                dedup, singles = self._decode_structure(node)
                distinct = sorted({*(label for label, _ in dedup), *singles})
                self._distinct_cache[node] = distinct
                if len(self._distinct_cache) > _DISTINCT_CACHE_CAP:
                    self._distinct_cache.popitem(last=False)
            self._distinct_cache.move_to_end(v)
            return self._distinct_cache[v]

    def decode_multiset(self, u: int) -> List[int]:
        """The label-sorted neighbor multiset of ``u`` (Figure 5(a) order)."""
        return list(self._decode_record(u)[0])

    def contacts_of(
        self, u: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Contact]:
        """All contacts of ``u``, decoded, in (label, time) order."""
        if ctx is None:  # bare compare: this entry is on the perf gate
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        if durations is None:
            return [Contact(u, v, t) for v, t in zip(multiset, times)]
        return [
            Contact(u, v, t, d) for v, t, d in zip(multiset, times, durations)
        ]

    def distinct_neighbors(self, u: int) -> List[int]:
        """Sorted distinct neighbor labels over the whole lifetime."""
        self._check_node(u)
        return self._resolve_distinct(u)

    # -- sequential scans ------------------------------------------------------

    def _walk(
        self,
        ctx: Optional[QueryContext] = None,
        *,
        structure_only: bool = False,
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(u, record)`` for every node in storage order, one decode each.

        The one sequential walker behind every full-graph scan.  Each
        stream is read with a single reader; reference chains resolve
        against the distinct lists of the last ``config.window`` non-empty
        records (the only legal targets are among them), so a full pass
        never re-seeks or re-decodes an earlier record.  No lock is held
        across a yield.

        An empty node (:func:`_is_empty_record`) is yielded as the shared
        empty record without a seek, a decode, a cache lookup or a cache
        insert; any other 4-bit record is corrupt and decodes, and fails,
        exactly as a lookup of that node does.  Every other record costs
        one counting record-cache lookup, and a miss decodes and caches it.

        With ``structure_only`` the walk yields ``(u, distinct neighbors)``
        and never touches the timestamp stream: distinct lists come from
        the distinct-list cache, a non-counting peek at the record cache
        or a structure-only decode, and feed the distinct-list cache so a
        repeat pass is all hits.

        ``ctx`` is polled once per node id, and activated around each
        stream decode so the decode loops chunk against it too -- but
        only around the decode, never across a yield, so the ambient
        context can't leak into the consumer's frame.
        """
        n = self.num_nodes
        if n == 0:
            return
        config = self.config
        window = config.window
        limit = self.num_contacts
        self._touch_structure()
        if structure_only:
            empty: Any = self._empty_record[0]
        else:
            self._touch_timestamps()
            treader = BitReader(self._tbytes, self._tbits)
            empty = self._empty_record
        sbytes = self._sbytes
        sreader = BitReader(sbytes, self._sbits)
        soffsets = self._soffsets
        toffsets = self._toffsets
        dcache = self._distinct_cache
        recent: Dict[int, List[int]] = {}

        def resolve(v: int) -> List[int]:
            got = recent.get(v)
            if got is not None:
                return got
            # Out-of-window reference (corrupt streams, window=0 configs):
            # fall back to the random-access resolver.
            return self._resolve_distinct(v)

        def decode_structure(u: int, start: int):
            try:
                sreader.seek(start)
                return decode_node_structure(
                    sreader, u, resolve, config, limit=limit
                )
            except (FormatError, QueryInterrupted):
                raise
            except _DECODE_FAILURES as exc:
                raise self._corrupt(u, "structure", exc) from exc

        # Each node's record bounds in both streams: a record ends where
        # the next one starts, the last one at the end of its stream.
        bounds = zip(
            range(n),
            soffsets,
            itertools.chain(itertools.islice(soffsets, 1, None), (self._sbits,)),
            toffsets,
            itertools.chain(itertools.islice(toffsets, 1, None), (self._tbits,)),
        )
        for u, start, end, tstart, tend in bounds:
            if ctx is not None:
                ctx.checkpoint()
            if _is_empty_record(sbytes, start, end, tstart, tend):
                yield u, empty
                continue
            if structure_only:
                # Lock-free hit: distinct lists are immutable once cached
                # (see _resolve_distinct).
                distinct = dcache.get(u)
                if distinct is None:
                    record = self._cache_peek(u)
                    if record is not None:
                        distinct = _distinct_of(record[0])
                    else:
                        dedup, singles = decode_structure(u, start)
                        distinct = sorted(
                            {*(label for label, _ in dedup), *singles}
                        )
                    with self._distinct_lock:
                        dcache[u] = distinct
                        if len(dcache) > _DISTINCT_CACHE_CAP:
                            dcache.popitem(last=False)
                out: Any = distinct
            else:
                record = self._cache_get(u)
                if record is None:
                    with activate(ctx):
                        record = self._decode_at(
                            u, sreader, start, treader, tstart, resolve
                        )
                    self._cache_put(u, record)
                out = record
                if window > 0:
                    distinct = _distinct_of(record[0])
            if window > 0:
                recent[u] = distinct
                if len(recent) > window:
                    del recent[next(iter(recent))]
            yield u, out

    def _active_neighbors(
        self,
        multiset: List[int],
        times: List[int],
        durations: Optional[List[int]],
        t_start: int,
        t_end: int,
    ) -> List[int]:
        """Sorted distinct labels active within the window, from a record."""
        out: List[int] = []
        if t_end < t_start:
            return out
        kind = self.kind
        # Inline the per-kind activity predicate: this is the hot loop of
        # every neighbor query and of the graph algorithms built on it.
        if kind is GraphKind.POINT:
            for v, t in zip(multiset, times):
                if t_start <= t <= t_end and (not out or out[-1] != v):
                    out.append(v)
        elif kind is GraphKind.INCREMENTAL:
            for v, t in zip(multiset, times):
                if t <= t_end and (not out or out[-1] != v):
                    out.append(v)
        else:
            for v, t, d in zip(multiset, times, durations):
                if d > 0 and t <= t_end and t + d > t_start:
                    if not out or out[-1] != v:
                        out.append(v)
        return out

    # -- temporal queries (Section IV-F) --------------------------------------

    def neighbors(
        self,
        u: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[int]:
        """Sorted distinct neighbors of ``u`` active within [t_start, t_end].

        The window is closed on both ends; an inverted window
        (``t_end < t_start``) is empty.  See FORMAT.md, "Query window
        semantics".  ``ctx`` bounds the query (see :mod:`repro.runtime`).
        """
        if ctx is None:  # bare compare: this entry is on the perf gate
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        return self._active_neighbors(
            multiset, times, durations, t_start, t_end
        )

    def has_edge(
        self,
        u: int,
        v: int,
        t_start: int,
        t_end: int,
        *,
        ctx: Optional[QueryContext] = None,
    ) -> bool:
        """Algorithm 1: is ``v`` a neighbor of ``u`` during [t_start, t_end]?

        Binary-searches the label-sorted multiset for the ``v``-run;
        timestamps come from the same cached record.  ``ctx`` bounds the
        query (see :mod:`repro.runtime`).
        """
        if ctx is None:  # bare compare: this entry is on the perf gate
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        start = bisect_left(multiset, v)
        if start == len(multiset) or multiset[start] != v:
            return False
        end = bisect_right(multiset, v, start)
        kind = self.kind
        # One edge's contact run: bounded by the decoded record, whose
        # size was already charged at decode time.
        for i in range(start, end):  # repro: noqa[CG007]
            duration = durations[i] if durations is not None else 0
            c = Contact(u, v, times[i], duration)
            if c.is_active(t_start, t_end, kind):
                return True
        return False

    def edge_timestamps(
        self, u: int, v: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """All activation timestamps of the edge (u, v), ascending."""
        if ctx is None:
            multiset, times, _ = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, _ = self._decode_record(u)
        start = bisect_left(multiset, v)
        if start == len(multiset) or multiset[start] != v:
            return []
        return times[start : bisect_right(multiset, v, start)]

    def neighbors_before(
        self, u: int, t: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """Neighbors active strictly before ``t`` (Section IV-F).

        For point and incremental graphs: a contact before ``t``.  For
        interval graphs: activity starting before ``t``.  Equivalent to
        ``neighbors(u, t_min, t - 1)``: the closed-window complement of
        :meth:`neighbors_after`, so a contact exactly at ``t`` is excluded.
        """
        lo = self.t_min
        if t <= lo:
            return []
        if ctx is None:
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        return self._active_neighbors(multiset, times, durations, lo, t - 1)

    def neighbors_after(
        self, u: int, t: int, *, ctx: Optional[QueryContext] = None
    ) -> List[int]:
        """Neighbors active at or after ``t`` (Section IV-F), sorted distinct.

        Incremental edges never deactivate, so any edge is "after" every
        ``t`` at or past its creation; interval contacts count when their
        activity reaches ``t`` or later.  A contact exactly at ``t`` is
        included (closed lower bound).  The multiset is label-sorted, so
        deduplicating against the last emitted label already yields the
        sorted distinct output.
        """
        if ctx is None:
            multiset, times, durations = self._decode_record(u)
        else:
            with query_scope(ctx):
                multiset, times, durations = self._decode_record(u)
        out: List[int] = []
        kind = self.kind
        if kind is GraphKind.POINT:
            for v, ts in zip(multiset, times):
                if ts >= t and (not out or out[-1] != v):
                    out.append(v)
        elif kind is GraphKind.INCREMENTAL:
            for v in multiset:
                if not out or out[-1] != v:
                    out.append(v)
        else:
            for v, ts, d in zip(multiset, times, durations):
                if d > 0 and ts + d > t and (not out or out[-1] != v):
                    out.append(v)
        return out

    def edge_activity(self, u: int, v: int) -> List[Tuple[int, int]]:
        """(start, end-exclusive) activity spans of edge (u, v), sorted.

        Point and incremental contacts yield unit spans at their
        timestamps; interval contacts yield their full span.
        """
        spans: List[Tuple[int, int]] = []
        for c in self.contacts_of(u):
            if c.v != v:
                continue
            if self.kind is GraphKind.INTERVAL:
                if c.duration > 0:
                    spans.append((c.time, c.end))
            else:
                spans.append((c.time, c.time + 1))
        return spans

    # -- batch queries ---------------------------------------------------------

    def neighbors_many(
        self,
        queries: Sequence[Tuple[int, int, int]],
        *,
        ctx: Optional[QueryContext] = None,
    ) -> List[List[int]]:
        """Batch :meth:`neighbors`: results align with the input order.

        ``queries`` is a sequence of ``(u, t_start, t_end)`` triples.  The
        batch is grouped by node so each distinct node is decoded (or
        cache-probed) exactly once per call -- the win over a plain loop.
        ``ctx`` bounds the whole batch: one admission, polled once per
        node.
        """
        triples = [(int(u), t0, t1) for u, t0, t1 in queries]
        out: List[Optional[List[int]]] = [None] * len(triples)
        with query_scope(ctx):
            groups: Dict[int, List[Tuple[int, int, int]]] = {}
            for i, (u, t0, t1) in enumerate(triples):
                self._check_node(u)
                groups.setdefault(u, []).append((i, t0, t1))
            for u, wants in groups.items():
                if ctx is not None:
                    ctx.checkpoint()
                multiset, times, durations = self._decode_record(u)
                for i, t0, t1 in wants:
                    out[i] = self._active_neighbors(
                        multiset, times, durations, t0, t1
                    )
        return out  # type: ignore[return-value]

    def to_static_graph(self) -> List[Tuple[int, int]]:
        """The "flattened" aggregated view of Figure 1(a): distinct edges."""
        edges: List[Tuple[int, int]] = []
        for u, distinct in self._walk(structure_only=True):
            for v in distinct:
                edges.append((u, v))
        return edges

    def snapshot(
        self, t_start: int, t_end: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Tuple[int, int]]:
        """All distinct edges active within the closed interval, sorted."""
        edges: List[Tuple[int, int]] = []
        with query_scope(ctx):
            for u, (multiset, times, durations) in self._walk(ctx):
                for v in self._active_neighbors(
                    multiset, times, durations, t_start, t_end
                ):
                    edges.append((u, v))
        return edges

    def iter_window_neighbors(
        self, t_start: int, t_end: int, *, ctx: Optional[QueryContext] = None
    ) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(u, active neighbors)`` for every node, one decode per node.

        The bulk form of :meth:`neighbors` used by full-graph consumers
        (the vertex-centric engine's undirected symmetrisation, exports);
        the same closed ``[t_start, t_end]`` window applies.  ``ctx`` is
        polled per node as the consumer iterates (never held across a
        yield).
        """
        for u, (multiset, times, durations) in self._walk(ctx):
            yield u, self._active_neighbors(
                multiset, times, durations, t_start, t_end
            )

    def iter_contacts(self, *, ctx: Optional[QueryContext] = None):
        """Yield every contact in (u, v, time) storage order, lazily.

        Decodes one node at a time, so full-graph passes (exports, motif
        counters, bulk loads) never hold more than one node's contacts
        beyond the output itself.  ``ctx`` is polled per node as the
        consumer iterates.
        """
        for u, (multiset, times, durations) in self._walk(ctx):
            if durations is None:
                for v, t in zip(multiset, times):
                    yield Contact(u, v, t)
            else:
                for v, t, d in zip(multiset, times, durations):
                    yield Contact(u, v, t, d)

    def iter_records(
        self, *, ctx: Optional[QueryContext] = None
    ) -> Iterator[Tuple[int, List[int], List[int], Optional[List[int]]]]:
        """Yield ``(u, multiset, times, durations)`` for every node with contacts.

        In id order: the encoder's input form
        (:func:`repro.core.encoder.encode_records`), so a graph re-encodes
        without going through contacts.  The lists are the cached decoded
        records; callers must not mutate them.  ``ctx`` is polled per node
        as the consumer iterates.
        """
        for u, (multiset, times, durations) in self._walk(ctx):
            if multiset:
                yield u, multiset, times, durations

    def to_temporal_graph(self) -> "object":
        """Full decompression back to a :class:`repro.graph.model.TemporalGraph`."""
        from repro.graph.model import TemporalGraph

        return TemporalGraph(
            self.kind,
            self.num_nodes,
            list(self.iter_contacts()),
            name=self.name,
            granularity="stored",
            sort=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompressedChronoGraph({self.name!r}, nodes={self.num_nodes}, "
            f"contacts={self.num_contacts}, "
            f"bits/contact={self.bits_per_contact:.2f})"
        )
