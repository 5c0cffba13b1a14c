"""The in-memory compressed temporal graph and its query surface.

A :class:`CompressedChronoGraph` owns four artefacts (Section IV-F):

* the compressed structure stream and the compressed timestamp stream,
* one Elias-Fano offset index per stream.

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
  :meth:`iter_contacts`, :meth:`iter_window_neighbors`) that walk the
  streams in storage order and decode every node at most once per pass,
  resolving reference chains from a rolling window instead of re-seeking.

Concurrency model
-----------------

The query surface is safe to share across threads:

* The decoded-record cache is sharded; each shard guards its LRU segment
  with its own lock, and the hit/miss counters live inside those locks, so
  lookups from different threads never corrupt cache state.  Eviction
  preserves the *global* LRU order exactly (per-entry sequence numbers)
  by briefly holding every shard lock in index order.
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
checkpoints down to the bulk-decode loops.  An expired envelope raises
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
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.bits import codes, kernels
from repro.bits.bitio import BitReader, Buffer
from repro.bits.eliasfano import EliasFano
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

#: Shard count of the decoded-record cache (power of two; shard = u & mask).
_CACHE_SHARDS = 8
_SHARD_MASK = _CACHE_SHARDS - 1

_UNSET = object()

#: A decoded node record: (neighbor multiset, timestamps, durations-or-None).
NodeRecord = Tuple[List[int], List[int], Optional[List[int]]]

#: Attributes rebuilt from scratch on unpickle: locks, cache shards and the
#: counters that live next to them (a transported graph starts cold).
_RUNTIME_KEYS = (
    "_next_seq",
    "_shards",
    "_distinct_lock",
    "_distinct_cache",
    "_cache_evictions",
)


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


class _CacheShard:
    """One segment of the decoded-record LRU.

    ``records`` maps node -> ``[sequence, cost, record]``;
    ``sequence`` is drawn from a graph-global clock on every hit, so the
    entry with the minimum sequence across shards is the exact global LRU
    victim.  Reads are lock-free (dict lookups and counter bumps are
    GIL-atomic; the recency stamp is a single list-item store); the lock
    guards every mutation of the dict or the byte total.
    """

    __slots__ = ("lock", "records", "bytes", "hits", "misses")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.records: Dict[int, list] = {}
        self.bytes = 0
        self.hits = _AtomicCounter()
        self.misses = _AtomicCounter()


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
        structure_offsets: EliasFano,
        timestamp_offsets: EliasFano,
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
        """Create the locks, cache shards and counters (never pickled)."""
        # LRU clock: itertools.count.__next__ is a C call, atomic under the
        # GIL, so recency stamps need no lock of their own.
        self._next_seq = itertools.count(1).__next__
        self._shards = tuple(_CacheShard() for _ in range(_CACHE_SHARDS))
        self._distinct_lock = threading.RLock()
        self._distinct_cache: "OrderedDict[int, List[int]]" = OrderedDict()
        self._cache_evictions = 0

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
        self._init_runtime()

    # -- size accounting -----------------------------------------------------

    @property
    def structure_size_bits(self) -> int:
        """Structure stream plus its offset index."""
        return self._sbits + self._soffsets.size_in_bits()

    @property
    def timestamp_size_bits(self) -> int:
        """Timestamp stream plus its offset index (the Table IV parenthesis)."""
        return self._tbits + self._toffsets.size_in_bits()

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

        Every record-level lookup (one per query, one per node of a
        sequential pass) counts exactly one hit or one miss; evictions
        count records dropped to honour the budget, not overwrites.
        Counters are atomic and monotone, so no lost updates under
        concurrency; occupancy is summed under every shard lock.
        """
        shards = self._shards
        hits = sum(s.hits.value() for s in shards)
        misses = sum(s.misses.value() for s in shards)
        for shard in shards:
            shard.lock.acquire()
        try:
            entries = sum(len(s.records) for s in shards)
            current = sum(s.bytes for s in shards)
        finally:
            for shard in reversed(shards):
                shard.lock.release()
        return {
            "hits": hits,
            "misses": misses,
            "evictions": self._cache_evictions,
            "entries": entries,
            "current_bytes": current,
            "max_bytes": self._cache_max_bytes,
            "max_entries": self._cache_max_entries,
        }

    def decode_kernel_info(self) -> Dict[str, object]:
        """Which bulk-decode kernel tier this process resolves to.

        Every record decode routes through the :mod:`repro.bits.kernels`
        planner; this surfaces its process-wide settings (override, numpy
        availability, auto-mode crossover) so operators can confirm what a
        deployment is actually running.  Tier selection never changes
        answers -- only speed -- so this is purely observability.
        """
        return kernels.kernel_info()

    def configure_cache(self, *, max_bytes=_UNSET, max_entries=_UNSET) -> None:
        """Re-bound the record cache; ``None`` lifts that bound.

        ``max_bytes`` budgets the estimated decoded footprint
        (:meth:`_record_cost`); ``max_entries`` caps the record count.
        Shrinking evicts least-recently-used records immediately.
        """
        if max_bytes is not _UNSET:
            self._cache_max_bytes = max_bytes
        if max_entries is not _UNSET:
            self._cache_max_entries = max_entries
        self._evict_to_fit()

    def clear_cache(self) -> None:
        """Drop every cached decoded record (counters are preserved)."""
        shards = self._shards
        for shard in shards:
            shard.lock.acquire()
        try:
            for shard in shards:
                shard.records.clear()
                shard.bytes = 0
        finally:
            for shard in reversed(shards):
                shard.lock.release()

    def _evict_to_fit(self) -> None:
        """Evict global-LRU records in one batch until both bounds hold.

        Holds every shard lock (in index order -- the only multi-shard
        acquisition pattern, so lock order is total), sorts every entry by
        its recency sequence once, and evicts in that order: exactly the
        global least-recently-used records first.  Hits stamp recency
        without locks, so no per-shard order is maintained; one sorted
        scan per batch pays for the lock-free hot path.

        When a bound is exceeded, eviction overshoots down to ~7/8 of that
        bound (an eighth of hysteresis, which rounds to zero for tiny
        caches, keeping their eviction exact).  A sustained stream of
        inserts against a full cache therefore triggers one global scan
        per *batch* of evictions instead of one per inserted record --
        amortised logarithmic, not quadratic.
        """
        max_bytes = self._cache_max_bytes
        max_entries = self._cache_max_entries
        if max_bytes is None and max_entries is None:
            return
        shards = self._shards
        for shard in shards:
            shard.lock.acquire()
        try:
            entries = sum(len(s.records) for s in shards)
            total = sum(s.bytes for s in shards)
            if not (
                (max_entries is not None and entries > max_entries)
                or (max_bytes is not None and total > max_bytes)
            ):
                return
            goal_entries = (
                None if max_entries is None else max_entries - max_entries // 8
            )
            goal_bytes = (
                None if max_bytes is None else max_bytes - max_bytes // 8
            )
            order = [
                (entry[0], key, shard)
                for shard in shards
                for key, entry in shard.records.items()
            ]
            order.sort(key=lambda item: item[0])
            for _, key, shard in order:
                if not (
                    (goal_entries is not None and entries > goal_entries)
                    or (goal_bytes is not None and total > goal_bytes)
                ):
                    break
                evicted = shard.records.pop(key)
                shard.bytes -= evicted[1]
                total -= evicted[1]
                entries -= 1
                self._cache_evictions += 1
        finally:
            for shard in reversed(shards):
                shard.lock.release()

    def _maybe_evict(self) -> None:
        """Cheap unlocked bound check before taking every shard lock."""
        max_bytes = self._cache_max_bytes
        max_entries = self._cache_max_entries
        if max_bytes is None and max_entries is None:
            return
        shards = self._shards
        if (
            max_entries is not None
            and sum(len(s.records) for s in shards) > max_entries
        ) or (
            max_bytes is not None and sum(s.bytes for s in shards) > max_bytes
        ):
            self._evict_to_fit()

    def _cache_get(self, u: int) -> Optional[NodeRecord]:
        """Counting lookup: promotes and returns the record on a hit.

        Lock-free: the dict read and counter bumps are GIL-atomic, and the
        recency stamp is a single list-item store whose races only blur
        LRU order, never a returned record.
        """
        shard = self._shards[u & _SHARD_MASK]
        entry = shard.records.get(u)
        if entry is not None:
            entry[0] = self._next_seq()
            shard.hits.increment()
            return entry[2]
        shard.misses.increment()
        return None

    def _cache_peek(self, u: int) -> Optional[NodeRecord]:
        """Non-counting, non-promoting lookup (structure-only passes)."""
        entry = self._shards[u & _SHARD_MASK].records.get(u)
        return None if entry is None else entry[2]

    def _cache_put(self, u: int, record: NodeRecord) -> None:
        max_entries = self._cache_max_entries
        if max_entries is not None and max_entries <= 0:
            return
        cost = self._record_cost(record)
        max_bytes = self._cache_max_bytes
        if max_bytes is not None and cost > max_bytes:
            return  # would evict the whole cache for a single-use record
        shard = self._shards[u & _SHARD_MASK]
        with shard.lock:
            old = shard.records.get(u)
            if old is not None:
                # A racing decode of the same node got here first; both
                # records are identical, so keep the byte total exact.
                shard.bytes -= old[1]
            shard.records[u] = [self._next_seq(), cost, record]
            shard.bytes += cost
        self._maybe_evict()

    def _decode_record(self, u: int) -> NodeRecord:
        """The fully decoded record of ``u``, through the LRU cache."""
        self._check_node(u)
        record = self._cache_get(u)
        if record is not None:
            return record
        dedup, singles = self._decode_structure(u)
        multiset = multiset_from_parts(dedup, singles)
        times, durations = self._decode_timestamps(u, len(multiset))
        record = (multiset, times, durations)
        self._cache_put(u, record)
        return record

    # -- decoding ------------------------------------------------------------

    def _check_node(self, u: int) -> None:
        n = self.num_nodes
        if not 0 <= u < n:
            raise GraphDomainError(f"node {u} outside [0, {n})")

    def _corrupt(self, u: int, stage: str, exc: Exception) -> CorruptStreamError:
        return CorruptStreamError(f"node {u}: {stage} decode failed: {exc}")

    def _structure_reader(self, u: int) -> BitReader:
        self._touch_structure()
        reader = BitReader(self._sbytes, self._sbits)
        reader.seek(self._soffsets.access(u))
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

    def _decode_timestamps(
        self, u: int, count: int
    ) -> Tuple[List[int], Optional[List[int]]]:
        try:
            self._touch_timestamps()
            reader = BitReader(self._tbytes, self._tbits)
            reader.seek(self._toffsets.access(u))
            return decode_node_timestamps(
                reader,
                count,
                self.kind is GraphKind.INTERVAL,
                self.t_min,
                self.config.timestamp_zeta_k,
                self.config.duration_zeta_k,
            )
        except (FormatError, QueryInterrupted):
            raise
        except _DECODE_FAILURES as exc:
            raise self._corrupt(u, "timestamp", exc) from exc

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

    def _scan_records(
        self, ctx: Optional[QueryContext] = None
    ) -> Iterator[Tuple[int, NodeRecord]]:
        """Yield ``(u, record)`` for every node, decoding each node once.

        Both streams are walked with a single reader each; reference chains
        resolve against the distinct lists of the last ``config.window``
        nodes (the only legal targets), so a full pass never re-seeks or
        re-decodes an earlier record.  Cached records short-circuit their
        decode but still feed the rolling reference window.  No lock is
        held across a yield.

        ``ctx`` is polled once per node, and activated around each
        stream decode so the bulk readers chunk against it too -- but
        only around the decode, never across a yield, so the ambient
        context can't leak into the consumer's frame.
        """
        if self.num_nodes == 0:
            return
        config = self.config
        window = config.window
        limit = self.num_contacts
        with_durations = self.kind is GraphKind.INTERVAL
        self._touch_structure()
        self._touch_timestamps()
        sreader = BitReader(self._sbytes, self._sbits)
        treader = BitReader(self._tbytes, self._tbits)
        recent: Dict[int, List[int]] = {}

        def resolve(v: int) -> List[int]:
            got = recent.get(v)
            if got is not None:
                return got
            # Out-of-window reference (corrupt streams, window=0 configs):
            # fall back to the random-access resolver.
            return self._resolve_distinct(v)

        for u in range(self.num_nodes):
            if ctx is not None:
                ctx.checkpoint()
            record = self._cache_get(u)
            if record is None:
                with activate(ctx):
                    try:
                        sreader.seek(self._soffsets.access(u))
                        dedup, singles = decode_node_structure(
                            sreader, u, resolve, config, limit=limit
                        )
                    except (FormatError, QueryInterrupted):
                        raise
                    except _DECODE_FAILURES as exc:
                        raise self._corrupt(u, "structure", exc) from exc
                    multiset = multiset_from_parts(dedup, singles)
                    try:
                        treader.seek(self._toffsets.access(u))
                        times, durations = decode_node_timestamps(
                            treader,
                            len(multiset),
                            with_durations,
                            self.t_min,
                            config.timestamp_zeta_k,
                            config.duration_zeta_k,
                        )
                    except (FormatError, QueryInterrupted):
                        raise
                    except _DECODE_FAILURES as exc:
                        raise self._corrupt(u, "timestamp", exc) from exc
                record = (multiset, times, durations)
                self._cache_put(u, record)
            if window > 0:
                distinct: List[int] = []
                last = None
                for v in record[0]:
                    if v != last:
                        distinct.append(v)
                        last = v
                recent[u] = distinct
                recent.pop(u - window, None)
            yield u, record

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

    # -- structure-only scans --------------------------------------------------

    def _iter_distinct(self) -> Iterator[Tuple[int, List[int]]]:
        """Yield ``(u, distinct neighbors)`` in storage order, structure only.

        The timestamp stream is never touched; distinct lists come from the
        distinct-list cache, the record cache, or a sequential
        structure-only decode (references resolved from the rolling
        window), and feed the distinct-list cache so repeat passes are pure
        hits.  Record-cache counters are untouched: nothing here is a
        record-level lookup.  The distinct-cache lock is taken per node,
        never across a yield.
        """
        n = self.num_nodes
        if n == 0:
            return
        config = self.config
        window = config.window
        limit = self.num_contacts
        dcache = self._distinct_cache
        self._touch_structure()
        sreader = BitReader(self._sbytes, self._sbits)
        recent: Dict[int, List[int]] = {}

        def resolve(v: int) -> List[int]:
            got = recent.get(v)
            if got is not None:
                return got
            return self._resolve_distinct(v)

        for u in range(n):
            # Lock-free hit: distinct lists are immutable once cached (see
            # _resolve_distinct).
            distinct = dcache.get(u)
            if distinct is None:
                with self._distinct_lock:
                    distinct = dcache.get(u)
                if distinct is None:
                    record = self._cache_peek(u)
                    if record is not None:
                        distinct = []
                        last = None
                        for v in record[0]:
                            if v != last:
                                distinct.append(v)
                                last = v
                    else:
                        try:
                            sreader.seek(self._soffsets.access(u))
                            dedup, singles = decode_node_structure(
                                sreader, u, resolve, config, limit=limit
                            )
                        except (FormatError, QueryInterrupted):
                            raise
                        except _DECODE_FAILURES as exc:
                            raise self._corrupt(u, "structure", exc) from exc
                        distinct = sorted(
                            {*(label for label, _ in dedup), *singles}
                        )
                    with self._distinct_lock:
                        dcache[u] = distinct
                        if len(dcache) > _DISTINCT_CACHE_CAP:
                            dcache.popitem(last=False)
            if window > 0:
                recent[u] = distinct
                recent.pop(u - window, None)
            yield u, distinct

    def to_static_graph(self) -> List[Tuple[int, int]]:
        """The "flattened" aggregated view of Figure 1(a): distinct edges."""
        edges: List[Tuple[int, int]] = []
        for u, distinct in self._iter_distinct():
            for v in distinct:
                edges.append((u, v))
        return edges

    def snapshot(
        self, t_start: int, t_end: int, *, ctx: Optional[QueryContext] = None
    ) -> List[Tuple[int, int]]:
        """All distinct edges active within the closed interval, sorted."""
        edges: List[Tuple[int, int]] = []
        with query_scope(ctx):
            for u, (multiset, times, durations) in self._scan_records(ctx):
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
        for u, (multiset, times, durations) in self._scan_records(ctx):
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
        for u, (multiset, times, durations) in self._scan_records(ctx):
            if durations is None:
                for v, t in zip(multiset, times):
                    yield Contact(u, v, t)
            else:
                for v, t, d in zip(multiset, times, durations):
                    yield Contact(u, v, t, d)

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
