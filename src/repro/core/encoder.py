"""Top-level ChronoGraph compression entry points.

:func:`compress` is the reference single-process encoder.
:func:`compress_parallel` produces **bit-identical** output from multiple
worker processes.  Reference selection is path-dependent (``max_ref_chain``
bounds the chain depth through previously *chosen* references), so a naive
range split would diverge from the serial encoder; instead the parallel
encoder runs three phases:

1. **Size** (parallel): every node sizes its no-reference encoding and every
   window candidate that passes the path-independent filters (non-empty
   distinct list, overlap with the singles).  Candidate sizes depend only on
   the input graph, never on earlier choices.
2. **Select** (serial, cheap): replay the serial encoder's selection loop
   over the precomputed sizes -- identical tie-breaking (strict ``<``,
   ascending ``r``) and identical ``ref_depth`` bookkeeping -- yielding the
   exact reference the serial encoder would pick for every node.
3. **Encode** (parallel): workers encode contiguous node ranges with the
   chosen references and the stitcher splices the chunks with
   :meth:`repro.bits.bitio.BitWriter.extend`, shifting offsets by the
   cumulative base.  Bit concatenation is associative, so the spliced
   streams equal the serial ones bit for bit.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bits.bitio import BitWriter
from repro.bits.codes import zeta_length_from_bits
from repro.bits.eliasfano import EliasFano
from repro.core.compressed import CompressedChronoGraph
from repro.core.config import ChronoGraphConfig
from repro.core.structure import (
    encode_node_structure,
    singles_bits,
    singles_codes,
    split_duplicates,
    write_structure_record,
)
from repro.core.timestamps import encode_node_timestamps, timestamp_naturals
from repro.graph.aggregate import aggregate
from repro.graph.model import GraphKind, TemporalGraph

#: Candidate zeta parameters for auto-selection, the Figure 7 sweep range.
_ZETA_CANDIDATES = range(2, 8)


def select_timestamp_zeta_k(graph: TemporalGraph) -> tuple[int, int]:
    """The (gap, duration) zeta parameters minimising the timestamp stream.

    This reproduces how the paper picks per-dataset codes: Figure 7 sizes
    each k and Section V-F recommends the winner per lifetime/granularity
    class.  A zeta_k code's length depends only on the bit length of the
    coded value, so one pass over the contacts builds a bit-length
    histogram of the naturals each stream codes (:func:`timestamp_naturals`,
    and the durations of an interval graph) and every k is sized from it in
    closed form.  Ties go to the smaller k.
    """
    t_min = graph.t_min
    gap_bits: Counter[int] = Counter()
    for u in graph.active_nodes():
        naturals = timestamp_naturals([c.time for c in graph.contacts_of(u)], t_min)
        gap_bits.update([(n + 1).bit_length() for n in naturals])
    duration_bits: Counter[int] = Counter()
    if graph.kind is GraphKind.INTERVAL:
        duration_bits.update([(c.duration + 1).bit_length() for c in graph.contacts])
    return _best_zeta_k(gap_bits), _best_zeta_k(duration_bits)


def _best_zeta_k(bit_lengths: Counter[int]) -> int:
    """The candidate k coding a bit-length histogram in the fewest bits."""
    totals = {
        k: sum(count * zeta_length_from_bits(b, k) for b, count in bit_lengths.items())
        for k in _ZETA_CANDIDATES
    }
    return min(totals, key=lambda k: (totals[k], k))


def _prepare(
    graph: TemporalGraph, config: Optional[ChronoGraphConfig]
) -> Tuple[TemporalGraph, ChronoGraphConfig]:
    """Aggregate to the target resolution and resolve the zeta parameters.

    Shared by the serial and parallel encoders so both work from the same
    fully-resolved configuration (a prerequisite for bit-identity).
    """
    if config is None:
        config = ChronoGraphConfig()
    if config.resolution > 1:
        graph = aggregate(graph, config.resolution)
    if config.timestamp_zeta_k is None or (
        config.duration_zeta_k is None and graph.kind is GraphKind.INTERVAL
    ):
        best_gap, best_dur = select_timestamp_zeta_k(graph)
        config = dataclasses.replace(
            config,
            timestamp_zeta_k=config.timestamp_zeta_k or best_gap,
            duration_zeta_k=config.duration_zeta_k or best_dur,
        )
    return graph, config


def _build(
    graph: TemporalGraph,
    config: ChronoGraphConfig,
    structure: BitWriter,
    timestamps: BitWriter,
    structure_offsets: List[int],
    timestamp_offsets: List[int],
) -> CompressedChronoGraph:
    """Wrap finished streams and offsets into the queryable container."""
    return CompressedChronoGraph(
        kind=graph.kind,
        num_nodes=graph.num_nodes,
        num_contacts=graph.num_contacts,
        t_min=graph.t_min,
        config=config,
        structure_bytes=structure.to_bytes(),
        structure_bits=len(structure),
        timestamp_bytes=timestamps.to_bytes(),
        timestamp_bits=len(timestamps),
        structure_offsets=EliasFano(structure_offsets, universe=len(structure) + 1),
        timestamp_offsets=EliasFano(timestamp_offsets, universe=len(timestamps) + 1),
        name=graph.name,
    )


def _encode_prepared(
    graph: TemporalGraph, config: ChronoGraphConfig
) -> CompressedChronoGraph:
    """The serial per-node encode loop over a prepared (graph, config)."""
    t_min = graph.t_min
    with_durations = graph.kind is GraphKind.INTERVAL
    structure = BitWriter()
    timestamps = BitWriter()
    structure_offsets: List[int] = []
    timestamp_offsets: List[int] = []
    window_distinct: dict = {}
    ref_depth: dict = {}

    for u in range(graph.num_nodes):
        structure_offsets.append(len(structure))
        timestamp_offsets.append(len(timestamps))
        contacts = graph.contacts_of(u)
        multiset = [c.v for c in contacts]
        encode_node_structure(
            structure, u, multiset, window_distinct, ref_depth, config
        )
        times = [c.time for c in contacts]
        durations = [c.duration for c in contacts] if with_durations else None
        encode_node_timestamps(
            timestamps,
            times,
            durations,
            t_min,
            config.timestamp_zeta_k,
            config.duration_zeta_k,
        )
        evicted = u - config.window
        if evicted >= 0:
            window_distinct.pop(evicted, None)
            ref_depth.pop(evicted, None)

    return _build(
        graph, config, structure, timestamps,
        structure_offsets, timestamp_offsets,
    )


def compress(
    graph: TemporalGraph,
    config: Optional[ChronoGraphConfig] = None,
) -> CompressedChronoGraph:
    """Compress a temporal graph into a :class:`CompressedChronoGraph`.

    When ``config.resolution > 1`` the timestamps are first aggregated to
    that granularity (Section IV-C), trading temporal precision for space.

    Compression streams through the nodes once; only the distinct neighbor
    lists of the last ``window`` nodes are retained for reference selection,
    so peak memory stays proportional to the window, matching the paper's
    remark that ChronoGraph's compression-time memory use is dominated by
    the offset indexes.
    """
    graph, config = _prepare(graph, config)
    return _encode_prepared(graph, config)


# --------------------------------------------------------------------------
# Parallel encoder (multiprocessing, bit-identical to ``compress``)
# --------------------------------------------------------------------------

#: Below this many nodes the fork/pickle overhead dwarfs the encode itself.
_PARALLEL_MIN_NODES = 16

#: Per-node sizing record: (no-reference length, [(r, candidate length)]).
_NodeSizes = Tuple[int, List[Tuple[int, int]]]

#: Per-process worker state, set once by :func:`_init_worker` when the pool
#: starts.  Shipping the graph through initargs pickles it once per worker
#: instead of once per task (the sizing and encoding phases would otherwise
#: each send a full-graph copy with every range).
_worker_graph: Optional[TemporalGraph] = None
_worker_config: Optional[ChronoGraphConfig] = None


def _init_worker(graph: TemporalGraph, config: ChronoGraphConfig) -> None:
    """Pool initializer: stash the shared (graph, config) in the worker."""
    global _worker_graph, _worker_config
    _worker_graph = graph
    _worker_config = config


def _distinct_of(graph: TemporalGraph, v: int) -> List[int]:
    """Sorted distinct neighbor labels of ``v`` straight from the contacts.

    This is exactly the ``previous_distinct`` value the serial encoder
    records after encoding ``v`` -- it depends only on the input graph,
    never on reference choices, which is what makes phase 1 parallelisable.
    """
    return sorted({c.v for c in graph.contacts_of(v)})


def _size_candidates(args) -> List[_NodeSizes]:
    """Phase 1 worker: size every encoding candidate of a node range."""
    lo, hi = args
    graph, config = _worker_graph, _worker_config
    out: List[_NodeSizes] = []
    k = config.structure_zeta_k
    for u in range(lo, hi):
        multiset = [c.v for c in graph.contacts_of(u)]
        _, singles = split_duplicates(multiset)
        no_ref = singles_bits(singles_codes(u, singles, None, config), k)
        cands: List[Tuple[int, int]] = []
        single_set = set(singles)
        for r in range(1, config.window + 1):
            v = u - r
            if v < 0:
                break
            reference_list = _distinct_of(graph, v)
            if not reference_list:
                continue
            if single_set.isdisjoint(reference_list):
                continue  # nothing to copy; the no-reference encoding wins
            record = singles_codes(u, singles, (r, reference_list), config)
            cands.append((r, singles_bits(record, k)))
        out.append((no_ref, cands))
    return out


def _select_references(
    num_nodes: int,
    window: int,
    max_ref_chain: Optional[int],
    sizes: Sequence[_NodeSizes],
) -> List[int]:
    """Phase 2: replay the serial selection loop over precomputed sizes.

    Identical semantics to :func:`repro.core.structure.encode_node_structure`:
    candidates are considered in ascending ``r``, replace the incumbent only
    when strictly smaller, and chain depth is checked against the *chosen*
    depth of the target -- the path-dependent part that forces this phase
    to be sequential (it is O(n * window) integer work, not encoding).
    """
    ref_depth: Dict[int, int] = {}
    chosen = [0] * num_nodes
    for u in range(num_nodes):
        no_ref, cands = sizes[u]
        best_len = no_ref
        best_ref = 0
        best_depth = 0
        for r, cand_len in cands:
            depth = ref_depth.get(u - r, 0) + 1
            if max_ref_chain is not None and depth > max_ref_chain:
                continue
            if cand_len < best_len:
                best_len = cand_len
                best_ref = r
                best_depth = depth
        chosen[u] = best_ref
        ref_depth[u] = best_depth if best_ref else 0
        evicted = u - window
        if evicted >= 0:
            ref_depth.pop(evicted, None)
    return chosen


def _encode_range(args):
    """Phase 3 worker: encode ``[lo, hi)`` with pre-selected references.

    Returns ``(structure bytes, structure bits, structure offsets,
    timestamp bytes, timestamp bits, timestamp offsets)`` with offsets
    relative to the chunk start.
    """
    chosen, lo, hi = args
    graph, config = _worker_graph, _worker_config
    t_min = graph.t_min
    with_durations = graph.kind is GraphKind.INTERVAL
    structure = BitWriter()
    timestamps = BitWriter()
    soffsets: List[int] = []
    toffsets: List[int] = []
    for u in range(lo, hi):
        soffsets.append(len(structure))
        toffsets.append(len(timestamps))
        contacts = graph.contacts_of(u)
        multiset = [c.v for c in contacts]
        dedup, singles = split_duplicates(multiset)
        r = chosen[u - lo]
        reference = (r, _distinct_of(graph, u - r)) if r else None
        write_structure_record(
            structure, u, dedup,
            singles_codes(u, singles, reference, config),
            config.structure_zeta_k,
        )
        times = [c.time for c in contacts]
        durations = [c.duration for c in contacts] if with_durations else None
        encode_node_timestamps(
            timestamps,
            times,
            durations,
            t_min,
            config.timestamp_zeta_k,
            config.duration_zeta_k,
        )
    return (
        structure.to_bytes(), len(structure), soffsets,
        timestamps.to_bytes(), len(timestamps), toffsets,
    )


def compress_parallel(
    graph: TemporalGraph,
    config: Optional[ChronoGraphConfig] = None,
    *,
    workers: Optional[int] = None,
) -> CompressedChronoGraph:
    """Compress with worker processes; output is bit-identical to :func:`compress`.

    ``workers`` defaults to ``os.cpu_count()``; with one worker (or a graph
    too small to amortise process start-up) this simply calls the serial
    path.  The graph and config ship to each worker once, through the pool
    initializer, so per-task payloads are just node ranges.  Pool failures
    -- start-up errors in restricted environments without
    ``fork``/semaphores, workers dying mid-run (``BrokenProcessPool``) and
    unpicklable graph or config fields -- all fall back to the serial
    encoder rather than erroring: the result is defined to be the same
    bytes either way.
    """
    graph, config = _prepare(graph, config)
    n = graph.num_nodes
    w = int(workers) if workers is not None else (os.cpu_count() or 1)
    if w <= 1 or n < _PARALLEL_MIN_NODES:
        return _encode_prepared(graph, config)
    w = min(w, n)
    bounds = [(n * i) // w for i in range(w + 1)]
    ranges = [
        (bounds[i], bounds[i + 1])
        for i in range(w)
        if bounds[i] < bounds[i + 1]
    ]
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    except ImportError:  # stripped-down stdlib: serial fallback
        return _encode_prepared(graph, config)
    try:
        with ProcessPoolExecutor(
            max_workers=len(ranges),
            initializer=_init_worker,
            initargs=(graph, config),
        ) as pool:
            sized = list(pool.map(_size_candidates, ranges))
            sizes = [entry for part in sized for entry in part]
            chosen = _select_references(
                n, config.window, config.max_ref_chain, sizes
            )
            chunks = list(
                pool.map(
                    _encode_range,
                    [(chosen[lo:hi], lo, hi) for lo, hi in ranges],
                )
            )
    except (OSError, ImportError, BrokenProcessPool, pickle.PicklingError):
        # No fork/semaphores, a worker died mid-run, or the graph/config
        # cannot cross the process boundary: serial fallback, same bytes.
        return _encode_prepared(graph, config)
    structure = BitWriter()
    timestamps = BitWriter()
    structure_offsets: List[int] = []
    timestamp_offsets: List[int] = []
    for sbytes, sbits, soffs, tbytes, tbits, toffs in chunks:
        sbase = len(structure)
        tbase = len(timestamps)
        structure_offsets.extend(sbase + off for off in soffs)
        timestamp_offsets.extend(tbase + off for off in toffs)
        structure.extend(BitWriter.from_bits(sbytes, sbits))
        timestamps.extend(BitWriter.from_bits(tbytes, tbits))
    return _build(
        graph, config, structure, timestamps,
        structure_offsets, timestamp_offsets,
    )
