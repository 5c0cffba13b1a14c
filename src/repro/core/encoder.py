"""Top-level ChronoGraph compression entry point.

The encoder has one core, :func:`encode_records`: it takes node records
``(u, multiset, times, durations)`` in id order and encodes each one in a
single streaming pass (Sections IV-A to IV-D): each node's structure
record picks the cheapest reference among the previous ``window`` nodes,
sized in one pass per candidate, and both records are written once
through the bulk code writers.  Node ids without a record skip all of
that: each run of them is written as one run of 4-bit ``1111`` records.
:func:`resolve_zeta_k` picks the zeta parameters from the same records.

:func:`compress` turns a :class:`TemporalGraph` into records node by node
(:func:`node_records`) and streams them through the core.  The segment
store builds records straight from its sorted tail and from the decoded
records of the segments it merges (:mod:`repro.storage.segments`), so a
seal or a merge never goes through contacts or a graph.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bits.bitio import BitWriter
from repro.bits.codes import zeta_length_from_bits
from repro.core.compressed import CompressedChronoGraph
from repro.core.config import ChronoGraphConfig
from repro.core.structure import encode_node_structure
from repro.core.timestamps import encode_node_timestamps, timestamp_naturals
from repro.graph.aggregate import aggregate
from repro.graph.model import GraphKind, TemporalGraph

#: Candidate zeta parameters for auto-selection, the Figure 7 sweep range.
_ZETA_CANDIDATES = range(2, 8)

#: One node's record, the encoder's one input: ``(u, multiset, times,
#: durations)``.  The multiset is label-sorted, ``times[i]`` is the
#: timestamp of the contact with neighbor ``multiset[i]`` (ascending within
#: a label), and ``durations`` is aligned with ``times`` for interval graphs
#: and None otherwise.  The encoder never mutates these sequences.
Record = Tuple[int, Sequence[int], Sequence[int], Optional[Sequence[int]]]


def node_records(graph: TemporalGraph) -> Iterator[Record]:
    """Yield the record of every node with contacts, in id order."""
    with_durations = graph.kind is GraphKind.INTERVAL
    for u in graph.active_nodes():
        _us, multiset, times, durations = zip(*graph.contacts_of(u))
        yield u, multiset, times, durations if with_durations else None


def select_zeta_k(records: Iterable[Record], t_min: int) -> Tuple[int, int]:
    """The (gap, duration) zeta parameters minimising the timestamp stream.

    This reproduces how the paper picks per-dataset codes: Figure 7 sizes
    each k and Section V-F recommends the winner per lifetime/granularity
    class.  A zeta_k code's length depends only on the bit length of the
    coded value, so one pass over the records builds a bit-length
    histogram of the naturals each stream codes (:func:`timestamp_naturals`,
    and the durations of an interval graph) and every k is sized from it in
    closed form.  Ties go to the smaller k.
    """
    gap_bits: Counter[int] = Counter()
    duration_bits: Counter[int] = Counter()
    for _u, _multiset, times, durations in records:
        naturals = timestamp_naturals(times, t_min)
        gap_bits.update([(n + 1).bit_length() for n in naturals])
        if durations is not None:
            duration_bits.update([(d + 1).bit_length() for d in durations])
    return _best_zeta_k(gap_bits), _best_zeta_k(duration_bits)


def select_timestamp_zeta_k(graph: TemporalGraph) -> Tuple[int, int]:
    """:func:`select_zeta_k` over a graph's records."""
    return select_zeta_k(node_records(graph), graph.t_min)


def _best_zeta_k(bit_lengths: Counter[int]) -> int:
    """The candidate k coding a bit-length histogram in the fewest bits."""
    totals = {
        k: sum(count * zeta_length_from_bits(b, k) for b, count in bit_lengths.items())
        for k in _ZETA_CANDIDATES
    }
    return min(totals, key=lambda k: (totals[k], k))


def resolve_zeta_k(
    config: ChronoGraphConfig,
    kind: GraphKind,
    records: Iterable[Record],
    t_min: int,
) -> ChronoGraphConfig:
    """``config`` with every auto-selected zeta parameter picked.

    ``records`` is read only when a parameter is left to auto-selection
    (:func:`select_zeta_k`), so a lazy iterator costs nothing otherwise.
    """
    if config.timestamp_zeta_k is None or (
        config.duration_zeta_k is None and kind is GraphKind.INTERVAL
    ):
        best_gap, best_dur = select_zeta_k(records, t_min)
        config = dataclasses.replace(
            config,
            timestamp_zeta_k=config.timestamp_zeta_k or best_gap,
            duration_zeta_k=config.duration_zeta_k or best_dur,
        )
    return config


def _prepare(
    graph: TemporalGraph, config: Optional[ChronoGraphConfig]
) -> Tuple[TemporalGraph, ChronoGraphConfig]:
    """Aggregate to the target resolution and resolve the zeta parameters.

    Split out of :func:`compress` so a reference encoder can start from
    the same fully-resolved configuration and be compared bit for bit.
    """
    if config is None:
        config = ChronoGraphConfig()
    if config.resolution > 1:
        graph = aggregate(graph, config.resolution)
    config = resolve_zeta_k(config, graph.kind, node_records(graph), graph.t_min)
    return graph, config


def encode_records(
    kind: GraphKind,
    num_nodes: int,
    t_min: int,
    records: Iterable[Record],
    config: ChronoGraphConfig,
    name: str = "unnamed",
) -> CompressedChronoGraph:
    """Encode node records into a :class:`CompressedChronoGraph`.

    The encoder's one core.  ``records`` come in increasing id order, each
    below ``num_nodes`` with at least one contact, and none with a
    timestamp below ``t_min``; ids without a record are empty nodes.
    ``config`` must have its zeta parameters resolved
    (:func:`resolve_zeta_k`); its resolution is recorded, not applied --
    the records are already in its time units.

    The records are read once, in a stream: only the distinct neighbor
    lists of the last ``window`` records are retained for reference
    selection, so peak memory stays proportional to the window, matching
    the paper's remark that ChronoGraph's compression-time memory use is
    dominated by the offset indexes.  Each run of empty nodes between two
    records is written in one piece.
    """
    window = config.window
    gap_k = config.timestamp_zeta_k
    duration_k = config.duration_zeta_k
    structure = BitWriter()
    timestamps = BitWriter()
    structure_offsets: List[int] = []
    timestamp_offsets: List[int] = []
    num_contacts = 0
    # Distinct lists and chain depths of the last ``window`` records, which
    # include every reference candidate: an empty node's list is never one
    # (see encode_node_structure), so empty nodes get no entry.
    window_distinct: dict = {}
    ref_depth: dict = {}

    def write_empty_run(end: int) -> None:
        # The node ids from the next one up to ``end`` have no contacts:
        # each record is 1111 (four gamma(0) codes), no timestamp bits.
        m = end - len(structure_offsets)
        if m:
            start = len(structure)
            structure_offsets.extend(range(start, start + 4 * m, 4))
            timestamp_offsets.extend([len(timestamps)] * m)
            structure.write_bits((1 << 4 * m) - 1, 4 * m)

    for u, multiset, times, durations in records:
        write_empty_run(u)
        structure_offsets.append(len(structure))
        timestamp_offsets.append(len(timestamps))
        num_contacts += len(multiset)
        encode_node_structure(
            structure, u, multiset, window_distinct, ref_depth, config
        )
        encode_node_timestamps(
            timestamps, times, durations, t_min, gap_k, duration_k
        )
        if len(window_distinct) > window:
            oldest = next(iter(window_distinct))
            del window_distinct[oldest]
            del ref_depth[oldest]
    write_empty_run(num_nodes)

    return CompressedChronoGraph(
        kind=kind,
        num_nodes=num_nodes,
        num_contacts=num_contacts,
        t_min=t_min,
        config=config,
        structure_bytes=structure.to_bytes(),
        structure_bits=len(structure),
        timestamp_bytes=timestamps.to_bytes(),
        timestamp_bits=len(timestamps),
        structure_offsets=array("Q", structure_offsets),
        timestamp_offsets=array("Q", timestamp_offsets),
        name=name,
    )


def compress(
    graph: TemporalGraph,
    config: Optional[ChronoGraphConfig] = None,
) -> CompressedChronoGraph:
    """Compress a temporal graph into a :class:`CompressedChronoGraph`.

    When ``config.resolution > 1`` the timestamps are first aggregated to
    that granularity (Section IV-C), trading temporal precision for space.
    The graph then streams through :func:`encode_records` node by node.
    """
    graph, config = _prepare(graph, config)
    return encode_records(
        graph.kind,
        graph.num_nodes,
        graph.t_min,
        node_records(graph),
        config,
        name=graph.name,
    )
