"""Top-level ChronoGraph compression entry point.

:func:`compress` encodes a temporal graph in one streaming pass over its
nodes (Sections IV-A to IV-D): each node's structure record picks the
cheapest reference among the previous ``window`` nodes, sized in closed
form, and both records are written once through the bulk code writers.
Nodes without contacts skip all of that: each run of them is written as
one run of 4-bit ``1111`` records.
"""

from __future__ import annotations

import dataclasses
from array import array
from collections import Counter
from typing import List, Optional, Tuple

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

    Split out of :func:`compress` so a reference encoder can start from
    the same fully-resolved configuration and be compared bit for bit.
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
        structure_offsets=array("Q", structure_offsets),
        timestamp_offsets=array("Q", timestamp_offsets),
        name=graph.name,
    )


def compress(
    graph: TemporalGraph,
    config: Optional[ChronoGraphConfig] = None,
) -> CompressedChronoGraph:
    """Compress a temporal graph into a :class:`CompressedChronoGraph`.

    When ``config.resolution > 1`` the timestamps are first aggregated to
    that granularity (Section IV-C), trading temporal precision for space.

    Compression streams through the nodes once; only the distinct neighbor
    lists of the last ``window`` nodes with contacts are retained for
    reference selection, so peak memory stays proportional to the window,
    matching the paper's remark that ChronoGraph's compression-time memory
    use is dominated by the offset indexes.  Only nodes with contacts go
    through reference selection and the record writers; each run of empty
    nodes between them is written in one piece.
    """
    graph, config = _prepare(graph, config)
    t_min = graph.t_min
    with_durations = graph.kind is GraphKind.INTERVAL
    window = config.window
    structure = BitWriter()
    timestamps = BitWriter()
    structure_offsets: List[int] = []
    timestamp_offsets: List[int] = []
    # Distinct lists and chain depths of the last ``window`` active nodes,
    # which include every reference candidate: an empty node's list is
    # never one (see encode_node_structure), so empty nodes get no entry.
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

    for u in graph.active_nodes():
        write_empty_run(u)
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
        if len(window_distinct) > window:
            oldest = next(iter(window_distinct))
            del window_distinct[oldest]
            del ref_depth[oldest]
    write_empty_run(graph.num_nodes)

    return _build(
        graph, config, structure, timestamps,
        structure_offsets, timestamp_offsets,
    )
