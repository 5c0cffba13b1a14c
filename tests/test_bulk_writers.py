"""The bulk code writers and the closed-form sizing equal their scalar forms.

The encoder writes every record through ``write_many_*`` and picks every
size-driven choice -- the timestamp zeta_k and each node's reference -- from
closed-form lengths.  The scalar writers, ``zeta_length`` and the
per-contact zeta_k sweep stay here as the references: the bulk paths must
give the same bits, the same ``len()`` and the same choices, down to the
tie-break between two equally good k.
"""

import copy
import random
import time
from array import array

import pytest
from hypothesis import example, given, strategies as st

from repro.bits import codes
from repro.bits.bitio import BitWriter
from repro.core import ChronoGraphConfig, compress
from repro.core.compressed import CompressedChronoGraph
from repro.core.encoder import (
    _prepare,
    encode_records,
    node_records,
    select_timestamp_zeta_k,
)
from repro.core.serialize import dumps_compressed
from repro.core.structure import (
    candidate_bits,
    copy_blocks,
    dedup_gap_pairs,
    extra_gaps,
    interval_gap_pairs,
    singles_bits,
    singles_codes,
    split_duplicates,
    split_intervals,
    write_structure_record,
)
from repro.datasets import registry
from repro.errors import CodecDomainError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind

# --------------------------------------------------------------------------
# Scalar references
# --------------------------------------------------------------------------


def scalar_gamma(writer, values):
    return sum(codes.write_gamma_natural(writer, n) for n in values)


def scalar_zeta(writer, values, k):
    return sum(codes.write_zeta_natural(writer, n, k) for n in values)


def scalar_zeta_pairs(writer, values_a, values_b, k_a, k_b):
    bits = 0
    for a, b in zip(values_a, values_b):
        bits += codes.write_zeta_natural(writer, a, k_a)
        bits += codes.write_zeta_natural(writer, b, k_b)
    return bits


def reference_select_zeta_k(graph):
    """The per-contact zeta_k sweep: six ``zeta_length`` calls per code."""
    ks = range(2, 8)
    t_min = graph.t_min
    gap_totals = {k: 0 for k in ks}
    dur_totals = {k: 0 for k in ks}
    for u in graph.active_nodes():
        prev = None
        for c in graph.contacts_of(u):
            if prev is None:
                natural = c.time - t_min
            else:
                gap = c.time - prev
                natural = 2 * gap if gap >= 0 else 2 * (-gap) - 1
            prev = c.time
            for k in ks:
                gap_totals[k] += codes.zeta_length(natural + 1, k)
            if graph.kind is GraphKind.INTERVAL:
                for k in ks:
                    dur_totals[k] += codes.zeta_length(c.duration + 1, k)
    best_gap = min(gap_totals, key=lambda k: (gap_totals[k], k))
    best_dur = min(dur_totals, key=lambda k: (dur_totals[k], k))
    return best_gap, best_dur


def reference_singles(node, singles, reference, config):
    """A writer per reference candidate, scalar codes throughout."""
    writer = BitWriter()
    if reference is None:
        codes.write_gamma_natural(writer, 0)
        rest = list(singles)
    else:
        r, reference_list = reference
        ref_set = set(reference_list)
        copied = [x for x in singles if x in ref_set]
        rest = [x for x in singles if x not in ref_set]
        codes.write_gamma_natural(writer, r)
        runs = copy_blocks(reference_list, copied)
        codes.write_gamma_natural(writer, len(runs))
        for i, run in enumerate(runs):
            codes.write_gamma_natural(writer, run if i == 0 else run - 1)
    intervals, extras = split_intervals(rest, config.min_interval_length)
    codes.write_gamma_natural(writer, len(intervals))
    pairs = interval_gap_pairs(node, intervals, config.min_interval_length)
    for i, (gap, extra_len) in enumerate(pairs):
        if i == 0:
            codes.write_gamma_integer(writer, gap)
        else:
            codes.write_gamma_natural(writer, gap)
        codes.write_gamma_natural(writer, extra_len)
    codes.write_gamma_natural(writer, len(extras))
    for i, gap in enumerate(extra_gaps(node, extras)):
        if i == 0:
            codes.write_zeta_integer(writer, gap, config.structure_zeta_k)
        else:
            codes.write_zeta_natural(writer, gap, config.structure_zeta_k)
    return writer


def reference_compress(graph, config=None):
    """The encoder with materialised candidates and scalar writers."""
    graph, config = _prepare(graph, config)
    t_min = graph.t_min
    structure, timestamps = BitWriter(), BitWriter()
    soffsets, toffsets = [], []
    window_distinct, ref_depth = {}, {}
    for u in range(graph.num_nodes):
        soffsets.append(len(structure))
        toffsets.append(len(timestamps))
        contacts = graph.contacts_of(u)
        dedup, singles = split_duplicates([c.v for c in contacts])
        best_ref, best_depth = 0, 0
        best = reference_singles(u, singles, None, config)
        for r in range(1, config.window + 1):
            v = u - r
            if v < 0:
                break
            reference_list = window_distinct.get(v)
            if not reference_list:
                continue
            depth = ref_depth.get(v, 0) + 1
            if config.max_ref_chain is not None and depth > config.max_ref_chain:
                continue
            if not set(singles) & set(reference_list):
                continue
            candidate = reference_singles(u, singles, (r, reference_list), config)
            if len(candidate) < len(best):
                best, best_ref, best_depth = candidate, r, depth
        codes.write_gamma_natural(structure, len(dedup))
        for i, (gap, extra_count) in enumerate(dedup_gap_pairs(u, dedup)):
            if i == 0:
                codes.write_gamma_integer(structure, gap)
            else:
                codes.write_gamma_natural(structure, gap)
            codes.write_gamma_natural(structure, extra_count)
        structure.extend(best)
        window_distinct[u] = sorted({*(label for label, _ in dedup), *singles})
        ref_depth[u] = best_depth if best_ref else 0
        prev = None
        for c in contacts:
            if prev is None:
                codes.write_zeta_natural(timestamps, c.time - t_min, config.timestamp_zeta_k)
            else:
                codes.write_zeta_integer(timestamps, c.time - prev, config.timestamp_zeta_k)
            if graph.kind is GraphKind.INTERVAL:
                codes.write_zeta_natural(timestamps, c.duration, config.duration_zeta_k)
            prev = c.time
        evicted = u - config.window
        if evicted >= 0:
            window_distinct.pop(evicted, None)
            ref_depth.pop(evicted, None)
    return CompressedChronoGraph(
        kind=graph.kind,
        num_nodes=graph.num_nodes,
        num_contacts=graph.num_contacts,
        t_min=t_min,
        config=config,
        structure_bytes=structure.to_bytes(),
        structure_bits=len(structure),
        timestamp_bytes=timestamps.to_bytes(),
        timestamp_bits=len(timestamps),
        structure_offsets=array("Q", soffsets),
        timestamp_offsets=array("Q", toffsets),
        name=graph.name,
    )


# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------


@st.composite
def natural_runs(draw, max_len=5000):
    """Runs of 0..max_len naturals mixing tiny, mid-size and 70-bit values."""
    n = draw(st.integers(0, max_len))
    rnd = draw(st.randoms(use_true_random=False))
    widths = draw(st.sampled_from([(1, 4), (1, 16), (1, 70), (60, 70)]))
    return [rnd.getrandbits(rnd.randint(*widths)) for _ in range(n)]


@st.composite
def prefixed_writers(draw):
    """A writer already holding 0..7 bits, and a twin with the same bits."""
    offset = draw(st.integers(0, 7))
    value = draw(st.integers(0, (1 << offset) - 1))
    twins = []
    for _ in range(2):
        w = BitWriter()
        w.write_bits(value, offset)
        twins.append(w)
    return twins


def _tie_contacts(t0):
    # Naturals [2, 3] tie k = 2 and 3; [128, 255] tie k = 3, 4 and 5.
    return [(0, 1, t0 + 2), (0, 2, t0), (1, 2, t0 + 128), (1, 3, t0)]


@st.composite
def temporal_graphs(draw):
    """Small graphs of every kind: negative gaps (labels out of time order),
    exact zeta_k ties and timestamps at and above 2**64."""
    kind = draw(st.sampled_from(GraphKind))
    n = draw(st.integers(2, 12))
    base = draw(st.sampled_from([0, 10**6, 2**64, 2**64 + 12345, 2**70]))
    if draw(st.booleans()):
        triples = _tie_contacts(base)
        n = max(n, 4)
    else:
        span = draw(st.sampled_from([4, 300, 10**6, 2**40]))
        triples = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.integers(base, base + span),
                ),
                min_size=1,
                max_size=60,
            )
        )
    if kind is GraphKind.INTERVAL:
        durations = draw(
            st.lists(
                st.one_of(st.integers(0, 300), st.sampled_from([127, 255, 2**64])),
                min_size=len(triples),
                max_size=len(triples),
            )
        )
        contacts = [t + (d,) for t, d in zip(triples, durations)]
    else:
        contacts = triples
    return graph_from_contacts(kind, contacts, num_nodes=n)


@st.composite
def sparse_graphs(draw):
    """Up to 2,000 node ids, 0 to 30 of them with contacts.

    Sources come in clusters whose neighbor labels overlap, so nearby
    sources are each other's reference candidates, and runs of empty
    records fall before, between and after the clusters.  Every draw
    picks one of three shapes: clustered sources, no contacts at all
    (an all-empty graph), or contacts on the last node id only.
    """
    kind = draw(st.sampled_from(GraphKind))
    n = draw(st.integers(1, 2000))
    shape = draw(st.sampled_from(["clustered", "all-empty", "last-only"]))
    if shape == "all-empty":
        sources = []
    elif shape == "last-only":
        sources = [n - 1]
    else:
        picked = set()
        for center in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
            for offset in draw(st.lists(st.integers(0, 12), min_size=1, max_size=8)):
                picked.add(min(n - 1, center + offset))
        sources = sorted(picked)[:30]
    contacts = []
    for u in sources:
        lo, hi = max(0, u - 24), min(n - 1, u + 24)
        for _ in range(draw(st.integers(1, 8))):
            v = draw(st.integers(lo, hi))
            t = draw(st.integers(0, 500))
            contacts.append((u, v, t, draw(st.integers(0, 60))))
    if kind is not GraphKind.INTERVAL:
        contacts = [c[:3] for c in contacts]
    return graph_from_contacts(kind, contacts, num_nodes=n)


# --------------------------------------------------------------------------
# Bulk writers
# --------------------------------------------------------------------------


class TestBulkWriters:
    @given(prefixed_writers(), natural_runs())
    def test_gamma_matches_scalar_loop(self, writers, values):
        bulk, scalar = writers
        bits = codes.write_many_gamma_natural(bulk, values)
        assert bits == scalar_gamma(scalar, values)
        assert len(bulk) == len(scalar)
        assert bulk.to_bytes() == scalar.to_bytes()
        assert codes.size_many_gamma_natural(values) == bits

    @given(prefixed_writers(), natural_runs(), st.integers(1, 16))
    def test_zeta_matches_scalar_loop(self, writers, values, k):
        bulk, scalar = writers
        bits = codes.write_many_zeta_natural(bulk, values, k)
        assert bits == scalar_zeta(scalar, values, k)
        assert len(bulk) == len(scalar)
        assert bulk.to_bytes() == scalar.to_bytes()
        assert codes.size_many_zeta_natural(values, k) == bits

    @given(
        prefixed_writers(),
        natural_runs(max_len=2500),
        st.integers(1, 16),
        st.integers(1, 16),
        st.randoms(use_true_random=False),
    )
    def test_zeta_pairs_match_scalar_loop(self, writers, values_a, k_a, k_b, rnd):
        values_b = [rnd.getrandbits(rnd.randint(1, 70)) for _ in values_a]
        bulk, scalar = writers
        bits = codes.write_many_zeta_natural_pairs(bulk, values_a, values_b, k_a, k_b)
        assert bits == scalar_zeta_pairs(scalar, values_a, values_b, k_a, k_b)
        assert len(bulk) == len(scalar)
        assert bulk.to_bytes() == scalar.to_bytes()

    @given(prefixed_writers(), natural_runs(max_len=300), st.integers(1, 16))
    def test_writes_continue_the_stream(self, writers, values, k):
        # Bulk and scalar writes interleave on one writer: the bulk writer
        # leaves the accumulator exactly where write_bits would.
        bulk, scalar = writers
        for w, write in ((bulk, codes.write_many_zeta_natural), (scalar, scalar_zeta)):
            write(w, values, k)
            w.write_bits(0b101, 3)
            write(w, values[::-1], k)
        assert bulk.to_bytes() == scalar.to_bytes()
        assert len(bulk) == len(scalar)

    def test_empty_runs_write_nothing(self):
        w = BitWriter()
        w.write_bits(0b11, 2)
        assert codes.write_many_gamma_natural(w, []) == 0
        assert codes.write_many_zeta_natural(w, [], 5) == 0
        assert codes.write_many_zeta_natural_pairs(w, [], [], 2, 3) == 0
        assert len(w) == 2 and w.to_bytes() == b"\xc0"

    @pytest.mark.parametrize(
        "write",
        [
            lambda w, v: codes.write_many_gamma_natural(w, v),
            lambda w, v: codes.write_many_zeta_natural(w, v, 3),
            lambda w, v: codes.write_many_zeta_natural_pairs(w, v, [0] * len(v), 3, 2),
            lambda w, v: codes.write_many_zeta_natural_pairs(w, [0] * len(v), v, 3, 2),
            lambda w, v: codes.write_gamma_natural(w, v[-1]),
            lambda w, v: codes.write_zeta_natural(w, v[-1], 3),
        ],
    )
    @pytest.mark.parametrize("negative", [-1, -2, -(2**70)])
    def test_negative_natural_raises(self, write, negative):
        with pytest.raises(CodecDomainError):
            write(BitWriter(), [0, 5, negative])

    @pytest.mark.parametrize(
        "size", [codes.size_many_gamma_natural, lambda v: codes.size_many_zeta_natural(v, 4)]
    )
    def test_negative_natural_cannot_be_sized(self, size):
        with pytest.raises(CodecDomainError):
            size([3, -1])

    def test_misaligned_pairs_raise(self):
        with pytest.raises(CodecDomainError):
            codes.write_many_zeta_natural_pairs(BitWriter(), [1, 2], [1], 2, 2)

    def test_invalid_k_raises(self):
        with pytest.raises(CodecDomainError):
            codes.write_many_zeta_natural(BitWriter(), [1], 0)

    def test_long_run_is_linear(self):
        # Chunked flushing keeps a code's cost independent of the run
        # length; one accumulator for the whole run takes ~100x longer here.
        rnd = random.Random(7)
        values = [rnd.getrandbits(rnd.randint(1, 20)) for _ in range(200_000)]
        w = BitWriter()
        start = time.perf_counter()
        bits = codes.write_many_zeta_natural(w, values, 3)
        assert time.perf_counter() - start < 2.0
        assert bits == codes.size_many_zeta_natural(values, 3) == len(w)


class TestWriteBits:
    @given(
        st.integers(0, 7),
        st.lists(st.integers(0, 200).flatmap(
            lambda width: st.tuples(st.integers(0, (1 << width) - 1), st.just(width))
        ), max_size=40),
    )
    def test_wide_values_match_bit_by_bit(self, offset, items):
        wide, narrow = BitWriter(), BitWriter()
        for w in (wide, narrow):
            for _ in range(offset):
                w.write_bit(1)
        for value, width in items:
            assert wide.write_bits(value, width) == width
            for i in range(width - 1, -1, -1):
                narrow.write_bit((value >> i) & 1)
            assert len(wide) == len(narrow)
        assert wide.to_bytes() == narrow.to_bytes()


# --------------------------------------------------------------------------
# Closed-form sizing
# --------------------------------------------------------------------------


class TestClosedForm:
    @pytest.mark.parametrize("k", range(1, 17))
    def test_length_from_bits_matches_zeta_length(self, k):
        rnd = random.Random(k)
        for b in range(1, 131):
            low, high = 1 << (b - 1), (1 << b) - 1
            for x in {low, high, rnd.randint(low, high)}:
                assert codes.zeta_length_from_bits(b, k) == codes.zeta_length(x, k)

    @pytest.mark.parametrize("b, k", [(0, 3), (-1, 3), (4, 0)])
    def test_domain(self, b, k):
        with pytest.raises(CodecDomainError):
            codes.zeta_length_from_bits(b, k)


class TestZetaSelection:
    @pytest.mark.parametrize(
        "name",
        ["flickr", "wiki-edit", "wiki-links-sub", "yahoo-sub", "comm-net",
         "powerlaw", "yahoo-full"],
    )
    def test_corpus_matches_per_contact_sweep(self, name):
        graph = registry.load(name)
        assert select_timestamp_zeta_k(graph) == reference_select_zeta_k(graph)

    @given(temporal_graphs())
    def test_graphs_match_per_contact_sweep(self, graph):
        assert select_timestamp_zeta_k(graph) == reference_select_zeta_k(graph)

    @pytest.mark.parametrize("t0", [0, 2**64])
    def test_exact_ties_pick_the_smaller_k(self, t0):
        # Node 0 codes naturals [2, 3] (k = 2 and 3 both need 8 bits), node
        # 1 codes [128, 255] (k = 3, 4 and 5 all need 24 bits).
        one = graph_from_contacts(GraphKind.POINT, _tie_contacts(t0)[:2], num_nodes=3)
        assert select_timestamp_zeta_k(one) == reference_select_zeta_k(one) == (2, 2)
        two = graph_from_contacts(
            GraphKind.POINT,
            [(0, 1, t0 + 128), (0, 2, t0)],
            num_nodes=3,
        )
        assert select_timestamp_zeta_k(two) == reference_select_zeta_k(two) == (3, 2)
        # A lone duration of 255 codes 256: k = 3 and 5 both need 12 bits.
        interval = graph_from_contacts(
            GraphKind.INTERVAL, [(0, 1, t0, 255)], num_nodes=2
        )
        assert select_timestamp_zeta_k(interval) == (2, 3)
        assert reference_select_zeta_k(interval) == (2, 3)


class TestCandidateSizing:
    @given(
        st.integers(0, 300),
        st.lists(st.integers(0, 400), max_size=80, unique=True),
        st.lists(st.integers(0, 400), min_size=1, max_size=80, unique=True),
        st.integers(1, 7),
        st.integers(1, 16),
        st.integers(2, 6),
        st.lists(st.tuples(st.integers(0, 400), st.integers(2, 9)), max_size=6),
    )
    def test_size_and_record_match_materialised_candidate(
        self, node, singles, reference_list, r, k, min_length, dups
    ):
        singles.sort()
        reference_list.sort()
        dedup = sorted(dict(dups).items())
        config = ChronoGraphConfig(structure_zeta_k=k, min_interval_length=min_length)
        for reference in (None, (r, reference_list)):
            candidate = singles_codes(node, singles, reference, config)
            expected = reference_singles(node, singles, reference, config)
            assert singles_bits(candidate, k) == len(expected)
            bulk, scalar = BitWriter(), BitWriter()
            write_structure_record(bulk, node, dedup, candidate, k)
            codes.write_gamma_natural(scalar, len(dedup))
            for i, (gap, extra) in enumerate(dedup_gap_pairs(node, dedup)):
                if i == 0:
                    codes.write_gamma_integer(scalar, gap)
                else:
                    codes.write_gamma_natural(scalar, gap)
                codes.write_gamma_natural(scalar, extra)
            scalar.extend(expected)
            assert bulk.to_bytes() == scalar.to_bytes()
            assert len(bulk) == len(scalar)


    @given(
        st.integers(0, 60),
        st.sets(st.integers(0, 30), max_size=30),
        st.sets(st.integers(0, 30), min_size=1, max_size=30),
        st.integers(0, 30),
        st.integers(1, 7),
        st.integers(1, 16),
        st.integers(2, 6),
        st.data(),
    )
    @example(5, {1, 2, 3}, {1, 2, 3, 9}, 0, 1, 3, 4, None)  # empty rest
    @example(5, {1, 2, 3}, {7, 8, 9}, 0, 1, 3, 4, None)  # no overlap
    @example(40, {0, 1, 2, 3, 4, 10, 11, 12, 13, 50}, {11, 50}, 0, 2, 3, 4, None)
    @example(3, {0, 1, 2, 4, 5, 6, 8, 9}, {20}, 0, 1, 3, 2, None)  # gaps of 0
    def test_one_pass_size_matches_codes_and_scalar_writer(
        self, node, singles, reference, shared, r, k, min_length, data
    ):
        # Labels come from a small range, so the reference overlaps the
        # singles, copy runs alternate and the rest holds intervals.
        singles = sorted(singles)
        reference_list = sorted(reference | set(singles[:shared]))
        config = ChronoGraphConfig(structure_zeta_k=k, min_interval_length=min_length)
        for candidate in (None, (r, reference_list)):
            size = candidate_bits(node, singles, candidate, config)
            assert size == singles_bits(singles_codes(node, singles, candidate, config), k)
            assert size == len(reference_singles(node, singles, candidate, config))
            # A bounded sizing stops at the bound or returns the exact size.
            bound = data.draw(st.integers(0, size + 2)) if data else size
            bounded = candidate_bits(node, singles, candidate, config, bound)
            if size < bound:
                assert bounded == size
            else:
                assert bound <= bounded <= size


# --------------------------------------------------------------------------
# Whole-encoder equivalence
# --------------------------------------------------------------------------


CONFIGS = [
    ChronoGraphConfig(),
    ChronoGraphConfig(window=0),
    ChronoGraphConfig(window=3, max_ref_chain=None, min_interval_length=2),
    ChronoGraphConfig(max_ref_chain=0),
    ChronoGraphConfig(structure_zeta_k=1, timestamp_zeta_k=1, duration_zeta_k=1),
    ChronoGraphConfig(structure_zeta_k=16, timestamp_zeta_k=9, resolution=7),
]


def streams(cg):
    """Both bit streams, their offsets and the resolved config.

    The container header stores ``t_min`` as a signed 64-bit field, so
    graphs with timestamps past 2**63 are compared stream by stream.
    """
    return (
        bytes(cg._sbytes), cg._sbits, list(cg._soffsets),
        bytes(cg._tbytes), cg._tbits, list(cg._toffsets),
        cg.t_min, cg.config,
    )


class TestEncoderEquivalence:
    @given(temporal_graphs(), st.sampled_from(CONFIGS))
    def test_bytes_match_materialising_encoder(self, graph, config):
        assert streams(compress(graph, config)) == streams(
            reference_compress(graph, config)
        )

    @given(temporal_graphs(), st.sampled_from(CONFIGS))
    def test_records_core_reads_its_records_only(self, graph, config):
        # Seals and merges hand the core lists they keep using (a merge
        # passes the segments' cached records through): encoding must
        # leave them as they were, and give compress()'s bytes.
        prepared, resolved = _prepare(graph, config)
        records = [
            (u, list(m), list(t), None if d is None else list(d))
            for u, m, t, d in node_records(prepared)
        ]
        before = copy.deepcopy(records)
        encoded = encode_records(
            prepared.kind, prepared.num_nodes, prepared.t_min, records, resolved
        )
        assert records == before
        assert streams(encoded) == streams(compress(graph, config))

    @pytest.mark.parametrize("config", CONFIGS)
    @given(graph=sparse_graphs())
    @example(graph=graph_from_contacts(GraphKind.POINT, [], num_nodes=2000))
    @example(
        graph=graph_from_contacts(
            GraphKind.INTERVAL, [(1999, 3, 7, 2), (1999, 4, 7, 0)], num_nodes=2000
        )
    )
    def test_sparse_graphs_match_materialising_encoder(self, config, graph):
        # Runs of empty records are written in one piece; the bytes,
        # offsets and reference choices are those of a per-node encode.
        assert streams(compress(graph, config)) == streams(
            reference_compress(graph, config)
        )

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 50)),
            min_size=1,
            max_size=200,
        ),
        st.sampled_from(CONFIGS),
    )
    def test_dense_reference_candidates(self, triples, config):
        # Dense labels over few nodes: most nodes have several overlapping
        # reference candidates, intervals and duplicates.
        graph = graph_from_contacts(GraphKind.POINT, triples, num_nodes=31)
        assert dumps_compressed(compress(graph, config)) == dumps_compressed(
            reference_compress(graph, config)
        )
