"""The one-pass record decoders against a scalar reference.

``decode_node_structure`` and ``decode_node_timestamps`` decode a node's
record in one table-driven pass with the record's arithmetic folded in.
These tests hold them to a reference decode written only with the scalar
``read_gamma`` / ``read_zeta`` readers: the same values, the same final
bit position, and on a stream cut inside the record the same exception
type.  They also pin the checkpoint cadence inside a single record, which
a governed query relies on to observe its deadline mid-record.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import codes
from repro.bits.bitio import BitReader, BitWriter
from repro.bits.zigzag import to_integer
from repro.core import compress
from repro.core.config import ChronoGraphConfig
from repro.core.structure import (
    decode_node_structure,
    encode_node_structure,
    expand_copy_blocks,
)
from repro.core.timestamps import decode_node_timestamps, encode_node_timestamps
from repro.errors import LimitExceededError, QueryTimeout
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.runtime import QueryContext, activate

_SETTINGS = settings(max_examples=60, deadline=None)


# -- the scalar reference ------------------------------------------------------


def _gamma(reader):
    return codes.read_gamma(reader) - 1


def _zeta(reader, k):
    return codes.read_zeta(reader, k) - 1


def reference_structure(reader, node, resolve, config, limit=None):
    """Decode a structure record code by code, then expand each block."""
    budget = [limit]

    def charge(n):
        if budget[0] is not None:
            budget[0] -= n
            if budget[0] < 0:
                raise LimitExceededError(f"node {node}: past {limit} labels")

    dedup = []
    count = _gamma(reader)
    if count:
        charge(2 * count)
        raw = [_gamma(reader) for _ in range(2 * count)]
        for i in range(count):
            if i == 0:
                label = node + to_integer(raw[0])
            else:
                label = dedup[-1][0] + raw[2 * i] + 1
            charge(raw[2 * i + 1])
            dedup.append((label, raw[2 * i + 1] + 2))
    copied = []
    r = _gamma(reader)
    if r:
        run_count = _gamma(reader)
        reference = resolve(node - r)
        if run_count > len(reference) + 1:
            raise LimitExceededError(f"node {node}: {run_count} copy runs")
        raw = [_gamma(reader) for _ in range(run_count)]
        copied = expand_copy_blocks(reference, raw[:1] + [x + 1 for x in raw[1:]])
        charge(len(copied))
    intervals = []
    count = _gamma(reader)
    if count:
        min_length = config.min_interval_length
        charge(count * min_length)
        raw = [_gamma(reader) for _ in range(2 * count)]
        prev_end = None
        for i in range(count):
            if prev_end is None:
                left = node + to_integer(raw[0])
            else:
                left = prev_end + raw[2 * i] + 2
            length = raw[2 * i + 1] + min_length
            charge(length - min_length)
            intervals.extend(range(left, left + length))
            prev_end = left + length - 1
    count = _gamma(reader)
    charge(count)
    extras = []
    raw = [_zeta(reader, config.structure_zeta_k) for _ in range(count)]
    for i, x in enumerate(raw):
        extras.append(node + to_integer(x) if i == 0 else extras[-1] + x + 1)
    return dedup, sorted(copied + intervals + extras)


def reference_timestamps(reader, count, with_durations, t_min, k, dk=None):
    """Decode a timestamp record code by code."""
    dk = k if dk is None else dk
    times, durations = [], ([] if with_durations else None)
    for i in range(count):
        x = _zeta(reader, k)
        times.append(t_min + x if i == 0 else times[-1] + to_integer(x))
        if with_durations:
            durations.append(_zeta(reader, dk))
    return times, durations


def _outcome(decode, data, nbits, start):
    """(result, end position) of a decode, or the exception type it raised."""
    reader = BitReader(data, nbits)
    reader.seek(start)
    try:
        result = decode(reader)
    except Exception as exc:  # the type is what is compared
        return type(exc)
    return result, reader.position


def _assert_agree(new, ref, data, nbits, start, end):
    """Whole record, and the record cut at every sampled bit, agree."""
    whole = _outcome(new, data, nbits, start)
    assert whole == _outcome(ref, data, nbits, start)
    if not isinstance(whole, type):
        assert whole[1] == end
    rng = random.Random(end)
    cuts = {start, end - 1} | {rng.randrange(start, end) for _ in range(12)}
    for cut in sorted(c for c in cuts if start <= c < end):
        got = _outcome(new, data, cut, start)
        assert isinstance(got, type), (cut, got)
        assert got is _outcome(ref, data, cut, start), cut


# -- record strategies ----------------------------------------------------------

# Labels near the node (short gaps, runs that intervalise, shared labels
# that make references) and far from it (codes past the 16-bit window).
_labels = st.one_of(
    st.integers(0, 48),
    st.integers(0, 48).map(lambda x: x * 2),
    st.integers(1 << 16, 1 << 28),
)


@st.composite
def _multisets(draw):
    out = draw(st.lists(_labels, max_size=24))
    for _ in range(draw(st.integers(0, 2))):  # consecutive runs
        left = draw(st.integers(0, 1 << 20))
        out.extend(range(left, left + draw(st.integers(1, 9))))
    for label in draw(st.lists(st.sampled_from(out), max_size=4)) if out else []:
        out.extend([label] * draw(st.integers(1, 3)))  # duplicates
    return sorted(out)


def _timestamps(draw, count):
    """Timestamps with short gaps, long gaps and repeats, in record order."""
    t = draw(st.integers(0, 1 << 20))
    out = []
    for _ in range(count):
        t += draw(st.one_of(
            st.integers(-3, 3), st.integers(-(1 << 30), 1 << 30), st.just(0)
        ))
        out.append(t)
    return out


class TestStructureAgainstReference:
    @given(
        st.lists(_multisets(), min_size=1, max_size=10),
        st.integers(0, 127),
        st.sampled_from([1, 2, 3, 5]),
        st.data(),
    )
    @_SETTINGS
    def test_records_match_scalar_reference(self, multisets, lead, k, data):
        config = ChronoGraphConfig(structure_zeta_k=k)
        writer = BitWriter()
        # A misaligned start makes codes straddle the decoders' cached
        # words at every phase.
        writer.write_bits(0, lead)
        bounds, distinct, depth = [], {}, {}
        for u, multiset in enumerate(multisets):
            start = len(writer)
            encode_node_structure(writer, u, multiset, distinct, depth, config)
            bounds.append((start, len(writer)))
        stream, nbits = writer.to_bytes(), len(writer)
        for u, (start, end) in enumerate(bounds):
            limit = data.draw(st.one_of(
                st.none(), st.integers(0, len(multisets[u]) + 2)
            ))
            _assert_agree(
                lambda r: decode_node_structure(
                    r, u, distinct.__getitem__, config, limit
                ),
                lambda r: reference_structure(
                    r, u, distinct.__getitem__, config, limit
                ),
                stream, nbits, start, end,
            )


class TestTimestampsAgainstReference:
    @given(
        st.data(),
        st.integers(1, 40),
        st.booleans(),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 127),
    )
    @_SETTINGS
    def test_records_match_scalar_reference(self, data, count, interval, k, dk, lead):
        times = _timestamps(data.draw, count)
        # The first gap is taken from t_min: near it (a short code) or far
        # below it (a code past the window).
        t_min = min(times) - data.draw(st.one_of(
            st.integers(0, 3), st.integers(1 << 16, 1 << 40)
        ))
        durations = (
            data.draw(st.lists(
                st.one_of(st.integers(0, 9), st.integers(0, 1 << 30)),
                min_size=count, max_size=count,
            ))
            if interval else None
        )
        writer = BitWriter()
        writer.write_bits(0, lead)
        encode_node_timestamps(writer, times, durations, t_min, k, dk)
        stream, nbits = writer.to_bytes(), len(writer)
        _assert_agree(
            lambda r: decode_node_timestamps(r, count, interval, t_min, k, dk),
            lambda r: reference_timestamps(r, count, interval, t_min, k, dk),
            stream, nbits, lead, nbits,
        )
        assert _outcome(
            lambda r: decode_node_timestamps(r, count, interval, t_min, k, dk),
            stream, nbits, lead,
        )[0] == (times, durations)


class TestGraphRecordsAgainstReference:
    @pytest.mark.parametrize("kind", list(GraphKind))
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 11),
                st.integers(0, 11),
                st.one_of(st.integers(0, 50), st.integers(0, 1 << 24)),
                st.integers(0, 20),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_every_record_matches_scalar_reference(self, kind, rows):
        if kind is not GraphKind.INTERVAL:
            rows = [(u, v, t, 0) for u, v, t, _ in rows]
        graph = compress(graph_from_contacts(kind, rows, num_nodes=12))
        config = graph.config
        with_durations = kind is GraphKind.INTERVAL
        sbounds = list(graph._soffsets) + [graph._sbits]
        tbounds = list(graph._toffsets) + [graph._tbits]
        for u in range(graph.num_nodes):
            _assert_agree(
                lambda r: decode_node_structure(
                    r, u, graph._resolve_distinct, config, graph.num_contacts
                ),
                lambda r: reference_structure(
                    r, u, graph._resolve_distinct, config, graph.num_contacts
                ),
                graph._sbytes, graph._sbits, sbounds[u], sbounds[u + 1],
            )
            count = len(graph.decode_multiset(u))
            if not count:
                continue
            args = (
                count, with_durations, graph.t_min,
                config.timestamp_zeta_k, config.duration_zeta_k,
            )
            _assert_agree(
                lambda r: decode_node_timestamps(r, *args),
                lambda r: reference_timestamps(r, *args),
                graph._tbytes, graph._tbits, tbounds[u], tbounds[u + 1],
            )


# -- checkpoint cadence inside one record -------------------------------------

#: Codes between checkpoints; every record below has many times as many.
STRIDE = 8


class _CountingClock:
    """A clock that counts its reads and jumps past any deadline after
    ``expire_after`` of them (the first read is the deadline's start)."""

    def __init__(self, expire_after=None):
        self.reads = 0
        self.expire_after = expire_after

    def __call__(self):
        self.reads += 1
        if self.expire_after is not None and self.reads > self.expire_after:
            return 1e9
        return 0.0


def _point_record():
    times = [1000 + 7 * i - (i % 3) for i in range(100)]
    w = BitWriter()
    encode_node_timestamps(w, times, None, 0, 3)
    reader = BitReader(w.to_bytes(), len(w))
    return 100, lambda: decode_node_timestamps(reader, 100, False, 0, 3)


def _interval_record():
    times = [50 + i // 2 for i in range(100)]
    durations = [i % 11 for i in range(100)]
    w = BitWriter()
    encode_node_timestamps(w, times, durations, 0, 2, 3)
    reader = BitReader(w.to_bytes(), len(w))
    return 200, lambda: decode_node_timestamps(reader, 100, True, 0, 2, 3)


def _structure_record():
    # 100 labels two apart: no duplicates, no runs to intervalise and no
    # reference, so all of them are extra-node gaps in one block.
    multiset = [3 + 2 * i for i in range(100)]
    config = ChronoGraphConfig()
    w = BitWriter()
    encode_node_structure(w, 0, multiset, {}, {}, config)
    reader = BitReader(w.to_bytes(), len(w))

    def decode():
        dedup, singles = decode_node_structure(reader, 0, {}.__getitem__, config)
        assert (dedup, singles) == ([], multiset)
        return dedup, singles

    return 100, decode


_RECORDS = {
    "point": _point_record,
    "interval": _interval_record,
    "structure": _structure_record,
}


class TestCheckpointCadence:
    @pytest.mark.parametrize("record", sorted(_RECORDS))
    def test_record_polls_once_per_stride(self, record):
        codes_in_record, decode = _RECORDS[record]()
        clock = _CountingClock()
        ctx = QueryContext(timeout=10.0, clock=clock, checkpoint_codes=STRIDE)
        start_reads = clock.reads
        with activate(ctx):
            decode()
        polls = clock.reads - start_reads
        assert polls >= math.ceil(codes_in_record / STRIDE), polls

    @pytest.mark.parametrize("record", sorted(_RECORDS))
    def test_deadline_interrupts_the_record(self, record):
        _codes, decode = _RECORDS[record]()
        # Read 1 starts the deadline, read 2 is the first poll; every
        # later poll sees the deadline long past.
        clock = _CountingClock(expire_after=2)
        ctx = QueryContext(timeout=10.0, clock=clock, checkpoint_codes=STRIDE)
        with activate(ctx):
            with pytest.raises(QueryTimeout):
                decode()
        assert clock.reads > 2
