"""The offset indexes: flat arrays, Elias-Fano sizing and the VByte sections.

A compressed graph holds each stream's offset index as an ``array('Q')``
and charges it at the Elias-Fano payload the paper reports
(:func:`repro.bits.eliasfano.payload_bits`).  The container stores the
offsets as VByte deltas; these tests pin the closed-form size against
:class:`EliasFano`, the byte loops against the ``write_vbyte`` codec, and
every loader's reaction to a hostile offset section.
"""

import pickle
import random
import struct
import zlib
from array import array
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bits import codes
from repro.bits.bitio import BitWriter
from repro.bits.eliasfano import EliasFano, payload_bits
from repro.core import compress
from repro.core.compressed import HEADER_BITS, CompressedChronoGraph
from repro.core.config import ChronoGraphConfig
from repro.core.serialize import (
    _OVERLONG,
    _offsets_payload,
    _read_offsets,
    dumps_compressed,
    load_compressed,
    load_compressed_bytes,
    salvage_bytes,
)
from repro.core.validate import salvage_scan
from repro.errors import CorruptStreamError, EndOfStreamError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind

ALL_KINDS = list(GraphKind)


def _graph(kind, seed=3, n=15, m=80):
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(2000),
            rng.randrange(1, 40) if kind is GraphKind.INTERVAL else 0,
        )
        for _ in range(m)
    ]
    return graph_from_contacts(kind, rows, num_nodes=n)


def _vbyte_reference(deltas):
    """The deltas as ``write_vbyte`` codes them, one call per delta."""
    writer = BitWriter()
    for delta in deltas:
        codes.write_vbyte(writer, delta)
    return writer.to_bytes()


def _deltas(offsets):
    return [b - a for a, b in zip([0, *offsets], offsets)]


# --------------------------------------------------------------------------
# Closed-form Elias-Fano sizing
# --------------------------------------------------------------------------

class TestPayloadBits:
    @given(
        st.lists(st.integers(0, 10**12), max_size=200),
        st.integers(0, 10**13),
    )
    def test_matches_elias_fano(self, values, slack):
        values.sort()
        universe = (values[-1] if values else 0) + 1 + slack
        ef = EliasFano(values, universe=universe)
        last = values[-1] if values else 0
        assert payload_bits(len(values), last, universe) == ef.size_in_bits()

    @given(st.integers(0, 50), st.integers(1, 400))
    def test_duplicates_and_universe_below_count(self, value, n):
        # universe <= n gives a zero low-bit count.
        values = [value] * n
        universe = value + 1
        ef = EliasFano(values, universe=universe)
        assert payload_bits(n, value, universe) == ef.size_in_bits()
        if universe < n:
            assert ef._low_bits == 0
            assert payload_bits(n, value, universe) == value + n

    def test_empty_and_single(self):
        assert payload_bits(0, 0, 0) == 0 == EliasFano([]).size_in_bits()
        for value in (0, 1, 2**40):
            for universe in (value + 1, 2 * value + 7):
                assert (
                    payload_bits(1, value, universe)
                    == EliasFano([value], universe=universe).size_in_bits()
                )

    def test_universe_is_stream_length_plus_one(self):
        # Around nbits + 1 == n * 2**k, a universe of nbits instead would
        # store one low bit fewer per offset.
        for n in (1, 2, 3, 7):
            for k in range(6):
                for nbits in (n * 2**k - 2, n * 2**k - 1, n * 2**k):
                    if nbits < 0:
                        continue
                    offsets = [i * nbits // n for i in range(n)]
                    cg = CompressedChronoGraph(
                        kind=GraphKind.POINT,
                        num_nodes=n,
                        num_contacts=0,
                        t_min=0,
                        config=ChronoGraphConfig(),
                        structure_bytes=b"",
                        structure_bits=nbits,
                        timestamp_bytes=b"",
                        timestamp_bits=nbits,
                        structure_offsets=array("Q", offsets),
                        timestamp_offsets=array("Q", offsets),
                    )
                    ef = EliasFano(offsets, universe=nbits + 1)
                    assert cg.structure_size_bits == nbits + ef.size_in_bits()
                    assert cg.timestamp_size_bits == nbits + ef.size_in_bits()

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_graph_charges_the_elias_fano_payload(self, kind):
        cg = compress(_graph(kind))
        assert isinstance(cg._soffsets, array)
        assert isinstance(cg._toffsets, array)
        structure = EliasFano(list(cg._soffsets), universe=cg._sbits + 1)
        timestamps = EliasFano(list(cg._toffsets), universe=cg._tbits + 1)
        assert cg.structure_size_bits == cg._sbits + structure.size_in_bits()
        assert cg.timestamp_size_bits == cg._tbits + timestamps.size_in_bits()
        back = load_compressed_bytes(dumps_compressed(cg))
        assert isinstance(back._soffsets, array)
        assert back.size_in_bits == cg.size_in_bits


# --------------------------------------------------------------------------
# VByte offset sections
# --------------------------------------------------------------------------

#: Deltas on each side of a VByte group boundary: 2^7k - 1 and 2^7k.
_BOUNDARY_DELTAS = [
    d for k in range(1, 9) for d in (2 ** (7 * k) - 1, 2 ** (7 * k))
]

_delta_lists = st.lists(
    st.one_of(st.integers(0, 300), st.sampled_from(_BOUNDARY_DELTAS)),
    max_size=60,
)


class TestOffsetSections:
    @given(_delta_lists)
    def test_payload_matches_write_vbyte(self, deltas):
        offsets = array("Q", accumulate(deltas))
        payload = _offsets_payload(offsets)
        assert payload == struct.pack("<Q", len(deltas)) + _vbyte_reference(
            deltas
        )

    @given(_delta_lists)
    def test_decoding_inverts_the_payload(self, deltas):
        offsets = list(accumulate(deltas))
        body = memoryview(_offsets_payload(array("Q", offsets)))[8:]
        assert _read_offsets(body, len(offsets)) == offsets
        # Through the loader, as a container's structure offsets: offsets
        # past the small stream are rejected naming the decoded last one.
        n = len(offsets)
        nbits = max(4 * n, 8)
        cg = CompressedChronoGraph(
            kind=GraphKind.POINT,
            num_nodes=n,
            num_contacts=0,
            t_min=0,
            config=ChronoGraphConfig(timestamp_zeta_k=3),
            structure_bytes=bytes((nbits + 7) // 8),
            structure_bits=nbits,
            timestamp_bytes=b"",
            timestamp_bits=0,
            structure_offsets=array("Q", [0] * n),
            timestamp_offsets=array("Q", [0] * n),
        )
        blob = _replace_section(
            dumps_compressed(cg), 3, _offsets_payload(array("Q", offsets))
        )
        if not offsets or offsets[-1] <= nbits:
            assert list(load_compressed_bytes(blob)._soffsets) == offsets
        else:
            with pytest.raises(
                CorruptStreamError, match=f"offset {offsets[-1]} beyond "
            ):
                load_compressed_bytes(blob)

    @given(_delta_lists, st.integers(0, 10**6))
    def test_cut_sections_decode_a_prefix(self, deltas, cut_seed):
        offsets = list(accumulate(deltas))
        body = _vbyte_reference(deltas)
        cut = cut_seed % (len(body) + 1)
        got = _read_offsets(body[:cut], len(offsets))
        assert got == offsets[: len(got)]
        if cut < len(body):
            assert len(got) < len(offsets)

    def test_bytes_past_the_count_are_never_read(self):
        body = _vbyte_reference([5, 200, 7, 9])
        assert _read_offsets(body, 2) == [5, 205]

        def feed():
            yield from _vbyte_reference([5, 200])
            raise AssertionError("read past the last declared offset")

        assert _read_offsets(feed(), 2) == [5, 205]
        assert _read_offsets(feed(), 0) == []

    def test_an_overlong_code_stops_at_its_tenth_byte(self):
        # A delta below 2**64 takes at most ten bytes, so a tenth
        # continuation byte ends the read, whatever the payload.
        longest = _vbyte_reference([2**64 - 1])
        assert len(longest) == 10
        assert _read_offsets(longest + b"\x05", 2) == [2**64 - 1, 2**64 + 4]
        for filler in (0xFF, 0x80):

            def feed():
                yield from _vbyte_reference([5])
                yield from [filler] * 10
                raise AssertionError("pulled an 11th byte of one code")

            assert _read_offsets(feed(), 3) == [5, _OVERLONG]


# --------------------------------------------------------------------------
# Hostile offset sections through every loader
# --------------------------------------------------------------------------

_OFFSET_TAGS = {3: "structure offsets", 4: "timestamp offsets"}


def _replace_section(blob, tag, payload):
    """``blob`` with section ``tag``'s payload replaced and its CRC re-sealed."""
    (header_len,) = struct.unpack_from("<I", blob, 6)
    pos = 10 + header_len + 4
    out = bytearray(blob[:pos])
    while pos < len(blob):
        section_tag, length = struct.unpack_from("<BQ", blob, pos)
        body = blob[pos + 9 : pos + 9 + length]
        if section_tag == tag:
            body = payload
        out += struct.pack("<BQ", section_tag, len(body)) + body
        out += struct.pack("<I", zlib.crc32(body))
        pos += 9 + length + 4
    return bytes(out)


def _hostile(cg, tag, make_body):
    offsets = list(cg._soffsets if tag == 3 else cg._toffsets)
    nbits = cg._sbits if tag == 3 else cg._tbits
    body = make_body(_deltas(offsets), nbits)
    payload = struct.pack("<Q", len(offsets)) + body
    return _replace_section(dumps_compressed(cg), tag, payload)


def _truncated(deltas, nbits):
    # The final code keeps its continuation bit and never ends.
    return _vbyte_reference(deltas[:-1]) + b"\x81"


def _beyond(deltas, nbits):
    return _vbyte_reference(deltas[:-1] + [nbits + 1])


def _past_u64(deltas, nbits):
    return _vbyte_reference(deltas[:-1] + [2**64])


def _overlong(deltas, nbits):
    # The final code runs 100k bytes; unbounded, its decode is quadratic.
    return _vbyte_reference(deltas[:-1]) + b"\xff" * 100_000 + b"\x01"


def _overlong_cut(deltas, nbits):
    return _vbyte_reference(deltas[:-1]) + b"\xff" * 100_000


def _load_heap(blob, tmp_path):
    path = tmp_path / "g.chrono"
    path.write_bytes(blob)
    return load_compressed(path)


def _load_mmap(blob, tmp_path):
    path = tmp_path / "g.chrono"
    path.write_bytes(blob)
    return load_compressed(path, mmap=True)


def _load_bytes(blob, tmp_path):
    return load_compressed_bytes(blob)


_LOADERS = [_load_heap, _load_mmap, _load_bytes]


class TestHostileOffsets:
    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tag", sorted(_OFFSET_TAGS))
    def test_truncated_run_ends_the_stream(self, loader, tag, tmp_path):
        cg = compress(_graph(GraphKind.POINT))
        with pytest.raises(EndOfStreamError):
            loader(_hostile(cg, tag, _truncated), tmp_path)
        # A run too long for any valid code is corrupt, not truncated,
        # even when the section end cuts it off.
        with pytest.raises(CorruptStreamError, match="beyond") as info:
            loader(_hostile(cg, tag, _overlong_cut), tmp_path)
        assert not isinstance(info.value, EndOfStreamError)

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("tag", sorted(_OFFSET_TAGS))
    @pytest.mark.parametrize(
        "make_body", [_beyond, _past_u64, _overlong], ids=lambda f: f.__name__
    )
    def test_offset_beyond_stream_is_corrupt(
        self, loader, tag, make_body, tmp_path
    ):
        blob = _hostile(compress(_graph(GraphKind.INTERVAL)), tag, make_body)
        # CorruptStreamError, not OverflowError from the unsigned array.
        with pytest.raises(CorruptStreamError, match="beyond"):
            loader(blob, tmp_path)

    @pytest.mark.parametrize("tag", sorted(_OFFSET_TAGS))
    @pytest.mark.parametrize(
        "make_body, error",
        [
            (_truncated, "delta stream ended early"),
            (_beyond, "beyond"),
            (_past_u64, "beyond"),
            (_overlong, "beyond"),
            (_overlong_cut, "beyond"),
        ],
        ids=["truncated", "beyond", "past_u64", "overlong", "overlong_cut"],
    )
    def test_salvage_keeps_the_prefix(self, tag, make_body, error, tmp_path):
        cg = compress(_graph(GraphKind.POINT))
        blob = _hostile(cg, tag, make_body)
        path = tmp_path / "g.chrono"
        path.write_bytes(blob)
        for report in (salvage_bytes(blob), load_compressed(path, salvage=True)):
            what = _OFFSET_TAGS[tag]
            assert any(e.startswith(f"{what}: ") and error in e
                       for e in report.errors), report.errors
            assert report.nodes_declared == cg.num_nodes
            assert report.nodes_recovered == cg.num_nodes - 1
            prefix = report.graph
            assert isinstance(prefix._soffsets, array)
            for u in range(prefix.num_nodes):
                assert prefix.contacts_of(u) == cg.contacts_of(u)


class TestNegativeReference:
    def _corrupt_graph(self):
        # Node 0's record claims a reference gap of 2, a target before
        # node 0; nodes 1 and 2 are empty records.
        writer = BitWriter()
        for value in (0, 2, 0, 0, 0):  # dedup, gap, runs, intervals, extras
            codes.write_gamma_natural(writer, value)
        starts = [0]
        for _ in range(2):
            starts.append(len(writer))
            for _ in range(4):
                codes.write_gamma_natural(writer, 0)
        return CompressedChronoGraph(
            kind=GraphKind.POINT,
            num_nodes=3,
            num_contacts=0,
            t_min=0,
            config=ChronoGraphConfig(timestamp_zeta_k=3),
            structure_bytes=writer.to_bytes(),
            structure_bits=len(writer),
            timestamp_bytes=b"",
            timestamp_bits=0,
            structure_offsets=array("Q", starts),
            timestamp_offsets=array("Q", [0, 0, 0]),
        )

    def test_reference_before_node_zero_is_corrupt(self):
        cg = self._corrupt_graph()
        assert cg.neighbors(1, 0, 10) == []
        with pytest.raises(CorruptStreamError):
            cg.neighbors(0, 0, 10)
        with pytest.raises(CorruptStreamError):
            self._corrupt_graph().snapshot(0, 10)
        with pytest.raises(CorruptStreamError):
            self._corrupt_graph().to_static_graph()
        report = salvage_scan(self._corrupt_graph())
        assert report.nodes_recovered == 0


# --------------------------------------------------------------------------
# Pickles written while the offsets were EliasFano objects
# --------------------------------------------------------------------------

class TestOldPickles:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_elias_fano_offsets_load_as_arrays(self, kind):
        graph = _graph(kind, n=40, m=300)
        cg = compress(graph)
        # A graph as pickled while its offset indexes were EliasFano objects.
        elder = compress(graph)
        soffsets = EliasFano(list(cg._soffsets), universe=cg._sbits + 1)
        toffsets = EliasFano(list(cg._toffsets), universe=cg._tbits + 1)
        elder._soffsets = soffsets
        elder._toffsets = toffsets
        back = pickle.loads(pickle.dumps(elder))
        assert type(back) is CompressedChronoGraph
        assert isinstance(back._soffsets, array)
        assert isinstance(back._toffsets, array)
        # The size an old graph charged: stream bits plus EF payloads.
        assert back.size_in_bits == cg.size_in_bits == (
            cg._sbits + soffsets.size_in_bits()
            + cg._tbits + toffsets.size_in_bits()
            + HEADER_BITS
        )
        assert back.bits_per_contact == cg.bits_per_contact
        for u in range(cg.num_nodes):
            assert back.neighbors(u, 0, 2000) == cg.neighbors(u, 0, 2000)
            assert back.contacts_of(u) == cg.contacts_of(u)
        assert list(back.iter_contacts()) == list(cg.iter_contacts())
        assert dumps_compressed(back) == dumps_compressed(cg)
