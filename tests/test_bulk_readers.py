"""The bulk readers decode exactly what a loop of scalar readers decodes.

Every ``read_many_*`` run goes through the 16-bit table loop of
:mod:`repro.bits.codes`, whose ``table_step`` refills the word and decodes
codes longer than the table window.  These tests hold the bulk readers to
the scalar readers as the reference: the same values and the same final
bit position on every stream, and the same exception on truncated ones.
"""

import os
import pathlib
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bits import codes
from repro.bits.bitio import BitReader, BitWriter
from repro.core.timestamps import decode_node_timestamps, encode_node_timestamps
from repro.errors import CodecDomainError, EndOfStreamError

_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


def _encode(write, values):
    w = BitWriter()
    for v in values:
        write(w, v)
    return w.to_bytes(), w.bit_length


def _families():
    """name -> (writer, bulk reader, scalar reader, value strategy)."""
    return {
        "gamma_natural": (
            codes.write_gamma_natural,
            lambda r, n: codes.read_many_gamma_natural(r, n),
            codes.read_gamma_natural,
            st.integers(0, 1 << 20),
        ),
        "gamma_natural_long": (
            # Codes up to 71 bits: unary prefixes past the 16-bit window
            # and past a 64-bit word.
            codes.write_gamma_natural,
            lambda r, n: codes.read_many_gamma_natural(r, n),
            codes.read_gamma_natural,
            st.integers(0, 1 << 35),
        ),
        "zeta2_natural": (
            lambda w, v: codes.write_zeta_natural(w, v, 2),
            lambda r, n: codes.read_many_zeta_natural(r, n, 2),
            lambda r: codes.read_zeta_natural(r, 2),
            st.integers(0, 1 << 18),
        ),
        "zeta4_natural": (
            lambda w, v: codes.write_zeta_natural(w, v, 4),
            lambda r, n: codes.read_many_zeta_natural(r, n, 4),
            lambda r: codes.read_zeta_natural(r, 4),
            st.integers(0, 1 << 22),
        ),
    }


def _assert_matches_scalar(data, nbits, values, read_many, read_one):
    """The bulk reader and a scalar loop agree in values and end position."""
    reader = BitReader(data, nbits)
    bulk = (read_many(reader, len(values)), reader.position)
    reader = BitReader(data, nbits)
    scalar = ([read_one(reader) for _ in values], reader.position)
    assert bulk == scalar
    assert bulk == (values, nbits)


class TestBulkMatchesScalar:
    @pytest.mark.parametrize("family", sorted(_families()))
    @given(data=st.data())
    @_PROPERTY_SETTINGS
    def test_property_matches_scalar_loop(self, family, data):
        write, read_many, read_one, element = _families()[family]
        values = data.draw(st.lists(element, min_size=0, max_size=300))
        stream, nbits = _encode(write, values)
        _assert_matches_scalar(stream, nbits, values, read_many, read_one)

    @given(data=st.data())
    @_PROPERTY_SETTINGS
    def test_property_pairs_match_scalar_loop(self, data):
        gaps = data.draw(st.lists(st.integers(0, 1 << 16), max_size=200))
        durs = [data.draw(st.integers(0, 1 << 12)) for _ in gaps]
        w = BitWriter()
        for g, d in zip(gaps, durs):
            codes.write_zeta_natural(w, g, 3)
            codes.write_zeta_natural(w, d, 2)
        stream, nbits = w.to_bytes(), w.bit_length
        reader = BitReader(stream, nbits)
        bulk = codes.read_many_zeta_natural_pairs(reader, len(gaps), 3, 2)
        assert bulk == (gaps, durs)
        assert reader.position == nbits
        reader = BitReader(stream, nbits)
        scalar_a, scalar_b = [], []
        for _ in gaps:
            scalar_a.append(codes.read_zeta_natural(reader, 3))
            scalar_b.append(codes.read_zeta_natural(reader, 2))
        assert (scalar_a, scalar_b) == bulk
        assert reader.position == nbits

    @given(data=st.data())
    @_PROPERTY_SETTINGS
    def test_property_truncated_streams_match_scalar_loop(self, data):
        values = data.draw(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=80))
        stream, nbits = _encode(
            lambda w, v: codes.write_zeta_natural(w, v, 2), values
        )
        cut = data.draw(st.integers(0, nbits - 1))
        truncated = stream[: (cut + 7) // 8]
        outcomes = []
        for read in (
            lambda r: codes.read_many_zeta_natural(r, len(values), 2),
            lambda r: [codes.read_zeta_natural(r, 2) for _ in values],
        ):
            reader = BitReader(truncated, cut)
            try:
                outcomes.append(("ok", read(reader), reader.position))
            except EndOfStreamError:
                outcomes.append(("eos", None, None))
        assert outcomes[0] == outcomes[1]

    def test_zeta_zero_and_power_boundaries(self):
        # zeta_k boundaries: v = 2**(k*h) +/- 1 flips the shard size; zero
        # (as a natural) exercises the minimum-length code.
        values = [0]
        for h in range(1, 8):
            for off in (-1, 0, 1):
                values.append(max(0, (1 << (3 * h)) + off))
        stream, nbits = _encode(
            lambda w, v: codes.write_zeta_natural(w, v, 3), values
        )
        _assert_matches_scalar(
            stream, nbits, values,
            lambda r, n: codes.read_many_zeta_natural(r, n, 3),
            lambda r: codes.read_zeta_natural(r, 3),
        )

    def test_max_length_gamma_codes(self):
        # gamma near the 64-bit decode limit: far past the 16-bit window,
        # every one of these takes the table kernel's long-code path.
        values = [(1 << 62) + 12344, 0, (1 << 40) - 2, 1, (1 << 62) + 6]
        stream, nbits = _encode(codes.write_gamma_natural, values)
        _assert_matches_scalar(
            stream, nbits, values,
            lambda r, n: codes.read_many_gamma_natural(r, n),
            codes.read_gamma_natural,
        )

    def test_word_straddling_codes(self):
        # Misalign the run so codes straddle the reader's 64-bit word at
        # every phase.
        for lead in range(1, 9):
            w = BitWriter()
            w.write_bits((1 << lead) - 1, lead)
            # Mix in-window codes with 27-bit escapes at every alignment.
            values = [2 + i % 5 if i % 2 else (1 << 13) + i for i in range(64)]
            for v in values:
                codes.write_gamma_natural(w, v)
            stream, nbits = w.to_bytes(), w.bit_length
            results = []
            for read in (
                lambda r: codes.read_many_gamma_natural(r, len(values)),
                lambda r: [codes.read_gamma_natural(r) for _ in values],
            ):
                reader = BitReader(stream, nbits)
                assert reader.read_bits(lead) == (1 << lead) - 1
                results.append((read(reader), reader.position))
            assert results == [(values, nbits)] * 2

    def test_escape_heavy_stream(self):
        # 40% of these values exceed the 16-bit window (zeta3 of >= 4096
        # is 19+ bits), so the table kernel keeps leaving for the scalar
        # escape and coming back; the answers must not change.
        rng = random.Random(3)
        values = [
            rng.randrange(4096, 1 << 20) if rng.random() < 0.4 else rng.randrange(64)
            for _ in range(2000)
        ]
        stream, nbits = _encode(lambda w, v: codes.write_zeta(w, v + 1, 3), values)
        _assert_matches_scalar(
            stream, nbits, values,
            lambda r, n: codes.read_many_zeta_natural(r, n, 3),
            lambda r: codes.read_zeta_natural(r, 3),
        )

    def test_counts_zero_and_one(self):
        stream, nbits = _encode(codes.write_gamma_natural, [4])
        reader = BitReader(stream, nbits)
        assert codes.read_many_gamma_natural(reader, 0) == []
        assert reader.position == 0
        scalar = BitReader(stream, nbits)
        assert codes.read_many_gamma_natural(reader, 1) == [
            codes.read_gamma_natural(scalar)
        ] == [4]
        assert reader.position == scalar.position == nbits
        stream, nbits = _encode(lambda w, v: codes.write_zeta_natural(w, v, 3), [9])
        reader = BitReader(stream, nbits)
        assert codes.read_many_zeta_natural(reader, 0, 3) == []
        assert reader.position == 0
        assert codes.read_many_zeta_natural(reader, 1, 3) == [9]
        assert reader.position == nbits
        reader = BitReader(stream, nbits)
        assert codes.read_many_zeta_natural_pairs(reader, 0, 3, 2) == ([], [])
        assert reader.position == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: codes.read_many_gamma_natural(r, -1),
            lambda r: codes.read_many_gamma_natural(r, -2),
            lambda r: codes.read_many_zeta_natural(r, -1, 3),
            lambda r: codes.read_many_zeta_natural(r, -5, 2),
            lambda r: codes.read_many_zeta_natural_pairs(r, -1, 3, 2),
        ],
    )
    def test_negative_count_raises(self, call):
        with pytest.raises(CodecDomainError):
            call(BitReader(b"\xff\xff", 16))


class TestRecordDecode:
    def test_unfold_matches_python_loop(self):
        rng = random.Random(11)
        timestamps = sorted(rng.randrange(0, 1 << 30) for _ in range(500))
        w = BitWriter()
        encode_node_timestamps(w, timestamps, None, timestamps[0], 2)
        reader = BitReader(w.to_bytes(), w.bit_length)
        decoded, durs = decode_node_timestamps(
            reader, len(timestamps), False, timestamps[0], 2
        )
        assert decoded == timestamps
        assert durs is None

    def test_decode_never_imports_numpy(self):
        # Node 0's timestamp record is one 3,000-code run; decoding it
        # must stay in pure Python, so a query process never pays
        # numpy's import time or resident memory.
        script = textwrap.dedent(
            """
            import sys

            from repro.core import compress
            from repro.graph.builders import graph_from_contacts
            from repro.graph.model import GraphKind

            rows = [(0, 1 + i % 50, i, 0) for i in range(3000)]
            graph = compress(
                graph_from_contacts(GraphKind.POINT, rows, num_nodes=51)
            )
            assert len(graph.neighbors(0, 0, 3000)) == 50
            assert len(graph.snapshot(0, 3000)) == 50
            assert "numpy" not in sys.modules, "decode imported numpy"
            """
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert result.returncode == 0, result.stderr
