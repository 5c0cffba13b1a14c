"""Tests for the table-driven decode kernels and the cached-word reader.

The bulk ``read_many_*`` readers and the 16-bit lookup tables of naturals
must be bit-for-bit equivalent to the scalar decoders on every input,
including codes longer than one table window and streams that end
mid-code.
"""

import pytest
from hypothesis import given, strategies as st

from repro.bits import codes
from repro.bits.bitio import BitReader, BitWriter
from repro.errors import EndOfStreamError


def _stream(write, values):
    w = BitWriter()
    for v in values:
        write(w, v)
    return BitReader(w.to_bytes(), len(w))


class TestPeekSkip:
    def test_peek_does_not_advance(self):
        r = BitReader(b"\xab\xcd")
        assert r.peek_bits(8) == 0xAB
        assert r.position == 0
        assert r.read_bits(16) == 0xABCD

    def test_peek_zero_pads_past_end(self):
        # Stream is 1 (one bit); a 4-bit peek must see 1000.
        r = BitReader(b"\x80", 1)
        assert r.peek_bits(4) == 0b1000

    def test_peek_after_seek(self):
        r = BitReader(b"\x0f\xf0")
        r.seek(4)
        assert r.peek_bits(8) == 0xFF

    def test_skip_advances_and_bounds_checks(self):
        r = BitReader(b"\xff", 8)
        r.peek_bits(3)
        r.skip(3)
        assert r.position == 3
        with pytest.raises(EndOfStreamError):
            r.skip(6)

    def test_skip_interleaves_with_reads(self):
        r = BitReader(b"\xab\xcd")
        r.skip(4)
        assert r.read_bits(4) == 0xB
        r.skip(4)
        assert r.read_bits(4) == 0xD

    @given(st.integers(1, 57), st.binary(min_size=8, max_size=8))
    def test_property_peek_matches_read(self, width, data):
        peeked = BitReader(data).peek_bits(width)
        assert peeked == BitReader(data).read_bits(width)


class TestTables:
    """The lazily built 16-bit tables agree with the code definitions."""

    def test_gamma_table_entries(self):
        vals, lens = codes.gamma_table()
        # gamma(1) = "1": every window starting with a 1 decodes to the
        # natural 0 in 1 bit.
        assert vals[0x8000] == 0 and lens[0x8000] == 1
        # gamma(5) = 00101: window 0010 1xxx ... holds the natural 4.
        assert vals[0b0010_1000_0000_0000] == 4
        assert lens[0b0010_1000_0000_0000] == 5
        # 8 leading zeros -> 17-bit code: longer than the window, escapes.
        assert lens[0x00FF] == codes._ESCAPE

    def test_all_zero_window_escapes(self):
        # An all-zero window is a code longer than the window in every
        # table, and an escape length fails the `n <= wbits` test of any
        # cursor word, refilled or not.
        assert codes._ESCAPE > 8 * codes._REFILL_BYTES
        for vals, lens in [codes.gamma_table()] + [
            codes.zeta_table(k) for k in (1, 2, 3, 7)
        ]:
            assert lens[0x0000] == codes._ESCAPE
            assert all(1 <= n <= 16 or n == codes._ESCAPE for n in lens)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_zeta_table_matches_scalar(self, k):
        vals, lens = codes.zeta_table(k)
        for x in range(1, 2000):
            w = BitWriter()
            codes.write_zeta(w, x, k)
            nbits = len(w)
            if nbits > 16:
                continue
            window = BitReader(w.to_bytes() + b"\x00\x00").peek_bits(16)
            assert vals[window] == x - 1, (k, x)
            assert lens[window] == nbits, (k, x)


class TestBulkReaders:
    """read_many_* must equal a loop of scalar reads on the same stream."""

    @given(st.lists(st.integers(0, 1 << 35), max_size=60))
    def test_property_many_gamma_natural_long(self, values):
        # Up to 71-bit codes: unary prefixes that run past the 16-bit
        # window and past a 64-bit word, as the unary run reader sees.
        r = _stream(codes.write_gamma_natural, values)
        assert codes.read_many_gamma_natural(r, len(values)) == values
        assert r.remaining == 0

    @given(st.lists(st.integers(1, 1 << 40), max_size=60))
    def test_property_many_gamma(self, values):
        # Codes of positive values read back as their naturals.
        r = _stream(codes.write_gamma, values)
        assert codes.read_many_gamma_natural(r, len(values)) == [
            v - 1 for v in values
        ]
        assert r.remaining == 0

    @given(st.lists(st.integers(0, 1 << 40), max_size=60))
    def test_property_many_gamma_natural(self, values):
        r = _stream(codes.write_gamma_natural, values)
        assert codes.read_many_gamma_natural(r, len(values)) == values
        assert r.remaining == 0

    @given(
        st.lists(st.integers(1, 1 << 40), max_size=60),
        st.integers(1, 8),
    )
    def test_property_many_zeta(self, values, k):
        r = _stream(lambda w, v: codes.write_zeta(w, v, k), values)
        assert codes.read_many_zeta_natural(r, len(values), k) == [
            v - 1 for v in values
        ]
        assert r.remaining == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1 << 30), st.integers(0, 1 << 30)),
            max_size=40,
        ),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    def test_property_many_zeta_pairs(self, pairs, ka, kb):
        w = BitWriter()
        for a, b in pairs:
            codes.write_zeta_natural(w, a, ka)
            codes.write_zeta_natural(w, b, kb)
        r = BitReader(w.to_bytes(), len(w))
        got_a, got_b = codes.read_many_zeta_natural_pairs(r, len(pairs), ka, kb)
        assert got_a == [a for a, _ in pairs]
        assert got_b == [b for _, b in pairs]
        assert r.remaining == 0

    def test_bulk_reads_resume_scalar_reads(self):
        # The bulk reader must leave the cursor exactly after its last code.
        w = BitWriter()
        for v in (3, 9, 1):
            codes.write_gamma(w, v)
        codes.write_zeta(w, 77, 3)
        r = BitReader(w.to_bytes(), len(w))
        assert codes.read_many_gamma_natural(r, 3) == [2, 8, 0]
        assert codes.read_zeta(r, 3) == 77

    def test_long_codes_fall_back_to_scalar(self):
        # Values whose codes exceed 16 bits exercise the slow path per item.
        values = [0, 1 << 20, 1, 1 << 33, 2]
        r = _stream(codes.write_gamma_natural, values)
        assert codes.read_many_gamma_natural(r, len(values)) == values

    def test_zero_count_reads_nothing(self):
        r = BitReader(b"\xff")
        assert codes.read_many_gamma_natural(r, 0) == []
        assert r.position == 0

    def test_truncated_stream_raises_eos(self):
        w = BitWriter()
        codes.write_gamma(w, 2)  # 010: 3 bits
        r = BitReader(w.to_bytes(), 2)  # cut mid-code
        with pytest.raises(EndOfStreamError):
            codes.read_many_gamma_natural(r, 1)

    def test_truncated_zeta_run_raises_eos(self):
        w = BitWriter()
        codes.write_zeta(w, 5, 2)
        codes.write_zeta(w, 6, 2)
        r = BitReader(w.to_bytes(), len(w) - 1)
        with pytest.raises(EndOfStreamError):
            codes.read_many_zeta_natural(r, 2, 2)


class TestScalarTableProbe:
    """Scalar read_gamma/read_zeta also consult the tables; same results."""

    @given(st.integers(1, 1 << 50))
    def test_property_gamma_roundtrip(self, x):
        r = _stream(codes.write_gamma, [x])
        assert codes.read_gamma(r) == x

    @given(st.integers(1, 1 << 50), st.integers(1, 8))
    def test_property_zeta_roundtrip(self, x, k):
        r = _stream(lambda w, v: codes.write_zeta(w, v, k), [x])
        assert codes.read_zeta(r, k) == x
