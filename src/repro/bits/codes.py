"""Instantaneous codes used by ChronoGraph and the baselines.

All codes operate on *positive* integers (x >= 1), following Boldi & Vigna,
"Codes for the World Wide Web".  Natural numbers (>= 0) are coded through the
``*_natural`` wrappers which shift by one.  The worked examples from the
paper hold exactly:

* unary(2) = ``01``
* minimal binary of 8 over [0, 55] = ``010000``
* zeta_3(16) = ``01010000``

The module exposes, per code, a writer (``write_*``), a reader (``read_*``)
and a length function (``*_length``).  For the codes ChronoGraph emits in
bulk there are also run-level counterparts:

* ``gamma_table``, ``zeta_table``, ``table_step`` and ``strides`` -- the
  16-bit table loop every run decode is written on: tables of naturals, a
  step for refills and codes longer than the window, and the checkpoint
  chunking.  The record decoders of :mod:`repro.core` run it inline with
  the record's arithmetic folded in, one pass per record;
* ``read_many_gamma_natural``, ``read_many_zeta_natural`` and
  ``read_many_zeta_natural_pairs`` -- plain bulk readers on the same loop;
* ``write_many_gamma_natural``, ``write_many_zeta_natural`` and
  ``write_many_zeta_natural_pairs`` -- bulk writers that pack a whole run
  into a local accumulator and flush it to the writer in whole bytes every
  ~512 bits (the record encoders);
* ``size_many_gamma_natural``, ``size_many_zeta_natural`` and
  ``zeta_length_from_bits`` -- closed-form sizes, which let the encoder
  size candidate encodings without materialising them (reference
  selection and the Figure 7 zeta_k sweep).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bits import kernels
from repro.bits.bitio import BitReader, BitWriter
from repro.bits.zigzag import to_integer, to_natural
from repro.errors import CodecDomainError

__all__ = [
    "write_unary", "read_unary", "unary_length",
    "write_minimal_binary", "read_minimal_binary", "minimal_binary_length",
    "write_gamma", "read_gamma", "gamma_length",
    "write_gamma_natural", "read_gamma_natural",
    "write_gamma_integer", "read_gamma_integer",
    "write_delta", "read_delta", "delta_length",
    "write_zeta", "read_zeta", "zeta_length", "zeta_length_from_bits",
    "write_zeta_natural", "read_zeta_natural",
    "write_zeta_integer", "read_zeta_integer",
    "write_golomb", "read_golomb", "golomb_length",
    "write_rice", "read_rice", "rice_length",
    "write_vbyte", "read_vbyte", "vbyte_length",
    "encode_simple16", "decode_simple16",
    "gamma_table", "zeta_table", "table_step", "strides",
    "read_many_gamma_natural", "read_many_zeta_natural",
    "read_many_zeta_natural_pairs",
    "write_many_gamma_natural", "write_many_zeta_natural",
    "write_many_zeta_natural_pairs",
    "size_many_gamma_natural", "size_many_zeta_natural", "zeta_widths",
]


# --------------------------------------------------------------------------
# Table-driven prefix decoding
#
# A 16-bit window at the cursor resolves the vast majority of gamma and
# zeta codes in one lookup (the Zuckerli trick): per window the tables hold
# the decoded *natural* (code value - 1, what every ChronoGraph stream
# stores) and the bits consumed.  A window whose code does not fit in 16
# bits holds the length ``_ESCAPE``, longer than any cached word, so the
# one test ``n <= wbits`` both bounds a code by the bits at hand and sends
# long codes down the slow path.  Tables are built lazily on first use
# (the zeta family is per k) and shared by the scalar readers, the bulk
# readers and the record decoders of :mod:`repro.core`.
#
# A table loop keeps its cursor in three locals, ``(word, wbits, end)``:
# ``word`` holds the stream's bits up to bit ``end``, followed by 16 zero
# bits, and its low ``wbits`` stream bits are unread.  So the window at the
# cursor is ``word >> wbits & 0xFFFF`` and consuming ``n`` bits is
# ``wbits -= n``; the cursor's bit position is ``end - wbits``.  Consumed
# bits are never masked off -- the ``& 0xFFFF`` drops them -- and a window
# that runs past ``end`` reads zeros, which is harmless: a code is taken
# only when all of its ``n`` bits are unread stream bits.  Every loop is
#
#     w = word >> wbits & 0xFFFF
#     n = lens[w]
#     if n <= wbits:
#         wbits -= n
#         x = vals[w]
#     else:
#         x, word, wbits, end = table_step(reader, word, wbits, end, vals, lens, k)
#
# starting from the empty cursor ``(0, 0, reader.position)`` and ending
# with ``reader.seek(end - wbits)``.
# --------------------------------------------------------------------------

_TABLE_BITS = 16
_TABLE_SIZE = 1 << _TABLE_BITS

#: Table length of a window whose code is longer than the window: more
#: bits than any cursor word holds, so ``n <= wbits`` always fails.
_ESCAPE = 255

#: Bytes a table loop loads per refill: at least 121 stream bits, so a
#: record's short codes refill once every dozen or more codes.
_REFILL_BYTES = 16

#: A decode table: per 16-bit window, the natural and the code length.
Table = Tuple[List[int], List[int]]

_GAMMA_TABLE: Optional[Table] = None
_ZETA_TABLES: Dict[int, Table] = {}


def _fill(vals: List[int], lens: List[int], code: int, n: int, value: int) -> None:
    """Claim every 16-bit window whose top ``n`` bits equal ``code``."""
    span = 1 << (_TABLE_BITS - n)
    start = code << (_TABLE_BITS - n)
    vals[start : start + span] = [value] * span
    lens[start : start + span] = [n] * span


def gamma_table() -> Table:
    """The (naturals, lengths) decode table of Elias gamma."""
    global _GAMMA_TABLE
    if _GAMMA_TABLE is None:
        vals = [0] * _TABLE_SIZE
        lens = [_ESCAPE] * _TABLE_SIZE
        # Table build is bounded by _TABLE_BITS and memoised per process.
        for lead in range((_TABLE_BITS - 1) // 2 + 1):
            n = 2 * lead + 1
            # The n-bit gamma codeword of x is x itself (unary exponent
            # prefix then the low bits), so the fill is direct.
            for x in range(1 << lead, 1 << (lead + 1)):
                _fill(vals, lens, x, n, x - 1)
        _GAMMA_TABLE = (vals, lens)
    return _GAMMA_TABLE


def zeta_table(k: int) -> Table:
    """The (naturals, lengths) decode table of zeta_k."""
    table = _ZETA_TABLES.get(k)
    if table is not None:
        return table
    vals = [0] * _TABLE_SIZE
    lens = [_ESCAPE] * _TABLE_SIZE
    h = 0
    # Exits once the shortest h-level code overflows _TABLE_BITS, so the
    # memoised build is bounded.
    while True:
        un = h + 1  # unary part: h zeros then a 1
        low = 1 << (h * k)
        z = (low << k) - low
        s = (z - 1).bit_length()
        m = (1 << s) - z
        shortest = un if z == 1 else un + (s - 1 if m > 0 else s)
        if shortest > _TABLE_BITS:
            break
        if z == 1:
            _fill(vals, lens, 1, un, low - 1)
        else:
            if m > 0 and un + s - 1 <= _TABLE_BITS:
                # Short codes: s - 1 payload bits (table-bounded fill).
                for d in range(m):
                    _fill(vals, lens, (1 << (s - 1)) | d, un + s - 1, low + d - 1)
            if un + s <= _TABLE_BITS:
                # Long codes: s payload bits of d + m (table-bounded fill).
                for d in range(m, z):
                    _fill(vals, lens, (1 << s) | (d + m), un + s, low + d - 1)
        h += 1
    _ZETA_TABLES[k] = (vals, lens)
    return _ZETA_TABLES[k]


def _escape(reader: BitReader, k: int) -> int:
    """The natural of the zeta_k code at the reader's cursor, bit by bit.

    The path for codes longer than the table window and for codes cut by
    the end of the stream (:class:`EndOfStreamError`).  zeta_1 is gamma.
    """
    h = reader.read_unary_run()
    low = 1 << (h * k)
    return low - 1 + read_minimal_binary(reader, (low << k) - low)


def _read_natural(reader: BitReader, vals: List[int], lens: List[int], k: int) -> int:
    """One code's natural through a table: the scalar readers' fast path.

    Works on the reader's own cached word (same-package contract with
    :class:`repro.bits.bitio.BitReader`), with no method call unless the
    word needs a refill or the code escapes.
    """
    wbits = reader._wbits
    if wbits < _TABLE_BITS:
        reader._refill()
        wbits = reader._wbits
    word = reader._word
    w = word >> (wbits - 16) if wbits >= 16 else word << (16 - wbits)
    n = lens[w]
    if n <= wbits:
        wbits -= n
        reader._word = word & ((1 << wbits) - 1)
        reader._wbits = wbits
        reader._pos += n
        return vals[w]
    return _escape(reader, k)


def table_step(
    reader: BitReader,
    word: int,
    wbits: int,
    end: int,
    vals: List[int],
    lens: List[int],
    k: int,
) -> Tuple[int, int, int, int]:
    """Decode one zeta_k code (gamma: ``k = 1``) at a table loop's cursor.

    Returns ``(natural, word, wbits, end)``.  The table loops inline the
    common case and call this when the window test fails: it refills the
    cursor's word from the stream and retries the table.  A code longer
    than the window is decoded from the word when the word holds all of
    it, and by the scalar escape otherwise (very long codes, and codes cut
    by the end of the stream).  Record decoders also read their single
    codes (block counts, first gaps) through it.
    """
    w = word >> wbits & 0xFFFF
    n = lens[w]
    if n > wbits:
        pos = end - wbits
        i = pos >> 3
        chunk = reader._data[i : i + _REFILL_BYTES]
        wbits = (len(chunk) << 3) - (pos & 7)
        word = int.from_bytes(chunk, "big")
        end = pos + wbits
        over = end - reader._nbits
        if over > 0:
            word >>= over
            wbits -= over
            end -= over
        # Bits before the cursor stay above the window; no mask needed.
        word <<= 16
        w = word >> wbits & 0xFFFF
        n = lens[w]
        if n > wbits:
            # zeta_k of h zeros, a one, then a minimal binary payload of
            # s - 1 or s bits over an interval of z values (read_zeta).
            rest = word >> 16 & ((1 << wbits) - 1)
            h = wbits - rest.bit_length()
            low = 1 << (h * k)
            z = (low << k) - low
            s = (z - 1).bit_length()
            if rest and h + 1 + s <= wbits:
                wbits -= h + 1
                payload = rest >> (wbits - s) & ((1 << s) - 1)
                m = (1 << s) - z
                if payload >> 1 < m:
                    return low - 1 + (payload >> 1), word, wbits - s + 1, end
                return low - 1 + payload - m, word, wbits - s, end
            reader.seek(pos)
            natural = _escape(reader, k)
            return natural, 0, 0, reader.position
    return vals[w], word, wbits - n, end


def strides(
    hook: Optional[kernels.CheckpointHook], count: int, width: int = 1
) -> Iterable[int]:
    """Chunk sizes of a table loop over a run's items after the first.

    A record loop decodes a run's first item (``width`` codes) on its own,
    then loops over the other ``count - 1`` in the chunks returned here.
    With the checkpoint ``hook`` (read by the caller from
    :mod:`repro.bits.kernels`) installed, the whole run's ``count * width``
    codes are charged up front -- which may raise the typed interruption
    errors -- and the run is split into chunks of the active context's
    stride, polling the hook between chunks; the first chunk carries the
    first item, so a run polls once per stride of codes.  Without a hook,
    or with no context active, the run is one chunk.
    """
    if hook is not None:
        stride = hook(count * width)
        if stride > 0:
            stride = -(-stride // width)
            if stride < count:
                return _polled_strides(hook, count, stride)
    return (count - 1,)


def _polled_strides(
    hook: kernels.CheckpointHook, count: int, stride: int
) -> Iterator[int]:
    """The chunks of :func:`strides` for a run longer than one stride."""
    step = stride - 1
    left = count - 1
    while left > step:
        yield step
        left -= step
        hook(0)
        step = stride
    yield left


# --------------------------------------------------------------------------
# Unary
# --------------------------------------------------------------------------

def write_unary(writer: BitWriter, x: int) -> int:
    """Write ``x >= 1`` as ``x - 1`` zeros followed by a one."""
    if x < 1:
        raise CodecDomainError(f"unary undefined for {x}")
    # A single write keeps long runs cheap: the value 1 in `x` bits.
    return writer.write_bits(1, x)


def read_unary(reader: BitReader) -> int:
    """Read a unary code; inverse of :func:`write_unary`."""
    return reader.read_unary_run() + 1


def unary_length(x: int) -> int:
    """Bit length of the unary code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"unary undefined for {x}")
    return x


# --------------------------------------------------------------------------
# Minimal binary over an interval [0, z - 1]
# --------------------------------------------------------------------------

def _ceil_log2(z: int) -> int:
    if z <= 0:
        raise CodecDomainError(f"ceil log2 undefined for {z}")
    return (z - 1).bit_length()


def write_minimal_binary(writer: BitWriter, x: int, z: int) -> int:
    """Write ``x`` minimally over the interval ``[0, z - 1]``.

    With ``s = ceil(log2 z)`` and ``m = 2**s - z``: values below ``m`` take
    ``s - 1`` bits, the rest take ``s`` bits (offset by ``m``).
    """
    if not 0 <= x < z:
        raise CodecDomainError(f"{x} outside [0, {z - 1}]")
    if z == 1:
        return 0  # the singleton interval needs no bits
    s = _ceil_log2(z)
    m = (1 << s) - z
    if x < m:
        return writer.write_bits(x, s - 1)
    return writer.write_bits(x + m, s)


def read_minimal_binary(reader: BitReader, z: int) -> int:
    """Read a minimal binary code over ``[0, z - 1]``."""
    if z <= 0:
        raise CodecDomainError(f"empty interval: z={z}")
    if z == 1:
        return 0
    s = _ceil_log2(z)
    m = (1 << s) - z
    if s == 1:
        # m == 0 here (z == 2); one full-width bit.
        return reader.read_bits(1)
    value = reader.read_bits(s - 1)
    if value < m:
        return value
    value = (value << 1) | reader.read_bit()
    return value - m


def minimal_binary_length(x: int, z: int) -> int:
    """Bit length of the minimal binary code of ``x`` over ``[0, z - 1]``."""
    if not 0 <= x < z:
        raise CodecDomainError(f"{x} outside [0, {z - 1}]")
    if z == 1:
        return 0
    s = _ceil_log2(z)
    m = (1 << s) - z
    return s - 1 if x < m else s


# --------------------------------------------------------------------------
# Elias gamma / delta
# --------------------------------------------------------------------------

def write_gamma(writer: BitWriter, x: int) -> int:
    """Write Elias gamma: unary(|x| bits) then the low bits of ``x``."""
    if x < 1:
        raise CodecDomainError(f"gamma undefined for {x}")
    l = x.bit_length() - 1
    n = write_unary(writer, l + 1)
    if l:
        n += writer.write_bits(x - (1 << l), l)
    return n


def read_gamma(reader: BitReader) -> int:
    """Read an Elias gamma code."""
    return read_gamma_natural(reader) + 1


def gamma_length(x: int) -> int:
    """Bit length of the Elias gamma code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"gamma undefined for {x}")
    return 2 * (x.bit_length() - 1) + 1


def write_gamma_natural(writer: BitWriter, n: int) -> int:
    """Gamma-code a natural number (``n >= 0``) as ``gamma(n + 1)``."""
    return write_gamma(writer, n + 1)


def read_gamma_natural(reader: BitReader) -> int:
    """Inverse of :func:`write_gamma_natural`."""
    vals, lens = gamma_table()
    return _read_natural(reader, vals, lens, 1)


def write_gamma_integer(writer: BitWriter, x: int) -> int:
    """Gamma-code a possibly-negative integer via Eq. (1)."""
    return write_gamma_natural(writer, to_natural(x))


def read_gamma_integer(reader: BitReader) -> int:
    """Inverse of :func:`write_gamma_integer`."""
    return to_integer(read_gamma_natural(reader))


def write_delta(writer: BitWriter, x: int) -> int:
    """Write Elias delta: gamma(|x| bits) then the low bits of ``x``."""
    if x < 1:
        raise CodecDomainError(f"delta undefined for {x}")
    l = x.bit_length() - 1
    n = write_gamma(writer, l + 1)
    if l:
        n += writer.write_bits(x - (1 << l), l)
    return n


def read_delta(reader: BitReader) -> int:
    """Read an Elias delta code."""
    l = read_gamma(reader) - 1
    if l == 0:
        return 1
    return (1 << l) | reader.read_bits(l)


def delta_length(x: int) -> int:
    """Bit length of the Elias delta code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"delta undefined for {x}")
    l = x.bit_length() - 1
    return gamma_length(l + 1) + l


# --------------------------------------------------------------------------
# Boldi-Vigna zeta_k
# --------------------------------------------------------------------------

def write_zeta(writer: BitWriter, x: int, k: int) -> int:
    """Write the Boldi-Vigna zeta_k code of ``x >= 1``.

    With ``x`` in ``[2**(h*k), 2**((h+1)*k) - 1]``: unary(h + 1) followed by
    the minimal binary code of ``x - 2**(h*k)`` over an interval of size
    ``2**((h+1)*k) - 2**(h*k)``.  zeta_1 coincides with Elias gamma.
    """
    if x < 1:
        raise CodecDomainError(f"zeta undefined for {x}")
    if k < 1:
        raise CodecDomainError(f"invalid zeta shrinking parameter k={k}")
    h = (x.bit_length() - 1) // k
    n = write_unary(writer, h + 1)
    low = 1 << (h * k)
    n += write_minimal_binary(writer, x - low, (low << k) - low)
    return n


def read_zeta(reader: BitReader, k: int) -> int:
    """Read a zeta_k code."""
    return read_zeta_natural(reader, k) + 1


def zeta_length(x: int, k: int) -> int:
    """Bit length of the zeta_k code of ``x``."""
    if x < 1:
        raise CodecDomainError(f"zeta undefined for {x}")
    h = (x.bit_length() - 1) // k
    low = 1 << (h * k)
    return (h + 1) + minimal_binary_length(x - low, (low << k) - low)


def zeta_length_from_bits(b: int, k: int) -> int:
    """Bit length of the zeta_k code of any value whose bit length is ``b``.

    With ``h = (b - 1) // k`` the code is ``h + 1`` unary bits and a
    ``(h + 1) * k``-bit minimal binary payload, one bit shorter for the
    values below ``2**(h*k + 1)`` (those with ``b - 1 == h * k``).  So the
    length depends on ``b`` alone, and for ``k = 1`` it is ``2b - 1``, the
    gamma length.  This is what lets the encoder size a whole stream from
    a histogram of bit lengths.
    """
    if b < 1:
        raise CodecDomainError(f"zeta undefined for values of bit length {b}")
    if k < 1:
        raise CodecDomainError(f"invalid zeta shrinking parameter k={k}")
    h = (b - 1) // k
    return (h + 1) * (k + 1) - (b - 1 == h * k)


def write_zeta_natural(writer: BitWriter, n: int, k: int) -> int:
    """zeta_k-code a natural number as ``zeta_k(n + 1)``."""
    return write_zeta(writer, n + 1, k)


def read_zeta_natural(reader: BitReader, k: int) -> int:
    """Inverse of :func:`write_zeta_natural`."""
    vals, lens = zeta_table(k)
    return _read_natural(reader, vals, lens, k)


def write_zeta_integer(writer: BitWriter, x: int, k: int) -> int:
    """zeta_k-code a possibly-negative integer via Eq. (1)."""
    return write_zeta_natural(writer, to_natural(x), k)


def read_zeta_integer(reader: BitReader, k: int) -> int:
    """Inverse of :func:`write_zeta_integer`."""
    return to_integer(read_zeta_natural(reader, k))


# --------------------------------------------------------------------------
# Golomb / Rice
# --------------------------------------------------------------------------

def write_golomb(writer: BitWriter, x: int, m: int) -> int:
    """Write the Golomb code of ``x >= 0`` with modulus ``m >= 1``."""
    if x < 0:
        raise CodecDomainError(f"golomb undefined for {x}")
    if m < 1:
        raise CodecDomainError(f"invalid golomb modulus m={m}")
    q, r = divmod(x, m)
    n = write_unary(writer, q + 1)
    n += write_minimal_binary(writer, r, m)
    return n


def read_golomb(reader: BitReader, m: int) -> int:
    """Read a Golomb code with modulus ``m``."""
    q = read_unary(reader) - 1
    return q * m + read_minimal_binary(reader, m)


def golomb_length(x: int, m: int) -> int:
    """Bit length of the Golomb code of ``x`` with modulus ``m``."""
    q, r = divmod(x, m)
    return (q + 1) + minimal_binary_length(r, m)


def write_rice(writer: BitWriter, x: int, b: int) -> int:
    """Write the Rice code of ``x >= 0``: Golomb with ``m = 2**b``."""
    return write_golomb(writer, x, 1 << b)


def read_rice(reader: BitReader, b: int) -> int:
    """Read a Rice code with parameter ``b``."""
    return read_golomb(reader, 1 << b)


def rice_length(x: int, b: int) -> int:
    """Bit length of the Rice code of ``x`` with parameter ``b``."""
    return golomb_length(x, 1 << b)


# --------------------------------------------------------------------------
# Variable byte
# --------------------------------------------------------------------------

def write_vbyte(writer: BitWriter, x: int) -> int:
    """Write ``x >= 0`` in 7-bit groups, high continuation bit per byte."""
    if x < 0:
        raise CodecDomainError(f"vbyte undefined for {x}")
    groups = []
    while True:
        groups.append(x & 0x7F)
        x >>= 7
        if not x:
            break
    n = 0
    for i in range(len(groups) - 1, 0, -1):
        n += writer.write_bits(0x80 | groups[i], 8)
    n += writer.write_bits(groups[0], 8)
    return n


def read_vbyte(reader: BitReader) -> int:
    """Read a variable-byte code."""
    value = 0
    while True:
        byte = reader.read_bits(8)
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value


def vbyte_length(x: int) -> int:
    """Bit length of the variable-byte code of ``x``."""
    if x < 0:
        raise CodecDomainError(f"vbyte undefined for {x}")
    return 8 * max(1, (x.bit_length() + 6) // 7)


# --------------------------------------------------------------------------
# Simple16
# --------------------------------------------------------------------------

# Each selector lists the bit widths of the slots packed into one 28-bit
# payload (the 4 selector bits make a 32-bit word).  This is the canonical
# Simple16 table used by inverted-index codecs such as the one EdgeLog cites.
_SIMPLE16_MODES: List[List[int]] = [
    [1] * 28,
    [2] * 7 + [1] * 14,
    [1] * 7 + [2] * 7 + [1] * 7,
    [1] * 14 + [2] * 7,
    [2] * 14,
    [4] * 1 + [3] * 8,
    [3] * 1 + [4] * 4 + [3] * 3,
    [4] * 7,
    [5] * 4 + [4] * 2,
    [4] * 2 + [5] * 4,
    [6] * 3 + [5] * 2,
    [5] * 2 + [6] * 3,
    [7] * 4,
    [10] * 1 + [9] * 2,
    [14] * 2,
    [28] * 1,
]


def encode_simple16(writer: BitWriter, values: Sequence[int]) -> int:
    """Pack naturals ``< 2**28`` into 32-bit Simple16 words.

    The count is *not* stored; callers record it separately.  Returns the
    number of bits written.
    """
    for v in values:
        if v < 0 or v >= (1 << 28):
            raise CodecDomainError(f"simple16 requires 0 <= value < 2**28, got {v}")
    n = 0
    i = 0
    total = len(values)
    while i < total:
        for selector, widths in enumerate(_SIMPLE16_MODES):
            # Trailing slots of a partial final block are zero-filled, so a
            # selector fits as soon as every value present fits its slot.
            take = min(len(widths), total - i)
            fits = all(
                values[i + j].bit_length() <= widths[j] for j in range(take)
            )
            if fits:
                n += writer.write_bits(selector, 4)
                for j, width in enumerate(widths):
                    v = values[i + j] if i + j < total else 0
                    n += writer.write_bits(v, width)
                i += take
                break
        else:  # pragma: no cover - mode 15 always fits
            raise AssertionError("no simple16 mode fits")
    return n


def decode_simple16(reader: BitReader, count: int) -> List[int]:
    """Decode ``count`` naturals written by :func:`encode_simple16`."""
    out: List[int] = []
    while len(out) < count:
        selector = reader.read_bits(4)
        for width in _SIMPLE16_MODES[selector]:
            out.append(reader.read_bits(width))
    return out[:count]


# --------------------------------------------------------------------------
# Bulk readers
#
# Decode whole runs of naturals on the table loop above, one pass over the
# run's bits.  Each returns exactly ``count`` values or raises the same
# exceptions as a loop of its scalar counterpart, which is also the
# reference it is tested against.  The record decoders of
# :mod:`repro.core` run the same loop with the record's arithmetic folded
# in; these plain runs serve the remaining callers (reference scans,
# benchmarks).
# --------------------------------------------------------------------------

def _check_count(count: int) -> None:
    """Bulk reads own their domain check: a negative count is a caller bug."""
    if count < 0:
        raise CodecDomainError(f"negative bulk read count: {count}")


def _read_run(
    reader: BitReader, count: int, vals: List[int], lens: List[int], k: int
) -> List[int]:
    """Decode ``count`` zeta_k naturals (gamma: ``k = 1``) in one table loop.

    Polls the checkpoint hook stride by stride (:func:`strides`).
    """
    _check_count(count)
    if not count:
        return []
    chunks = strides(kernels._checkpoint_hook, count)
    x, word, wbits, end = table_step(reader, 0, 0, reader.position, vals, lens, k)
    out = [x]
    append = out.append
    for chunk in chunks:
        for _ in range(chunk):
            w = word >> wbits & 0xFFFF
            n = lens[w]
            if n <= wbits:
                wbits -= n
                append(vals[w])
            else:
                x, word, wbits, end = table_step(
                    reader, word, wbits, end, vals, lens, k
                )
                append(x)
    reader.seek(end - wbits)
    return out


def read_many_gamma_natural(reader: BitReader, count: int) -> List[int]:
    """Read ``count`` gamma-coded naturals (values >= 0)."""
    vals, lens = gamma_table()
    return _read_run(reader, count, vals, lens, 1)


def read_many_zeta_natural(reader: BitReader, count: int, k: int) -> List[int]:
    """Read ``count`` zeta_k-coded naturals (values >= 0)."""
    vals, lens = zeta_table(k)
    return _read_run(reader, count, vals, lens, k)


def read_many_zeta_natural_pairs(
    reader: BitReader, count: int, k_a: int, k_b: int
) -> Tuple[List[int], List[int]]:
    """Read ``count`` interleaved (zeta_k_a, zeta_k_b) natural pairs.

    This is the layout of interval-graph timestamp records: a timestamp gap
    followed by its duration, each with its own shrinking parameter.
    """
    _check_count(count)
    if not count:
        return [], []
    vals_a, lens_a = zeta_table(k_a)
    vals_b, lens_b = zeta_table(k_b)
    chunks = strides(kernels._checkpoint_hook, count, 2)
    a, word, wbits, end = table_step(
        reader, 0, 0, reader.position, vals_a, lens_a, k_a
    )
    b, word, wbits, end = table_step(reader, word, wbits, end, vals_b, lens_b, k_b)
    out_a = [a]
    out_b = [b]
    append_a = out_a.append
    append_b = out_b.append
    for chunk in chunks:
        for _ in range(chunk):
            w = word >> wbits & 0xFFFF
            n = lens_a[w]
            if n <= wbits:
                wbits -= n
                append_a(vals_a[w])
            else:
                a, word, wbits, end = table_step(
                    reader, word, wbits, end, vals_a, lens_a, k_a
                )
                append_a(a)
            w = word >> wbits & 0xFFFF
            n = lens_b[w]
            if n <= wbits:
                wbits -= n
                append_b(vals_b[w])
            else:
                b, word, wbits, end = table_step(
                    reader, word, wbits, end, vals_b, lens_b, k_b
                )
                append_b(b)
    reader.seek(end - wbits)
    return out_a, out_b


# --------------------------------------------------------------------------
# Bulk writers and closed-form run sizes
#
# The encoder's mirror of the bulk readers: a record's run of codes is
# packed into a local integer accumulator and flushed to the writer's
# buffer in whole bytes once it holds ``_FLUSH_BITS`` bits.  Flushing in
# chunks keeps every shift a few machine words; a single accumulator for
# the whole run would copy an ever-growing int per code (quadratic).  The
# same per-bit-length table gives each code's width, so sizing a run and
# writing it cannot disagree.
# --------------------------------------------------------------------------

#: Accumulator size, in bits, at which a bulk writer flushes whole bytes.
_FLUSH_BITS = 512

#: Bit lengths every code table covers from the start; wider values (only
#: timestamps can be) grow the table on demand.
_CODE_TABLE_MIN_BITS = 64

#: Per-k bulk-writer tables indexed by the bit length ``b`` of the coded
#: value ``x``: the zeta_k code of ``x`` is ``x ^ masks[b]`` in
#: ``widths[b]`` bits.  Tables are replaced, never mutated, when they grow.
_ZETA_CODE_TABLES: Dict[int, Tuple[List[int], List[int]]] = {}


def _zeta_code_table(k: int, bits: int) -> Tuple[List[int], List[int]]:
    """The (widths, masks) code table of zeta_k covering bit length ``bits``.

    With ``h = (b - 1) // k`` and ``s = (h + 1) * k`` the code is ``h``
    zeros and a one, then either ``x - 2**(h*k)`` in ``s - 1`` bits (when
    ``b - 1 == h * k``) or ``x`` itself in ``s`` bits, so the whole code is
    ``x`` with at most two bits flipped.  For ``k = 1`` both flips hit the
    same bit and the code is ``x`` in ``2b - 1`` bits: Elias gamma.
    """
    table = _ZETA_CODE_TABLES.get(k)
    if table is not None and len(table[0]) > bits:
        return table
    if k < 1:
        raise CodecDomainError(f"invalid zeta shrinking parameter k={k}")
    widths, masks = ([0], [0]) if table is None else (list(table[0]), list(table[1]))
    for b in range(len(widths), max(bits, _CODE_TABLE_MIN_BITS) + 1):
        h = (b - 1) // k
        s = (h + 1) * k
        if b - 1 == h * k:
            masks.append((1 << (h * k)) ^ (1 << (s - 1)))
        else:
            masks.append(1 << s)
        widths.append(zeta_length_from_bits(b, k))
    table = (widths, masks)
    _ZETA_CODE_TABLES[k] = table
    return table


def zeta_widths(k: int, bits: int) -> List[int]:
    """Code lengths of zeta_k indexed by the bit length of the code value.

    ``zeta_widths(k, bits)[b] == zeta_length_from_bits(b, k)`` for every
    ``1 <= b <= bits``: the size of the natural ``n`` is the entry at
    ``(n + 1).bit_length()``.  The list is shared; callers only read it.
    """
    return _zeta_code_table(k, bits)[0]


def _run_bits(values: Sequence[int]) -> int:
    """Bit length of the widest code value ``n + 1`` of a natural run.

    Raises :class:`CodecDomainError` on a negative natural, before any bit
    is written, like the scalar writers do.
    """
    if not values:
        return 0
    low = min(values)
    if low < 0:
        raise CodecDomainError(f"not a natural number: {low}")
    return (max(values) + 1).bit_length()


def _pack_run(
    writer: BitWriter, values: Sequence[int], widths: List[int], masks: List[int]
) -> int:
    """Append the codes of naturals ``values`` through a code table.

    Operates on the writer's accumulator directly (same-package contract
    with :class:`repro.bits.bitio.BitWriter`) and leaves fewer than 8 bits
    in it, as ``write_bits`` does.  Returns the number of bits written.
    """
    out = writer._bytes
    start = 8 * len(out) + writer._nacc
    acc = writer._acc
    nacc = writer._nacc
    for n in values:
        x = n + 1
        b = x.bit_length()
        width = widths[b]
        acc = (acc << width) | (x ^ masks[b])
        nacc += width
        if nacc >= _FLUSH_BITS:
            rest = nacc & 7
            out += (acc >> rest).to_bytes(nacc >> 3, "big")
            acc &= (1 << rest) - 1
            nacc = rest
    if nacc >= 8:
        rest = nacc & 7
        out += (acc >> rest).to_bytes(nacc >> 3, "big")
        acc &= (1 << rest) - 1
        nacc = rest
    writer._acc = acc
    writer._nacc = nacc
    return 8 * len(out) + nacc - start


def write_many_gamma_natural(writer: BitWriter, values: Sequence[int]) -> int:
    """Gamma-code a run of naturals; same bits as a loop of
    :func:`write_gamma_natural`.  Returns the number of bits written."""
    widths, masks = _zeta_code_table(1, _run_bits(values))
    return _pack_run(writer, values, widths, masks)


def write_many_zeta_natural(writer: BitWriter, values: Sequence[int], k: int) -> int:
    """zeta_k-code a run of naturals; same bits as a loop of
    :func:`write_zeta_natural`.  Returns the number of bits written."""
    widths, masks = _zeta_code_table(k, _run_bits(values))
    return _pack_run(writer, values, widths, masks)


def write_many_zeta_natural_pairs(
    writer: BitWriter,
    values_a: Sequence[int],
    values_b: Sequence[int],
    k_a: int,
    k_b: int,
) -> int:
    """Write interleaved (zeta_k_a, zeta_k_b) natural pairs.

    The inverse of :func:`read_many_zeta_natural_pairs`: ``values_a[i]``
    then ``values_b[i]`` for every ``i``.  Returns the number of bits
    written.
    """
    if len(values_a) != len(values_b):
        raise CodecDomainError(
            f"pair runs differ in length: {len(values_a)} vs {len(values_b)}"
        )
    widths_a, masks_a = _zeta_code_table(k_a, _run_bits(values_a))
    widths_b, masks_b = _zeta_code_table(k_b, _run_bits(values_b))
    out = writer._bytes
    start = 8 * len(out) + writer._nacc
    acc = writer._acc
    nacc = writer._nacc
    for n_a, n_b in zip(values_a, values_b):
        x = n_a + 1
        b = x.bit_length()
        width = widths_a[b]
        acc = (acc << width) | (x ^ masks_a[b])
        nacc += width
        x = n_b + 1
        b = x.bit_length()
        width = widths_b[b]
        acc = (acc << width) | (x ^ masks_b[b])
        nacc += width
        if nacc >= _FLUSH_BITS:
            rest = nacc & 7
            out += (acc >> rest).to_bytes(nacc >> 3, "big")
            acc &= (1 << rest) - 1
            nacc = rest
    if nacc >= 8:
        rest = nacc & 7
        out += (acc >> rest).to_bytes(nacc >> 3, "big")
        acc &= (1 << rest) - 1
        nacc = rest
    writer._acc = acc
    writer._nacc = nacc
    return 8 * len(out) + nacc - start


def size_many_gamma_natural(values: Sequence[int]) -> int:
    """Bits :func:`write_many_gamma_natural` writes for ``values``."""
    return size_many_zeta_natural(values, 1)


def size_many_zeta_natural(values: Sequence[int], k: int) -> int:
    """Bits :func:`write_many_zeta_natural` writes for ``values``."""
    widths = _zeta_code_table(k, _run_bits(values))[0]
    return sum([widths[(n + 1).bit_length()] for n in values])
