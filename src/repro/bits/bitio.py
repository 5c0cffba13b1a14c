"""MSB-first bit streams.

All compressed representations in this package are serialised as contiguous
bit strings. ``BitWriter`` accumulates bits most-significant-bit first into a
``bytearray``; ``BitReader`` consumes them in the same order and additionally
supports random repositioning, which the offset indexes rely on.

The MSB-first convention matches the WebGraph framework the paper builds on:
the first bit written is the highest bit of the first byte.

``BitReader`` keeps a cached word of up to 64 bits ahead of the cursor so
the hot decoders (``repro.bits.codes``) can ``peek_bits``/``skip`` on plain
integer arithmetic instead of re-slicing the byte buffer per code word.

Buffer contract (zero-copy rule)
--------------------------------

``BitReader`` reads from *any* read-only buffer -- ``bytes``, a
``memoryview`` (including one over an ``mmap``-ed container file) or a
``bytearray`` -- and never copies it: every access is a bounded slice fed
to ``int.from_bytes``.  This is what lets ``load_compressed(mmap=True)``
share one OS page cache between N worker processes: the reader walks the
mapped pages directly.  Callers hand ``mmap`` objects in wrapped in a
``memoryview`` (slicing a raw ``mmap`` copies; slicing its view does not).
The buffer must not be mutated while any reader is live.

Reading past the end of a stream raises :class:`repro.errors.EndOfStreamError`,
which is both an :class:`EOFError` (the historical contract) and a
:class:`repro.errors.FormatError` so corrupt-container decoding funnels into
a single exception family.

Thread contract (reader-per-thread rule)
----------------------------------------

Neither class synchronises internally.  A :class:`BitReader` carries a
mutable cursor and cached word, so it must never be shared between
threads: construct a :class:`BitReader` per thread over the same
(immutable) byte buffer -- construction is cheap and the buffer itself is
never copied.  A :class:`BitWriter` likewise belongs to exactly one
thread.
"""

from __future__ import annotations

from typing import Union

from repro.errors import CodecDomainError, EndOfStreamError

#: Read-only byte buffers the bit-level readers accept without copying.
#: ``mmap.mmap`` is deliberately absent: raw mmap slicing *copies*, so
#: mapped containers are passed in as ``memoryview(mm)`` instead.
Buffer = Union[bytes, bytearray, memoryview]

#: Widest value ``peek_bits``/the cached-word fast paths serve; one refill
#: loads at least this many bits when that much stream remains (64 bits of
#: buffer minus up to 7 bits of byte-alignment slack).
_WORD_MAX_BITS = 57


class BitWriter:
    """Accumulates an MSB-first bit string.

    Bits are buffered in an integer accumulator (fewer than 8 bits between
    calls) and flushed to a ``bytearray`` in whole bytes.  ``len(writer)``
    is the number of bits written so far, which callers use to record
    stream offsets.  The ``write_many_*`` bulk writers of
    :mod:`repro.bits.codes` pack runs of codes straight into this state.
    """

    def __init__(self) -> None:
        self._bytes = bytearray()
        self._acc = 0          # bits not yet flushed, MSB-aligned in `_nacc`
        self._nacc = 0         # number of valid bits in `_acc`

    def __len__(self) -> int:
        """Number of bits written so far."""
        return 8 * len(self._bytes) + self._nacc

    @property
    def bit_length(self) -> int:
        """Alias for ``len(self)``; the current write position in bits."""
        return len(self)

    def write_bit(self, bit: int) -> int:
        """Append a single bit (0 or 1). Returns the number of bits written."""
        self._acc = (self._acc << 1) | (bit & 1)
        self._nacc += 1
        if self._nacc == 8:
            self._bytes.append(self._acc)
            self._acc = 0
            self._nacc = 0
        return 1

    def write_bits(self, value: int, width: int) -> int:
        """Append ``width`` bits holding ``value`` (MSB first).

        ``value`` must satisfy ``0 <= value < 2**width``.  Returns ``width``.
        """
        if width < 0:
            raise CodecDomainError(f"negative width: {width}")
        if value < 0 or (value >> width):
            raise CodecDomainError(f"value {value} does not fit in {width} bits")
        acc = (self._acc << width) | value
        nacc = self._nacc + width
        if nacc >= 8:
            # Flush every whole byte at once; the low `rest` bits stay.
            rest = nacc & 7
            self._bytes += (acc >> rest).to_bytes(nacc >> 3, "big")
            acc &= (1 << rest) - 1
            nacc = rest
        self._acc = acc
        self._nacc = nacc
        return width

    def extend(self, other: "BitWriter") -> int:
        """Append the full contents of another writer. Returns bits appended.

        Byte-aligned destinations take a bytes-level copy; unaligned ones
        splice the whole source through one big-integer shift instead of
        re-packing byte-by-byte, which is what makes the reference-selection
        ``extend`` of the encoder cheap.
        """
        nbits = len(other)
        data, tail_bits, tail = other._bytes, other._nacc, other._acc
        if self._nacc == 0:
            self._bytes += data
        elif data:
            shift = self._nacc
            body = (self._acc << (8 * len(data))) | int.from_bytes(data, "big")
            # Flush whole bytes; the low `shift` bits stay in the accumulator.
            self._bytes += (body >> shift).to_bytes(len(data), "big")
            self._acc = body & ((1 << shift) - 1)
        if tail_bits:
            self.write_bits(tail, tail_bits)
        return nbits

    def to_bytes(self) -> bytes:
        """Return the stream padded with zero bits to a whole byte."""
        # Encoder finalisation: the writer stays mutable afterwards, so
        # the caller gets an immutable copy, not a view of live state.
        out = bytearray(self._bytes)  # repro: noqa[CG006]
        if self._nacc:
            out.append((self._acc << (8 - self._nacc)) & 0xFF)
        return bytes(out)  # repro: noqa[CG006]


class BitReader:
    """Reads an MSB-first bit string produced by :class:`BitWriter`.

    Supports ``seek`` to an absolute bit position, which is what makes the
    Elias-Fano offset indexes useful: a node's record can be decoded by
    jumping straight to its first bit.

    A cached word (``_word``/``_wbits``) always holds the next ``_wbits``
    bits at the cursor, first unread bit as its MSB; every mutator keeps
    that invariant so ``peek_bits``/``skip`` stay branch-light.
    """

    def __init__(self, data: Buffer, nbits: int | None = None) -> None:
        self._data = data
        self._nbits = 8 * len(data) if nbits is None else nbits
        self._pos = 0
        self._word = 0
        self._wbits = 0

    @property
    def position(self) -> int:
        """Current read position, in bits from the start of the stream."""
        return self._pos

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._nbits - self._pos

    def seek(self, bit_position: int) -> None:
        """Reposition the cursor to an absolute bit offset."""
        if not 0 <= bit_position <= self._nbits:
            raise CodecDomainError(
                f"seek to {bit_position} outside stream of {self._nbits} bits"
            )
        self._pos = bit_position
        self._word = 0
        self._wbits = 0

    def _refill(self) -> None:
        """Reload the cached word with up to 64 bits at the cursor."""
        pos = self._pos
        chunk = self._data[pos >> 3 : (pos >> 3) + 8]
        total = (len(chunk) << 3) - (pos & 7)
        word = int.from_bytes(chunk, "big")
        avail = self._nbits - pos
        if total > avail:
            word >>= total - avail
            total = avail
        self._word = word & ((1 << total) - 1)
        self._wbits = total

    def peek_bits(self, width: int) -> int:
        """The next ``width`` bits without advancing; zero-padded past EOS.

        ``width`` must be at most 57 (one cached word).  Padding with zeros
        lets table-driven decoders probe a fixed-size window near the end of
        the stream; they bound the *consumed* bits by ``remaining``.
        """
        wbits = self._wbits
        if width > wbits:
            self._refill()
            wbits = self._wbits
            if width > wbits:
                return self._word << (width - wbits)
        return self._word >> (wbits - width)

    def skip(self, width: int) -> None:
        """Advance the cursor ``width`` bits (bounds-checked)."""
        if width > self._wbits:
            if self._pos + width > self._nbits:
                raise EndOfStreamError(
                    f"skip of {width} bits at {self._pos} exceeds {self._nbits}"
                )
            self._pos += width
            self._word = 0
            self._wbits = 0
            return
        self._pos += width
        self._wbits -= width
        self._word &= (1 << self._wbits) - 1

    def read_bit(self) -> int:
        """Read and return the next bit."""
        wbits = self._wbits
        if not wbits:
            if self._pos >= self._nbits:
                raise EndOfStreamError("read past end of bit stream")
            self._refill()
            wbits = self._wbits
        wbits -= 1
        bit = self._word >> wbits
        self._word &= (1 << wbits) - 1
        self._wbits = wbits
        self._pos += 1
        return bit

    def read_bits(self, width: int) -> int:
        """Read ``width`` bits and return them as an unsigned integer."""
        wbits = self._wbits
        if 0 <= width <= wbits:
            wbits -= width
            value = self._word >> wbits
            self._word &= (1 << wbits) - 1
            self._wbits = wbits
            self._pos += width
            return value
        if width < 0:
            raise CodecDomainError(f"negative width: {width}")
        if self._pos + width > self._nbits:
            raise EndOfStreamError(
                f"read of {width} bits at {self._pos} exceeds {self._nbits}"
            )
        if width <= _WORD_MAX_BITS:
            self._refill()
            wbits = self._wbits - width
            value = self._word >> wbits
            self._word &= (1 << wbits) - 1
            self._wbits = wbits
            self._pos += width
            return value
        # Wider than the cached word: slice the byte buffer directly.
        end = self._pos + width
        first_byte = self._pos >> 3
        last_byte = (end + 7) >> 3
        chunk = int.from_bytes(self._data[first_byte:last_byte], "big")
        chunk_bits = 8 * (last_byte - first_byte)
        chunk >>= chunk_bits - (end - 8 * first_byte)
        self._pos = end
        self._word = 0
        self._wbits = 0
        return chunk & ((1 << width) - 1)

    def read_unary_run(self) -> int:
        """Count zero bits up to and including the terminating 1 bit.

        Returns the number of zeros seen (so the unary code of ``x`` yields
        ``x - 1``). Provided here because it is the hot inner loop of every
        decoder; scanning a cached word at a time is markedly faster than
        bit-at-a-time.
        """
        zeros = 0
        while True:
            wbits = self._wbits
            if not wbits:
                if self._pos >= self._nbits:
                    raise EndOfStreamError("unary run hit end of bit stream")
                self._refill()
                wbits = self._wbits
            word = self._word
            if not word:
                zeros += wbits
                self._pos += wbits
                self._wbits = 0
                continue
            lead = wbits - word.bit_length()
            wbits -= lead + 1
            self._pos += lead + 1
            self._wbits = wbits
            self._word = word & ((1 << wbits) - 1)
            return zeros + lead
