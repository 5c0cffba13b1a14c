"""Bit-level primitives underlying every compressed representation.

This subpackage provides the low-level machinery that the paper's encodings
are built from:

* :mod:`repro.bits.bitio` -- MSB-first bit streams (`BitWriter`, `BitReader`).
* :mod:`repro.bits.zigzag` -- the integer-to-natural mapping of Eq. (1).
* :mod:`repro.bits.codes` -- instantaneous codes: unary, minimal binary,
  Elias gamma/delta, Boldi-Vigna zeta_k, Golomb/Rice, variable-byte and a
  Simple16-style word packer.
* :mod:`repro.bits.bitvector` -- a plain bitvector with O(1) rank and fast
  select.
* :mod:`repro.bits.eliasfano` -- the Elias-Fano representation of monotone
  sequences, and the closed-form payload size ChronoGraph charges for its
  offset indexes.
"""

from repro.bits.bitio import BitReader, BitWriter
from repro.bits.bitvector import BitVector
from repro.bits.eliasfano import EliasFano
from repro.bits.zigzag import to_natural, to_integer

__all__ = [
    "BitReader",
    "BitWriter",
    "BitVector",
    "EliasFano",
    "to_natural",
    "to_integer",
]
