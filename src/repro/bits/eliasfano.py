"""Elias-Fano representation of non-decreasing sequences.

Stores a monotone sequence of naturals in roughly ``2 + log2(u / n)`` bits
per element (Section IV-E of the paper) while supporting O(1) ``access(i)``.

Layout: with universe ``u`` and ``n`` elements, each value is split into
``l = max(0, floor(log2(u / n)))`` low bits stored verbatim, and high bits
stored as a unary-coded sequence of bucket counters.  ``access(i)`` is a
``select1`` on the high-bits array plus a low-bits fetch.

The payload size depends only on ``n``, the last value and ``u``, so
:func:`payload_bits` gives it in closed form without building the
structure.  ChronoGraph charges its two offset indexes (structure stream,
timestamp stream) at exactly that figure while holding them as flat
arrays; the baselines build :class:`EliasFano` itself.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.bits.bitvector import BitVector
from repro.errors import CodecDomainError


def _low_bits(n: int, universe: int) -> int:
    """Low bits stored verbatim per element: ``max(0, floor(log2(u / n)))``."""
    return max(0, (universe // n).bit_length() - 1)


def payload_bits(n: int, last: int, universe: int) -> int:
    """Payload bits of ``n`` values ending at ``last`` over ``[0, universe)``.

    The ``n * l`` low bits plus the unary high-bits array, whose last set
    bit sits at ``(last >> l) + n - 1``: the figure
    :meth:`EliasFano.size_in_bits` reports for the same sequence.
    """
    if n == 0:
        return 0
    low = _low_bits(n, universe)
    return n * low + (last >> low) + n


class EliasFano:
    """Compressed random-access store for a monotone sequence of naturals."""

    def __init__(self, values: Sequence[int], universe: int | None = None) -> None:
        n = len(values)
        self._n = n
        if n == 0:
            self._universe = 0
            self._low_bits = 0
            self._lows: List[int] = []
            self._high = BitVector([])
            return
        prev = 0
        for v in values:
            if v < 0:
                raise CodecDomainError(f"negative value {v} in monotone sequence")
            if v < prev:
                raise CodecDomainError(
                    f"sequence is not non-decreasing ({v} after {prev})"
                )
            prev = v
        top = values[-1]
        if universe is None:
            universe = top + 1
        if universe <= top:
            raise CodecDomainError(f"universe {universe} <= max value {top}")
        self._universe = universe
        self._low_bits = _low_bits(n, universe)
        l = self._low_bits
        mask = (1 << l) - 1
        self._lows = [v & mask for v in values]
        # High bits: for element i with high part h, set bit at h + i + 1 - 1.
        high_positions = [(v >> l) + i for i, v in enumerate(values)]
        length = high_positions[-1] + 1 if high_positions else 0
        self._high = BitVector.from_indices(high_positions, length)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield self.access(i)

    def access(self, i: int) -> int:
        """Return the i-th element of the original sequence."""
        if not 0 <= i < self._n:
            raise IndexError(i)
        high = self._high.select1(i) - i
        return (high << self._low_bits) | self._lows[i]

    def __getitem__(self, i: int) -> int:
        return self.access(i)

    def size_in_bits(self) -> int:
        """Payload size: low bits plus the unary high-bits array.

        Equal to :func:`payload_bits` for the same sequence, the figure
        ChronoGraph's size accounting charges for each offset index
        (rank/select directories are bookkeeping, as in the paper's Java
        implementation which reports the EF payload).
        """
        if self._n == 0:
            return 0
        return payload_bits(self._n, self.access(self._n - 1), self._universe)

    def predecessor_index(self, value: int) -> int:
        """Index of the last element ``<= value``; -1 if none.

        Used by snapshot queries that binary-search offset boundaries.
        """
        lo, hi = 0, self._n - 1
        result = -1
        while lo <= hi:
            mid = (lo + hi) // 2
            if self.access(mid) <= value:
                result = mid
                lo = mid + 1
            else:
                hi = mid - 1
        return result
