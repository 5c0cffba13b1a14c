"""Timestamp codec (Sections IV-A to IV-C of the paper).

For each node, the timestamps of its contacts -- ordered by (neighbor label,
timestamp), the ordering shared with the structure stream -- are stored as a
gap sequence: the first value relative to the *global minimum* timestamp and
every subsequent value relative to its predecessor (the "previous" strategy
whose gap distribution Figure 3 shows to be power-law).  Gaps after the
first may be negative and are folded to naturals with Eq. (1); the naturals
are zeta_k-coded.

Interval graphs additionally need each contact's duration.  The paper does
not spell out duration storage; we interleave each duration (a natural,
zeta_k-coded) right after its timestamp gap, preserving the one-stream /
one-offset-index design.  This substitution is recorded in DESIGN.md.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Sequence, Tuple

from repro.bits import codes, kernels
from repro.bits.bitio import BitReader, BitWriter
from repro.errors import GraphDomainError


def timestamp_gaps(timestamps: Sequence[int], t_min: int) -> List[int]:
    """The integer gap sequence of Table II (before Eq. (1) mapping)."""
    gaps: List[int] = []
    prev: Optional[int] = None
    for t in timestamps:
        gaps.append(t - t_min if prev is None else t - prev)
        prev = t
    return gaps


def timestamp_naturals(timestamps: Sequence[int], t_min: int) -> List[int]:
    """The naturals a node's timestamp record zeta-codes, in stream order.

    The first is the offset from ``t_min``; every later one is the Eq. (1)
    fold of the gap to its predecessor.  The encoder writes exactly this
    list and the zeta_k auto-selection sizes exactly this list, so the two
    cannot drift apart.  Raises :class:`GraphDomainError` for a first
    timestamp below ``t_min``.
    """
    if not timestamps:
        return []
    first = timestamps[0] - t_min
    if first < 0:
        raise GraphDomainError(
            f"timestamp {timestamps[0]} below the global minimum {t_min}"
        )
    naturals = [first]
    # Inlined Eq. (1) (repro.bits.zigzag.to_natural): ~(2g) == 2|g| - 1.
    naturals.extend([
        gap << 1 if gap >= 0 else ~(gap << 1)
        for gap in map(operator.sub, timestamps[1:], timestamps)
    ])
    return naturals


def encode_node_timestamps(
    writer: BitWriter,
    timestamps: Sequence[int],
    durations: Optional[Sequence[int]],
    t_min: int,
    zeta_k: int,
    duration_zeta_k: Optional[int] = None,
) -> None:
    """Append one node's timestamp record (and durations, if given).

    Durations carry their own zeta parameter (default: same as the gaps) --
    their magnitudes are unrelated to the gap magnitudes, so the optimal
    codes differ (short contacts vs long-lived links).  The record is one
    bulk zeta run, or one interleaved pair run with durations.
    """
    if durations is not None and len(durations) != len(timestamps):
        raise GraphDomainError("durations must align one-to-one with timestamps")
    naturals = timestamp_naturals(timestamps, t_min)
    if durations is None:
        codes.write_many_zeta_natural(writer, naturals, zeta_k)
    else:
        dk = zeta_k if duration_zeta_k is None else duration_zeta_k
        codes.write_many_zeta_natural_pairs(writer, naturals, durations, zeta_k, dk)


def decode_node_timestamps(
    reader: BitReader,
    count: int,
    with_durations: bool,
    t_min: int,
    zeta_k: int,
    duration_zeta_k: Optional[int] = None,
) -> Tuple[List[int], Optional[List[int]]]:
    """Decode ``count`` timestamps (and durations) from the reader cursor.

    One pass over the record: each zeta code is decoded through the 16-bit
    table loop of :mod:`repro.bits.codes` and folded into the running
    timestamp in the same iteration -- the first natural is the offset
    from ``t_min``, every later one the Eq. (1) fold of a gap, unfolded
    inline as ``(x >> 1) ^ -(x & 1)``.  An interval record interleaves
    each duration after its gap; the pair loop is unrolled.  The loop
    polls the checkpoint hook stride by stride (:func:`codes.strides`).
    """
    dk = zeta_k if duration_zeta_k is None else duration_zeta_k
    if count <= 0:
        return [], ([] if with_durations else None)
    step = codes.table_step
    vals, lens = codes.zeta_table(zeta_k)
    chunks = codes.strides(kernels._checkpoint_hook, count, 2 if with_durations else 1)
    x, word, wbits, end = step(reader, 0, 0, reader.position, vals, lens, zeta_k)
    t = t_min + x
    timestamps = [t]
    append = timestamps.append
    if not with_durations:
        for chunk in chunks:
            for _ in range(chunk):
                w = word >> wbits & 0xFFFF
                n = lens[w]
                if n <= wbits:
                    wbits -= n
                    x = vals[w]
                else:
                    x, word, wbits, end = step(reader, word, wbits, end, vals, lens, zeta_k)
                t += (x >> 1) ^ -(x & 1)
                append(t)
        reader.seek(end - wbits)
        return timestamps, None
    dvals, dlens = codes.zeta_table(dk)
    d, word, wbits, end = step(reader, word, wbits, end, dvals, dlens, dk)
    durations = [d]
    dappend = durations.append
    for chunk in chunks:
        for _ in range(chunk):
            w = word >> wbits & 0xFFFF
            n = lens[w]
            if n <= wbits:
                wbits -= n
                x = vals[w]
            else:
                x, word, wbits, end = step(reader, word, wbits, end, vals, lens, zeta_k)
            t += (x >> 1) ^ -(x & 1)
            append(t)
            w = word >> wbits & 0xFFFF
            n = dlens[w]
            if n <= wbits:
                wbits -= n
                dappend(dvals[w])
            else:
                d, word, wbits, end = step(reader, word, wbits, end, dvals, dlens, dk)
                dappend(d)
    reader.seek(end - wbits)
    return timestamps, durations
