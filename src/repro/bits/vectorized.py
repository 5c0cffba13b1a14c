"""numpy-vectorised bulk decoding of unary/gamma/zeta code runs.

This module is the ``numpy`` tier of the decode-kernel ladder (see
:mod:`repro.bits.kernels`).  It decodes a whole run of instantaneous codes
as array operations over the reader's underlying byte buffer instead of a
per-code Python loop:

1. **Broadcast table lookup.**  For every candidate bit position of a
   bounded *region* ahead of the cursor, the 16-bit window starting there
   is extracted with vectorised shifts and pushed through the same decode
   tables the scalar kernels use, yielding per-position ``(value, length)``
   arrays in a handful of numpy operations.  Table entries for codes
   longer than the window carry the sentinel length :data:`_BIG_LEN`, so a
   single ``minimum``/``less_equal`` pass classifies every position as
   decodable, region-straddling, or escape -- no branching masks.
2. **Pointer doubling.**  Code boundaries are data-dependent (code *i + 1*
   starts where code *i* ends), which defeats naive vectorisation.  The
   per-position successor array ``succ[p] = min(p + length[p], region)``
   turns the run into a functional chain with an absorbing off-region
   state; pointer doubling (``succ`` composed with itself, one whole-array
   gather per doubling) extracts the ordered positions of all codes in the
   region without a per-code Python step.
3. **Scalar escape.**  A position whose code exceeds the 16-bit table
   window -- or would read past end-of-stream -- stops the vector chain;
   the single offending code is decoded by the scalar reader (which
   raises the canonical :class:`repro.errors.EndOfStreamError` on
   truncation), after which vector decoding resumes *inside the same
   region*: the per-position tables and the composed jump powers are
   position-indexed, not chain-indexed, so an escape costs one scalar
   decode plus a few small gathers, never a region rebuild.  Runs whose
   escape rate stays pathologically high (adversarial streams of huge
   codes) bail out to the caller-supplied table-kernel fallback so the
   numpy tier is never asymptotically slower than the table tier.

Regions are sized adaptively: the first region assumes
:data:`_EST_BITS_SINGLE` bits per code and every later region uses the
bits-per-code actually observed so far (plus head-room), so a run is
normally covered by one or two regions instead of a geometric tail of
shrinking rounds.

The contract is *byte exactness*: for every stream, count and code family,
:func:`decode_run`/:func:`decode_run_pairs` consume exactly the bits and
return exactly the values of the table and scalar tiers, including the
exception raised (and cursor position reached) on truncated or corrupt
streams.  ``tests/test_vectorized_kernels.py`` enforces this by property
test across all three tiers.

Importing this module requires numpy; the planner never selects the numpy
tier without probing availability first, and nothing else imports this
module eagerly.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bits import kernels
from repro.bits.bitio import BitReader, Buffer
from repro.errors import CodecDomainError

__all__ = ["decode_run", "decode_run_pairs"]

_TABLE_BITS = 16

#: Sentinel length for 16-bit windows the tables cannot decode (the code
#: is longer than the window).  Large enough that ``position + _BIG_LEN``
#: always exceeds any stream limit (streams are far below 2**60 bits),
#: small enough never to overflow int64.
_BIG_LEN = 1 << 60

#: numpy copies of the 16-bit decode tables, keyed by ``id()`` of the
#: source list.  The lists are process-lifetime singletons cached by
#: :mod:`repro.bits.codes` (never freed), so identity keys are stable.
_NP_TABLES: Dict[int, Tuple[Any, Any]] = {}

#: Initial bits-per-unit estimates used to size the first region of a run;
#: later regions adapt to the bits per unit actually consumed.  Gap codes
#: in real streams average 2--8 bits, a gap/duration pair roughly twice
#: that.
_EST_BITS_SINGLE = 8
_EST_BITS_PAIR = 16

#: Clamp for the adaptive estimate: one pathological escape code (a
#: corrupt stream can gamma-code arbitrarily large values) must not balloon
#: the next region.
_MAX_EST_BITS = 64

#: Never build a region smaller than this (fixed numpy call overhead
#: dominates below it anyway).
_MIN_REGION_BITS = 256

#: Cap the *first* region of a run: it doubles as a cheap pilot sample of
#: the stream's escape rate, so escape-dominated runs bail to the table
#: fallback before a full-size region is built and burned.
_PILOT_BITS = 8192

#: Cap region size so the per-position arrays (and the cached jump powers)
#: stay a few megabytes; longer runs simply take multiple regions.
_MAX_REGION_BITS = 1 << 17

#: Escape-rate bail-out: once at least this many units decoded, if more
#: than one in eight of them went through the scalar escape, hand the rest
#: of the run to the table-kernel fallback.
_BAIL_MIN_UNITS = 64

#: Chains longer than one segment are extracted via a scalar backbone walk
#: of stride ``_SEG`` plus a matrix expansion, which caps the composed
#: jump powers at ``succ^_SEG`` -- the full-region compositions are the
#: dominant cost of pointer doubling, so the cap is the main throughput
#: lever.
_SEG_LOG = 5
_SEG = 1 << _SEG_LOG

_ARANGE: Any = None
_QIDX: Any = None  # _QIDX[j] = j >> 3, length tracks _ARANGE + 8
_SHIFT: Any = None  # _SHIFT[j] = 16 - (j & 7), uint32

#: Mutable per-thread scratch buffers (grow-only, capped by region size).
#: Scratch is thread-local because threads sharing one graph decode
#: concurrently; the read-only caches above are process-global with
#: benign-race regrowth.
_TLS = threading.local()


def _grow_caches(region: int) -> None:
    global _ARANGE, _QIDX, _SHIFT
    size = max(region, 1 << 12)
    _ARANGE = np.arange(size, dtype=np.int64)
    ext = np.arange(size + 8, dtype=np.int64)
    _QIDX = ext >> 3
    _SHIFT = (16 - (ext & 7)).astype(np.uint32)


def _prel(region: int) -> Any:
    """A cached ``arange`` view of length ``region`` (read-only by contract).

    Readers are per-thread but this cache is process-global; a racing
    regrow at worst allocates twice, and views into a superseded array
    stay valid, so no locking is needed.
    """
    cur = _ARANGE
    if cur is None or cur.size < region:
        _grow_caches(region)
        cur = _ARANGE
    return cur[:region]


def _scratch(name: str, dtype: Any, size: int) -> Any:
    """A per-thread reusable buffer slice of ``size`` elements.

    Buffers grow monotonically and are never shared between live uses: each
    ``name`` maps to one role inside a single region decode, and region
    decodes on one thread never nest (the scalar escape and the table
    fallback do not re-enter this module).
    """
    bufs = getattr(_TLS, "bufs", None)
    if bufs is None:
        bufs = _TLS.bufs = {}
    buf = bufs.get(name)
    if buf is None or buf.size < size:
        buf = np.empty(max(size, 1 << 12), dtype=dtype)
        bufs[name] = buf
    return buf[:size]


def _np_table(vals: Sequence[int], lens: Sequence[int]) -> Tuple[Any, Any]:
    """The (values, lengths) decode table as cached numpy arrays.

    Zero lengths ("window undecodable, take the scalar path") are replaced
    by :data:`_BIG_LEN` so validity falls out of a single comparison
    against the stream limit downstream.
    """
    key = id(vals)
    got = _NP_TABLES.get(key)
    if got is None:
        np_lens = np.asarray(lens, dtype=np.int64)
        np_lens[np_lens == 0] = _BIG_LEN
        got = (np.asarray(vals, dtype=np.int32), np_lens)
        _NP_TABLES[key] = got
    return got


def _sync(reader: BitReader, pos: int) -> None:
    """Publish an absolute cursor back into the reader (word dropped)."""
    reader._pos = pos
    reader._word = 0
    reader._wbits = 0


def _window16(data: Buffer, nbits: int, start: int, region: int) -> Any:
    """The 16-bit windows at bit positions ``[start, start + region)``.

    Bits at or past ``nbits`` read as zero, matching
    :meth:`repro.bits.bitio.BitReader.peek_bits` padding semantics, so the
    table lookups below see exactly what the scalar probe would.  Windows
    of positions near the region edge extend past it (into real stream
    bytes), so edge-straddling codes still decode exactly.
    """
    lo_byte = start >> 3
    hi_byte = ((start + region - 1 + _TABLE_BITS - 1) >> 3) + 1
    buf = np.zeros(hi_byte - lo_byte + 4, dtype=np.uint8)
    take = min(hi_byte, len(data)) - lo_byte
    if take > 0:
        buf[:take] = np.frombuffer(data, dtype=np.uint8, count=take, offset=lo_byte)
    first_dead = nbits - 8 * lo_byte  # buffer-relative index of first dead bit
    if first_dead < 8 * len(buf):
        kill_byte = first_dead >> 3
        keep = first_dead & 7
        if kill_byte < len(buf):
            buf[kill_byte] &= (0xFF00 >> keep) & 0xFF
            buf[kill_byte + 1 :] = 0
    u32 = (
        (buf[:-3].astype(np.uint32) << 24)
        | (buf[1:-2].astype(np.uint32) << 16)
        | (buf[2:-1].astype(np.uint32) << 8)
        | buf[3:].astype(np.uint32)
    )
    # Per-position byte index and shift are periodic in the bit phase, so
    # they come from cached arrays sliced at `phase` -- no arithmetic
    # passes, just one bounded gather and two in-place uint32 ops.
    phase = start & 7
    qidx, shift = _QIDX, _SHIFT
    if qidx is None or qidx.size < region + 8:
        _grow_caches(region)
        qidx, shift = _QIDX, _SHIFT
    g = np.take(u32, qidx[phase : phase + region], out=_scratch("g", np.uint32, region))
    np.right_shift(g, shift[phase : phase + region], out=g)
    np.bitwise_and(g, 0xFFFF, out=g)
    w16 = _scratch("w16", np.int64, region)
    np.copyto(w16, g)  # int64 windows double as gather indices downstream
    return w16


def _region_size(nbits: int, pos: int, need: int, est_bits: int) -> int:
    """Speculative region size for ``need`` more units at ``pos``."""
    wanted = max(_MIN_REGION_BITS, min(need * est_bits, _MAX_REGION_BITS))
    return int(min(nbits - pos, wanted))


def _next_est(consumed: int, units: int) -> int:
    """Adaptive bits-per-unit estimate: observed mean plus 25% head-room."""
    per_unit = consumed // units
    return min(_MAX_EST_BITS, max(4, per_unit + per_unit // 4 + 1))


def _extended(values: Any, cmp_limit: int, region: int) -> Tuple[Any, Any]:
    """Build the extended successor and validity arrays for one region.

    ``values`` holds per-position unclamped unit ends; entry ``region`` is
    the absorbing off-region state (successor: itself; validity: False).
    """
    succ_ext = _scratch("succ", np.int64, region + 1)
    np.minimum(values, region, out=succ_ext[:region])
    succ_ext[region] = region
    good_ext = _scratch("good", np.bool_, region + 1)
    np.less_equal(values, cmp_limit, out=good_ext[:region])
    good_ext[region] = False
    return succ_ext, good_ext


def _decode_region(
    reader: BitReader,
    region_start: int,
    region: int,
    succ_ext: Any,
    good_ext: Any,
    nxt_end: Any,
    emit_vec: Callable[[Any], None],
    emit_scalar: Callable[[], None],
    need: int,
    bail: Optional[Callable[[int, int], bool]] = None,
) -> Tuple[int, int, int]:
    """Decode units inside one region; returns (units, escapes, new_pos).

    ``bail(decoded, escapes)`` is consulted after every scalar escape; a
    True result aborts the region early (cursor synced after the escaped
    unit) so the caller can switch tiers.

    ``succ_ext``/``good_ext`` are the extended (region + 1 entries,
    absorbing sentinel last) unit-successor and unit-validity arrays;
    ``nxt_end`` holds, per good position, the *unclamped* region-relative
    end of the unit starting there.  ``emit_vec`` receives the ordered
    positions of a decoded chain segment; ``emit_scalar`` decodes exactly
    one unit through the scalar path at the reader's cursor (the escape).

    Jump powers ``succ^(2^k)`` are composed lazily (capped at
    ``succ^_SEG``) and cached for the lifetime of the region, so
    re-entering the chain after a scalar escape costs only gathers
    proportional to the remaining chain, not a rebuild.
    """
    powers: List[Any] = [succ_ext]

    def power(k: int) -> Any:
        while len(powers) <= k:
            prev = powers[-1]
            nxt = np.take(
                prev, prev, out=_scratch(f"p{len(powers)}", np.int64, region + 1)
            )
            powers.append(nxt)
        return powers[k]

    decoded = 0
    escapes = 0
    rel = 0
    while True:
        if rel >= region:
            # The chain ran off the region after a complete unit; the
            # caller resumes with a fresh (re-estimated) region there.
            return decoded, escapes, region_start + rel
        if not bool(good_ext[rel]):
            # Stall: the unit at `rel` needs the scalar path (a code past
            # the 16-bit window, or truncated by end-of-stream).
            _sync(reader, region_start + rel)
            emit_scalar()  # raises EndOfStreamError on truncation
            decoded += 1
            escapes += 1
            if decoded >= need:
                return decoded, escapes, reader._pos
            if bail is not None and bail(decoded, escapes):
                # Escape-dominated so far: stop mid-region so the caller
                # can hand the rest of the run to the table fallback
                # before a long region burns thousands of escapes.
                return decoded, escapes, reader._pos
            rel = reader._pos - region_start
            continue
        want = need - decoded
        if want <= _SEG:
            # Short chain: plain pointer doubling, stopping early as soon
            # as an appended block contains an invalid entry (the chain is
            # already cut before the block's end, longer jumps are wasted).
            known = np.array([rel], dtype=np.int64)
            k = 0
            while known.size < want:
                block = power(k)[known]
                known = np.concatenate([known, block])
                k += 1
                if not bool(good_ext[block].all()):
                    break
            known = known[:want]
        else:
            # Long chain: walk a stride-_SEG backbone with the capped top
            # power (absorbing sentinel stops the walk at the region edge
            # or at the first stalled unit), then expand every backbone
            # point into its _SEG-unit segment by doubling a matrix whose
            # rows are in-segment offsets -- column-major flattening
            # restores chain order.
            jump_seg = power(_SEG_LOG)
            segs = [rel]
            s = rel
            for _ in range((want + _SEG - 1) // _SEG - 1):
                s = int(jump_seg[s])
                if s >= region:
                    break
                segs.append(s)
            rows = np.array(segs, dtype=np.int64).reshape(1, -1)
            for k in range(_SEG_LOG):
                rows = np.concatenate([rows, power(k)[rows]])
            known = rows.T.reshape(-1)[:want]
        ok = good_ext[known]
        n_done = known.size if bool(ok.all()) else int(np.argmin(ok))
        done = known[:n_done]
        emit_vec(done)
        decoded += n_done
        rel = int(nxt_end[int(done[-1])])
        if decoded >= need:
            return decoded, escapes, region_start + rel


def decode_run(
    reader: BitReader,
    count: int,
    vals: Sequence[int],
    lens: Sequence[int],
    slow: Callable[[BitReader], int],
    delta: int = 0,
    fallback: Optional[Callable[[BitReader, int], List[int]]] = None,
) -> List[int]:
    """Decode ``count`` codes of one family; numpy mirror of the table kernel.

    ``vals``/``lens`` are the family's 16-bit decode tables, ``slow`` its
    scalar reader (the escape path), ``delta`` an offset applied to every
    decoded value (``-1`` for the ``*_natural`` wrappers).  ``fallback``,
    when given, decodes a remaining run through the table kernel (with
    ``delta`` already applied) and is used to bail out of escape-dominated
    runs.  The reader's cursor ends exactly after the last code, as with
    every other tier.
    """
    if count < 0:
        raise CodecDomainError(f"negative bulk read count: {count}")
    out: List[int] = []
    if count == 0:
        return out
    np_vals, np_lens = _np_table(vals, lens)
    data = reader._data
    nbits = reader._nbits
    pos = reader._pos
    need = count
    est = _EST_BITS_SINGLE
    escaped = 0

    def emit_scalar() -> None:
        out.append(slow(reader) + delta)

    def bail(decoded: int, escapes: int) -> bool:
        if fallback is None:
            return False
        done = count - need + decoded
        return done >= _BAIL_MIN_UNITS and (escaped + escapes) * 8 > done

    hook = kernels._checkpoint_hook
    while need:
        if hook is not None and need != count:
            # Region boundary: publish the cursor (so an interruption
            # leaves the reader between codes) and poll the active query
            # context, if any.
            _sync(reader, pos)
            hook(0)
        if pos >= nbits:
            _sync(reader, pos)
            emit_scalar()  # raises EndOfStreamError
            pos = reader._pos
            need -= 1
            continue
        region = _region_size(nbits, pos, need, est)
        if need == count:
            region = min(region, _PILOT_BITS)
        w16 = _window16(data, nbits, pos, region)
        end = np.take(np_lens, w16, out=_scratch("end", np.int64, region))
        end += _prel(region)
        succ_ext, good_ext = _extended(end, nbits - pos, region)

        def emit_vec(done: Any, w16: Any = w16) -> None:
            values = np_vals[w16[done]]
            if delta:
                values = values + delta
            out.extend(values.tolist())

        n_done, n_esc, new_pos = _decode_region(
            reader, pos, region, succ_ext, good_ext, end,
            emit_vec, emit_scalar, need, bail,
        )
        need -= n_done
        escaped += n_esc
        done_total = count - need
        if n_done:
            est = _next_est(new_pos - pos, n_done)
        pos = new_pos
        if (
            need
            and fallback is not None
            and done_total >= _BAIL_MIN_UNITS
            and escaped * 8 > done_total
        ):
            # Escape-dominated stream: the per-escape overhead would make
            # this tier lose to the plain table loop, so hand over to it.
            _sync(reader, pos)
            out.extend(fallback(reader, need))
            return out
    _sync(reader, pos)
    return out


def decode_run_pairs(
    reader: BitReader,
    count: int,
    vals_a: Sequence[int],
    lens_a: Sequence[int],
    slow_a: Callable[[BitReader], int],
    vals_b: Sequence[int],
    lens_b: Sequence[int],
    slow_b: Callable[[BitReader], int],
    delta: int = 0,
    fallback: Optional[
        Callable[[BitReader, int], Tuple[List[int], List[int]]]
    ] = None,
) -> Tuple[List[int], List[int]]:
    """Decode ``count`` interleaved (a, b) pairs; numpy pair-kernel mirror.

    The layout of interval-graph timestamp records: a gap code followed by
    a duration code, each with its own table.  ``delta`` applies to both
    outputs (the ``*_natural`` shift).  A pair is decoded as a unit: a
    stall on either half re-decodes the whole pair through the scalar
    escape, so the cursor never rests between the halves of an emitted
    pair.
    """
    if count < 0:
        raise CodecDomainError(f"negative bulk read count: {count}")
    out_a: List[int] = []
    out_b: List[int] = []
    if count == 0:
        return out_a, out_b
    np_vals_a, np_lens_a = _np_table(vals_a, lens_a)
    np_vals_b, np_lens_b = _np_table(vals_b, lens_b)
    data = reader._data
    nbits = reader._nbits
    pos = reader._pos
    need = count
    est = _EST_BITS_PAIR
    escaped = 0

    def emit_scalar() -> None:
        out_a.append(slow_a(reader) + delta)
        out_b.append(slow_b(reader) + delta)

    def bail(decoded: int, escapes: int) -> bool:
        if fallback is None:
            return False
        done = count - need + decoded
        return done >= _BAIL_MIN_UNITS and (escaped + escapes) * 8 > done

    hook = kernels._checkpoint_hook
    while need:
        if hook is not None and need != count:
            # Region boundary: publish the cursor (so an interruption
            # leaves the reader between codes) and poll the active query
            # context, if any.
            _sync(reader, pos)
            hook(0)
        if pos >= nbits:
            _sync(reader, pos)
            emit_scalar()  # raises EndOfStreamError
            pos = reader._pos
            need -= 1
            continue
        region = _region_size(nbits, pos, need, est)
        if need == count:
            region = min(region, _PILOT_BITS)
        w16 = _window16(data, nbits, pos, region)
        prel = _prel(region)
        # Where the b half starts; clamping to `region` also covers "a not
        # decodable here" (big sentinel length) and "a straddles the
        # region edge" -- the b tables are only materialised in-region.
        qa = np.take(np_lens_a, w16, out=_scratch("qa", np.int64, region))
        qa += prel
        np.minimum(qa, region, out=qa)
        b_end_ext = _scratch("bend", np.int64, region + 1)
        np.take(np_lens_b, w16, out=b_end_ext[:region])
        b_end_ext[:region] += prel
        b_end_ext[region] = _BIG_LEN
        # Unclamped pair end per position; big when either half is invalid.
        pair_end = np.take(b_end_ext, qa, out=_scratch("end", np.int64, region))
        succ_ext, good_ext = _extended(pair_end, nbits - pos, region)

        def emit_vec(done: Any, w16: Any = w16, qa: Any = qa) -> None:
            values_a = np_vals_a[w16[done]]
            values_b = np_vals_b[w16[qa[done]]]
            if delta:
                values_a = values_a + delta
                values_b = values_b + delta
            out_a.extend(values_a.tolist())
            out_b.extend(values_b.tolist())

        n_done, n_esc, new_pos = _decode_region(
            reader, pos, region, succ_ext, good_ext, pair_end,
            emit_vec, emit_scalar, need, bail,
        )
        need -= n_done
        escaped += n_esc
        done_total = count - need
        if n_done:
            est = _next_est(new_pos - pos, n_done)
        pos = new_pos
        if (
            need
            and fallback is not None
            and done_total >= _BAIL_MIN_UNITS
            and escaped * 8 > done_total
        ):
            _sync(reader, pos)
            rest_a, rest_b = fallback(reader, need)
            out_a.extend(rest_a)
            out_b.extend(rest_b)
            return out_a, out_b
    _sync(reader, pos)
    return out_a, out_b
