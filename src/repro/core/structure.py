"""Network-structure codec (Section IV-D of the paper).

Each node's label-sorted neighbor *multiset* is encoded as four blocks:

1. **Deduplication** (IV-D1, the paper's novel step): neighbors occurring
   more than once are pulled out as (label, count) pairs so the remainder is
   a plain set and WebGraph-style tricks apply.  Labels are gap-encoded
   (first gap relative to the node itself, Eq. (1) for the possible negative)
   and counts are stored as ``count - 2``; both in Elias gamma.
2. **Reference compression** (IV-D2): the remaining singles may be described
   as a subset of a previous node's distinct neighbor list via a copy list,
   itself stored as alternating run lengths ("blocks") with the final run
   implicit -- exactly the WebGraph layout.
3. **Intervalisation** (IV-D3): maximal runs of consecutive labels of length
   >= ``min_interval_length`` become (left extreme, length) pairs; gaps
   between intervals are reduced by 2 since maximal runs are separated by at
   least one missing label; lengths are stored relative to the minimum.
4. **Extra nodes** (IV-D4): whatever remains, gap-encoded and zeta_k-coded.

The worked example of Figure 5 is reproduced verbatim by the helper
functions (see ``tests/test_paper_examples.py``).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bits import codes, kernels
from repro.bits.bitio import BitReader, BitWriter
from repro.bits.zigzag import to_natural
from repro.core.config import ChronoGraphConfig
from repro.errors import LimitExceededError

DedupPair = Tuple[int, int]  # (label, occurrence count >= 2)
Interval = Tuple[int, int]  # (left extreme, length)


# --------------------------------------------------------------------------
# Analysis helpers (pure, also used by the Figure 5 paper-example tests)
# --------------------------------------------------------------------------

def split_duplicates(multiset: Sequence[int]) -> Tuple[List[DedupPair], List[int]]:
    """Separate a sorted neighbor multiset into dedup pairs and singles."""
    dedup: List[DedupPair] = []
    singles: List[int] = []
    i = 0
    n = len(multiset)
    while i < n:
        j = i
        while j < n and multiset[j] == multiset[i]:
            j += 1
        if j - i >= 2:
            dedup.append((multiset[i], j - i))
        else:
            singles.append(multiset[i])
        i = j
    return dedup, singles


def split_intervals(
    labels: Sequence[int], min_length: int
) -> Tuple[List[Interval], List[int]]:
    """Extract maximal runs of consecutive labels of length >= min_length."""
    intervals: List[Interval] = []
    extras: List[int] = []
    i = 0
    n = len(labels)
    while i < n:
        j = i
        while j + 1 < n and labels[j + 1] == labels[j] + 1:
            j += 1
        run = j - i + 1
        if run >= min_length:
            intervals.append((labels[i], run))
        else:
            extras.extend(labels[i : j + 1])
        i = j + 1
    return intervals, extras


def dedup_gap_pairs(node: int, dedup: Sequence[DedupPair]) -> List[Tuple[int, int]]:
    """The (gap, count - 2) pairs of Figure 5(b), before Eq. (1) mapping."""
    out: List[Tuple[int, int]] = []
    prev: Optional[int] = None
    for label, count in dedup:
        gap = label - node if prev is None else label - prev - 1
        out.append((gap, count - 2))
        prev = label
    return out


def interval_gap_pairs(
    node: int, intervals: Sequence[Interval], min_length: int
) -> List[Tuple[int, int]]:
    """The (gap, length - min) pairs of Figure 5(c), before Eq. (1) mapping."""
    out: List[Tuple[int, int]] = []
    prev_end: Optional[int] = None
    for left, length in intervals:
        if prev_end is None:
            gap = left - node
        else:
            gap = left - prev_end - 2
        out.append((gap, length - min_length))
        prev_end = left + length - 1
    return out


def extra_gaps(node: int, extras: Sequence[int]) -> List[int]:
    """The residual gaps of Figure 5(d), before Eq. (1) mapping."""
    out: List[int] = []
    prev: Optional[int] = None
    for label in extras:
        out.append(label - node if prev is None else label - prev - 1)
        prev = label
    return out


def copy_blocks(reference_list: Sequence[int], copied: Sequence[int]) -> List[int]:
    """Split the copy bitmap into alternating run lengths, first run of 1s.

    The returned list omits the final run (it is implied by the reference
    list length); the first entry may be 0 when the bitmap starts with a 0.
    """
    copied_set = set(copied)
    bits = [1 if x in copied_set else 0 for x in reference_list]
    runs: List[int] = []
    if bits:
        if bits[0] == 0:
            runs.append(0)  # empty leading run of 1s keeps the alternation
        i = 0
        n = len(bits)
        while i < n:
            j = i
            while j < n and bits[j] == bits[i]:
                j += 1
            runs.append(j - i)
            i = j
        runs.pop()  # final run is implicit
    return runs


def expand_copy_blocks(
    reference_list: Sequence[int], runs: Sequence[int]
) -> List[int]:
    """Inverse of :func:`copy_blocks`: recover the copied labels."""
    out: List[int] = []
    pos = 0
    value = 1
    for run in runs:
        if value:
            out.extend(reference_list[pos : pos + run])
        pos += run
        value ^= 1
    if value:
        out.extend(reference_list[pos:])
    return out


# --------------------------------------------------------------------------
# Encoding
# --------------------------------------------------------------------------

def encode_node_structure(
    writer: BitWriter,
    node: int,
    multiset: Sequence[int],
    previous_distinct: Dict[int, List[int]],
    ref_depth: Dict[int, int],
    config: ChronoGraphConfig,
) -> None:
    """Append node's structure record; updates the reference bookkeeping.

    ``previous_distinct`` maps already-encoded nodes to their distinct
    neighbor lists (the reference targets); ``ref_depth`` tracks chain
    depths so ``max_ref_chain`` can be enforced at compression time.

    Every candidate is sized in one pass (:func:`candidate_bits`), bounded
    by the smallest size so far; only the winner's codes are built
    (:func:`singles_codes`) and written.  ``multiset`` is only read.
    """
    dedup, singles = split_duplicates(multiset)

    best_ref = 0
    best_list: Sequence[int] = ()
    best_len = candidate_bits(node, singles, None, config)
    best_depth = 0
    single_set = set(singles)
    for r in range(1, config.window + 1):
        v = node - r
        if v < 0:
            break
        reference_list = previous_distinct.get(v)
        if not reference_list:
            continue
        depth = ref_depth.get(v, 0) + 1
        if config.max_ref_chain is not None and depth > config.max_ref_chain:
            continue
        if single_set.isdisjoint(reference_list):
            continue  # nothing to copy; the no-reference encoding wins
        # Only a strictly smaller size wins, and a size only grows while
        # it is summed, so sizing stops once it reaches the best so far.
        size = candidate_bits(node, singles, (r, reference_list), config, best_len)
        if size < best_len:
            best_len = size
            best_ref = r
            best_list = reference_list
            best_depth = depth

    best = singles_codes(
        node, singles, (best_ref, best_list) if best_ref else None, config
    )
    write_structure_record(writer, node, dedup, best, config.structure_zeta_k)

    previous_distinct[node] = sorted(set(multiset))
    ref_depth[node] = best_depth if best_ref else 0


def candidate_bits(
    node: int,
    singles: Sequence[int],
    reference: Optional[Tuple[int, Sequence[int]]],
    config: ChronoGraphConfig,
    bound: float = math.inf,
) -> int:
    """Bit size of one candidate's blocks, in one pass, without its codes.

    Equals ``singles_bits(singles_codes(node, singles, reference, config),
    config.structure_zeta_k)``.  The reference list and the singles, both
    label-sorted, are walked together: each reference label extends or
    closes a copy run, and each single the reference lacks joins the rest.
    The rest is then walked once, each maximal run of consecutive labels
    closing as an interval or as extra nodes.  The size only grows along
    the way, so once it reaches ``bound`` the walk stops and returns it:
    such a candidate cannot be strictly smaller than the one that set the
    bound.
    """
    rest: Sequence[int]
    if reference is None:
        bits = 1  # gamma(0): no reference
        rest = singles
    else:
        r, reference_list = reference
        bits = 2 * (r + 1).bit_length() - 1
        uncopied: List[int] = []
        add_rest = uncopied.append
        n = len(singles)
        i = 0
        runs = 0  # copy runs closed (hence coded) so far
        copying = True  # the first run copies, and may be empty
        run = 0
        for x in reference_list:
            while i < n and singles[i] < x:
                add_rest(singles[i])
                i += 1
            if i < n and singles[i] == x:
                i += 1
                if copying:
                    run += 1
                    continue
            elif not copying:
                run += 1
                continue
            # The bitmap flips at x: the current run closes.  The first
            # run is coded as is, every later one minus one.
            bits += 2 * (run + (runs == 0)).bit_length() - 1
            if bits >= bound:
                return bits
            runs += 1
            copying = not copying
            run = 1
        uncopied += singles[i:]
        rest = uncopied
        bits += 2 * (runs + 1).bit_length() - 1  # the last run is implicit
    if bits >= bound:
        return bits
    min_length = config.min_interval_length
    widths: List[int] = []
    if rest:
        # Covers every code: the first gap folds to at most 2 * max(label,
        # node), and later gaps are smaller than the largest label.
        top = max(rest[-1], node)
        widths = codes.zeta_widths(config.structure_zeta_k, (2 * top + 1).bit_length())
    m = len(rest)
    intervals = extras = 0
    prev_end = prev_extra = 0
    j = 0
    while j < m:
        left = rest[j]
        e = j + 1
        while e < m and rest[e] == left + e - j:
            e += 1
        if e - j >= min_length:
            if intervals:
                gap = left - prev_end - 2
            else:
                gap = left - node
                gap = gap << 1 if gap >= 0 else ~(gap << 1)  # Eq. (1)
            bits += (
                2 * (gap + 1).bit_length()
                + 2 * (e - j - min_length + 1).bit_length()
                - 2
            )
            intervals += 1
            prev_end = rest[e - 1]
        else:
            for label in rest[j:e]:
                if extras:
                    gap = label - prev_extra - 1
                else:
                    gap = label - node
                    gap = gap << 1 if gap >= 0 else ~(gap << 1)  # Eq. (1)
                bits += widths[(gap + 1).bit_length()]
                extras += 1
                prev_extra = label
        if bits >= bound:
            return bits
        j = e
    return bits + 2 * (intervals + 1).bit_length() + 2 * (extras + 1).bit_length() - 2


#: One reference candidate's codes in stream order: the gamma-coded
#: naturals, then the zeta-coded extra-node gaps.
SinglesCodes = Tuple[List[int], List[int]]


def singles_codes(
    node: int,
    singles: Sequence[int],
    reference: Optional[Tuple[int, Sequence[int]]],
    config: ChronoGraphConfig,
) -> SinglesCodes:
    """The reference, interval and extra blocks of one candidate, as codes.

    Returns ``(gammas, zetas)``: the gamma-coded naturals in stream order
    (reference, copy runs, intervals, extra count) and the zeta-coded extra
    gaps.  Signed first gaps are already folded with Eq. (1).  The encoder
    sizes candidates with :func:`candidate_bits` and builds this list only
    for the winner, which :func:`write_structure_record` writes;
    :func:`singles_bits` sizes it.
    """
    if reference is None:
        gammas = [0]
        rest = singles
    else:
        r, reference_list = reference
        ref_set = set(reference_list)
        copied = [x for x in singles if x in ref_set]
        rest = [x for x in singles if x not in ref_set]
        runs = copy_blocks(reference_list, copied)
        gammas = [r, len(runs)]
        if runs:
            gammas.append(runs[0])
            gammas.extend([run - 1 for run in runs[1:]])
    min_length = config.min_interval_length
    intervals, extras = split_intervals(rest, min_length)
    gammas.append(len(intervals))
    for i, (gap, extra_len) in enumerate(
        interval_gap_pairs(node, intervals, min_length)
    ):
        gammas.append(to_natural(gap) if i == 0 else gap)
        gammas.append(extra_len)
    gammas.append(len(extras))
    zetas = extra_gaps(node, extras)
    if zetas:
        zetas[0] = to_natural(zetas[0])
    return gammas, zetas


def singles_bits(candidate: SinglesCodes, structure_zeta_k: int) -> int:
    """Bit size of a candidate's blocks, without writing them."""
    gammas, zetas = candidate
    return codes.size_many_gamma_natural(gammas) + codes.size_many_zeta_natural(
        zetas, structure_zeta_k
    )


def _dedup_codes(node: int, dedup: Sequence[DedupPair]) -> List[int]:
    """The gamma-coded naturals of the deduplication block, in stream order."""
    out = [len(dedup)]
    for i, (gap, extra_count) in enumerate(dedup_gap_pairs(node, dedup)):
        out.append(to_natural(gap) if i == 0 else gap)
        out.append(extra_count)
    return out


def write_structure_record(
    writer: BitWriter,
    node: int,
    dedup: Sequence[DedupPair],
    candidate: SinglesCodes,
    structure_zeta_k: int,
) -> None:
    """Write one node's structure record: two bulk calls.

    The encoder ends every node here, with the chosen candidate's codes
    from :func:`singles_codes`.
    """
    gammas, zetas = candidate
    codes.write_many_gamma_natural(writer, _dedup_codes(node, dedup) + gammas)
    codes.write_many_zeta_natural(writer, zetas, structure_zeta_k)


# --------------------------------------------------------------------------
# Decoding
# --------------------------------------------------------------------------

def decode_node_structure(
    reader: BitReader,
    node: int,
    resolve_distinct: Callable[[int], List[int]],
    config: ChronoGraphConfig,
    limit: Optional[int] = None,
) -> Tuple[List[DedupPair], List[int]]:
    """Decode one structure record positioned at the reader's cursor.

    ``resolve_distinct(v)`` must return the distinct neighbor list of the
    (already encoded, hence decodable) node ``v``; it is called when the
    record carries a reference.  Returns ``(dedup_pairs, singles)``; the
    singles are label-sorted, in a new list the caller owns.

    ``limit`` bounds the total number of neighbor labels the record may
    expand to (a valid record never exceeds the graph's contact count); a
    corrupt count or interval length that would breach it raises
    :class:`repro.errors.LimitExceededError` *before* any proportional
    allocation, so a flipped bit cannot trigger a multi-gigabyte list.

    One pass over the record's bits, on the 16-bit table loop of
    :mod:`repro.bits.codes`: block counts go through ``table_step``, and
    each block's codes turn straight into what the block means -- dedup
    (label, count) pairs, copied slices of the reference list, interval
    extremes, extra-node labels.  Each block charges its guaranteed
    minimum expansion before its loop and the rest after it, before
    anything is expanded, so the charges fail exactly where they would
    after a full decode of the block.  The singles are sorted only when
    more than one block contributes labels; each block alone is sorted.
    """
    budget = limit

    def charge(n: int) -> None:
        nonlocal budget
        if budget is None:
            return
        budget -= n
        if budget < 0:
            raise LimitExceededError(
                f"node {node}: structure record expands past {limit} labels"
            )

    hook = kernels._checkpoint_hook
    step = codes.table_step
    strides = codes.strides
    vals, lens = codes.gamma_table()

    dedup: List[DedupPair] = []
    count, word, wbits, end = step(reader, 0, 0, reader.position, vals, lens, 1)
    if count:
        charge(2 * count)  # every dedup pair expands to >= 2 labels
        chunks = strides(hook, count, 2)
        gap, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
        extra, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
        label = node + ((gap >> 1) ^ -(gap & 1))  # Eq. (1) first gap
        dedup.append((label, extra + 2))
        add_pair = dedup.append
        for chunk in chunks:
            for _ in range(chunk):
                w = word >> wbits & 0xFFFF
                n = lens[w]
                if n <= wbits:
                    wbits -= n
                    gap = vals[w]
                else:
                    gap, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
                w = word >> wbits & 0xFFFF
                n = lens[w]
                if n <= wbits:
                    wbits -= n
                    x = vals[w]
                else:
                    x, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
                label += gap + 1
                add_pair((label, x + 2))
                extra += x
        charge(extra)

    copied: List[int] = []
    r, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
    if r:
        run_count, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
        reference_list = resolve_distinct(node - r)
        # A valid copy-block list never has more runs than the reference
        # has distinct neighbors; checking before the runs are decoded
        # keeps the work proportional to the reference, not to a corrupt
        # count.
        if run_count > len(reference_list) + 1:
            raise LimitExceededError(
                f"node {node}: {run_count} copy runs against a reference "
                f"with {len(reference_list)} distinct neighbors"
            )
        # Runs alternate copy / skip, starting with a copy run that may be
        # empty; every later run is stored minus one, and the run after
        # the last is implicit (the rest of the reference).
        at = 0
        copying = True
        if run_count:
            chunks = strides(hook, run_count)
            at, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
            copied = reference_list[:at]
            copying = False
            for chunk in chunks:
                for _ in range(chunk):
                    w = word >> wbits & 0xFFFF
                    n = lens[w]
                    if n <= wbits:
                        wbits -= n
                        x = vals[w]
                    else:
                        x, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
                    if copying:
                        copied += reference_list[at : at + x + 1]
                    at += x + 1
                    copying = not copying
        if copying:
            copied += reference_list[at:]
        charge(len(copied))

    intervals: List[int] = []
    count, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
    if count:
        min_length = config.min_interval_length
        charge(count * min_length)
        chunks = strides(hook, count, 2)
        gap, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
        extra, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
        left = node + ((gap >> 1) ^ -(gap & 1))  # Eq. (1) first gap
        right = left + extra + min_length  # one past the interval's end
        extremes = [left, right]
        add_extreme = extremes.append
        for chunk in chunks:
            for _ in range(chunk):
                w = word >> wbits & 0xFFFF
                n = lens[w]
                if n <= wbits:
                    wbits -= n
                    gap = vals[w]
                else:
                    gap, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
                w = word >> wbits & 0xFFFF
                n = lens[w]
                if n <= wbits:
                    wbits -= n
                    x = vals[w]
                else:
                    x, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
                # Stored gaps are minus 2: maximal runs are at least one
                # label apart.
                left = right + gap + 1
                right = left + x + min_length
                add_extreme(left)
                add_extreme(right)
                extra += x
        charge(extra)
        for i in range(0, 2 * count, 2):
            intervals += range(extremes[i], extremes[i + 1])

    extras: List[int] = []
    count, word, wbits, end = step(reader, word, wbits, end, vals, lens, 1)
    charge(count)
    if count:
        k = config.structure_zeta_k
        zvals, zlens = codes.zeta_table(k)
        chunks = strides(hook, count)
        x, word, wbits, end = step(reader, word, wbits, end, zvals, zlens, k)
        label = node + ((x >> 1) ^ -(x & 1))  # Eq. (1) first gap
        extras.append(label)
        add_label = extras.append
        for chunk in chunks:
            for _ in range(chunk):
                w = word >> wbits & 0xFFFF
                n = zlens[w]
                if n <= wbits:
                    wbits -= n
                    label += zvals[w] + 1
                else:
                    x, word, wbits, end = step(reader, word, wbits, end, zvals, zlens, k)
                    label += x + 1
                add_label(label)
    reader.seek(end - wbits)

    if copied:
        if intervals or extras:
            return dedup, sorted(copied + intervals + extras)
        return dedup, copied
    if intervals and extras:
        return dedup, sorted(intervals + extras)
    return dedup, intervals or extras


def multiset_from_parts(dedup: Sequence[DedupPair], singles: Sequence[int]) -> List[int]:
    """Rebuild the label-sorted neighbor multiset from decoded parts.

    ``singles`` must be label-sorted, as :func:`decode_node_structure`
    returns them; only duplicates need a sort.  The result is a new list
    sized to its contents.
    """
    expanded = list(singles)
    if dedup:
        for label, count in dedup:
            expanded.extend([label] * count)
        expanded.sort()
    return expanded
