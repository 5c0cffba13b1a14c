"""Zero-value audit of the zeta call sites, pinned at the code boundaries.

``write_zeta`` is defined for x >= 1 and raises on 0, so every call site
that can legitimately produce a zero must go through the ``+1``-shifted
natural wrapper (``write_zeta_natural``) or the zigzag integer wrapper
(``write_zeta_integer``).  The zero cases that occur in real encodes:

* the first timestamp gap ``t - t_min`` is 0 whenever a node's first
  contact happens at the global minimum;
* consecutive-contact gaps collapse to 0 when aggregation buckets two
  timestamps into the same unit (and go negative when a smaller timestamp
  follows under a different neighbor label -- the Eq. (1) zigzag case);
* interval durations of 0 are written verbatim by the natural wrapper;
* residual structure gaps of 0 occur for adjacent labels.

These tests pin the wrappers at 0, 1 and every ``2**k`` boundary, the
raising contract of the raw code, and the agreement between the writers
and the closed-form sizing used by the zeta auto-selection sweep.
"""

import pytest

from repro.bits import codes
from repro.bits.bitio import BitReader, BitWriter
from repro.core import compress
from repro.core.timestamps import encode_node_timestamps, timestamp_naturals
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind

KS = [1, 2, 3, 5, 7]

#: 0, 1 and every power-of-two boundary (the code-block edges): values where
#: an off-by-one in the +1 shift changes the codeword length.
BOUNDARY_VALUES = sorted(
    {0, 1}
    | {2**k for k in range(1, 20)}
    | {2**k - 1 for k in range(1, 20)}
    | {2**k + 1 for k in range(1, 20)}
)


class TestRawZetaContract:
    @pytest.mark.parametrize("k", KS)
    def test_write_zeta_raises_on_zero(self, k):
        with pytest.raises(ValueError):
            codes.write_zeta(BitWriter(), 0, k)

    @pytest.mark.parametrize("k", KS)
    def test_write_zeta_raises_on_negative(self, k):
        with pytest.raises(ValueError):
            codes.write_zeta(BitWriter(), -3, k)

    @pytest.mark.parametrize("k", KS)
    def test_positive_round_trip_at_boundaries(self, k):
        values = [v for v in BOUNDARY_VALUES if v >= 1]
        w = BitWriter()
        for v in values:
            codes.write_zeta(w, v, k)
        r = BitReader(w.to_bytes(), len(w))
        assert [codes.read_zeta(r, k) for _ in values] == values


class TestNaturalShift:
    @pytest.mark.parametrize("k", KS)
    def test_round_trip_including_zero(self, k):
        w = BitWriter()
        for v in BOUNDARY_VALUES:
            codes.write_zeta_natural(w, v, k)
        r = BitReader(w.to_bytes(), len(w))
        got = [codes.read_zeta_natural(r, k) for _ in BOUNDARY_VALUES]
        assert got == BOUNDARY_VALUES

    @pytest.mark.parametrize("k", KS)
    def test_bulk_reader_agrees(self, k):
        w = BitWriter()
        for v in BOUNDARY_VALUES:
            codes.write_zeta_natural(w, v, k)
        r = BitReader(w.to_bytes(), len(w))
        assert (
            codes.read_many_zeta_natural(r, len(BOUNDARY_VALUES), k)
            == BOUNDARY_VALUES
        )

    @pytest.mark.parametrize("k", KS)
    def test_natural_length_is_shifted_zeta_length(self, k):
        for v in BOUNDARY_VALUES:
            w = BitWriter()
            written = codes.write_zeta_natural(w, v, k)
            assert written == len(w) == codes.zeta_length(v + 1, k)


class TestIntegerZigzag:
    @pytest.mark.parametrize("k", KS)
    def test_round_trip_zero_and_negatives(self, k):
        values = sorted({0, 1, -1} | {s * v for v in BOUNDARY_VALUES for s in (1, -1)})
        w = BitWriter()
        for v in values:
            codes.write_zeta_integer(w, v, k)
        r = BitReader(w.to_bytes(), len(w))
        assert [codes.read_zeta_integer(r, k) for _ in values] == values


class TestTimestampCallSites:
    def test_first_gap_zero_at_global_minimum(self):
        # Node 0's first contact at t_min makes the very first gap 0.
        w = BitWriter()
        encode_node_timestamps(w, [100, 100, 107], None, 100, 3, 3)
        r = BitReader(w.to_bytes(), len(w))
        from repro.core.timestamps import decode_node_timestamps

        times, durations = decode_node_timestamps(r, 3, False, 100, 3, 3)
        assert times == [100, 100, 107]
        assert durations is None

    def test_negative_gap_after_label_change(self):
        # (v=1, t=500) then (v=2, t=10): the second gap is negative, the
        # Eq. (1) zigzag case; a raw zeta writer would raise here.
        w = BitWriter()
        encode_node_timestamps(w, [500, 10], None, 10, 4, 4)
        r = BitReader(w.to_bytes(), len(w))
        from repro.core.timestamps import decode_node_timestamps

        times, _ = decode_node_timestamps(r, 2, False, 10, 4, 4)
        assert times == [500, 10]

    def test_zero_duration_intervals(self):
        w = BitWriter()
        encode_node_timestamps(w, [5, 5, 5], [0, 1, 0], 5, 2, 2)
        r = BitReader(w.to_bytes(), len(w))
        from repro.core.timestamps import decode_node_timestamps

        times, durations = decode_node_timestamps(r, 3, True, 5, 2, 2)
        assert times == [5, 5, 5]
        assert durations == [0, 1, 0]

    @pytest.mark.parametrize("k", KS)
    def test_closed_form_sizing_matches_writer(self, k):
        # The zeta auto-selection sweep sizes streams with the closed form;
        # if it disagreed with the writer, compress() would pick a k it
        # then encodes at a different cost.
        cases = [
            [7],
            [7, 7, 7],
            [7, 9, 9, 3, 3, 100],
            [0, 0, 2**10, 2**10 - 1, 5],
        ]
        for times in cases:
            t_min = min(times)
            w = BitWriter()
            encode_node_timestamps(w, times, None, t_min, k, k)
            naturals = timestamp_naturals(times, t_min)
            assert len(w) == sum(
                codes.zeta_length_from_bits((n + 1).bit_length(), k)
                for n in naturals
            )

    def test_aggregation_collapsed_timestamps_round_trip(self):
        # resolution=10 buckets 101..109 into one unit: repeated equal
        # timestamps (gap 0) must survive the full cycle.
        from repro.core import ChronoGraphConfig

        contacts = [(0, 1, 101), (0, 1, 105), (0, 2, 109), (1, 0, 120)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=3)
        cg = compress(g, ChronoGraphConfig(resolution=10))
        assert cg.edge_timestamps(0, 1) == [10, 10]
        assert cg.edge_timestamps(0, 2) == [10]
        assert cg.edge_timestamps(1, 0) == [12]


class TestStructureCallSites:
    def test_adjacent_labels_zero_residual_gap(self):
        # Neighbors [5, 6] of node 5: the second residual gap is
        # 6 - 5 - 1 = 0 and must take the natural (shifted) writer.  Use
        # labels too sparse to intervalise so they stay residuals.
        contacts = [(5, 5, 1), (5, 6, 2), (5, 9, 3)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=10)
        cg = compress(g)
        assert cg.decode_multiset(5) == [5, 6, 9]

    def test_first_residual_negative_gap(self):
        # First residual label smaller than the node id: gap < 0, the
        # zigzagged first-gap case of Figure 5(d).
        contacts = [(7, 0, 1), (7, 9, 2)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=10)
        cg = compress(g)
        assert cg.decode_multiset(7) == [0, 9]
