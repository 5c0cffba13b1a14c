"""Unit tests for the timestamp codec and compressor configuration."""

import pytest
from hypothesis import given, strategies as st

from repro.bits import codes
from repro.bits.bitio import BitReader, BitWriter
from repro.core.config import ChronoGraphConfig
from repro.core.timestamps import (
    decode_node_timestamps,
    encode_node_timestamps,
    timestamp_gaps,
    timestamp_naturals,
)


class TestGapSequence:
    def test_empty(self):
        assert timestamp_gaps([], 0) == []

    def test_first_gap_from_global_minimum(self):
        assert timestamp_gaps([100, 150, 120], 40) == [60, 50, -30]


class TestCodec:
    def _roundtrip(self, times, durations=None, t_min=0, k=4):
        w = BitWriter()
        encode_node_timestamps(w, times, durations, t_min, k)
        r = BitReader(w.to_bytes(), len(w))
        return decode_node_timestamps(r, len(times), durations is not None, t_min, k)

    def test_roundtrip_basic(self):
        times = [100, 150, 120, 5000, 4999]
        decoded, durations = self._roundtrip(times, t_min=50)
        assert decoded == times
        assert durations is None

    def test_roundtrip_with_durations(self):
        times = [10, 30, 20]
        durs = [5, 0, 100]
        decoded, durations = self._roundtrip(times, durs)
        assert decoded == times
        assert durations == durs

    def test_rejects_timestamp_below_minimum(self):
        with pytest.raises(ValueError):
            encode_node_timestamps(BitWriter(), [5], None, t_min=10, zeta_k=3)

    def test_rejects_misaligned_durations(self):
        with pytest.raises(ValueError):
            encode_node_timestamps(BitWriter(), [5, 6], [1], t_min=0, zeta_k=3)

    def test_empty_record(self):
        w = BitWriter()
        encode_node_timestamps(w, [], None, 0, 4)
        assert len(w) == 0

    def test_size_estimator_matches_encoder(self):
        # The zeta_k sweep sizes timestamp_naturals() in closed form; the
        # record must cost exactly that, code by code.
        times = [100, 150, 120, 99_000, 98_999, 98_999]
        naturals = timestamp_naturals(times, 50)
        assert naturals == [50, 100, 59, 197_760, 1, 0]
        for k in range(2, 8):
            w = BitWriter()
            encode_node_timestamps(w, times, None, 50, k)
            assert len(w) == codes.size_many_zeta_natural(naturals, k)
            assert len(w) == sum(codes.zeta_length(n + 1, k) for n in naturals)

    def test_size_estimator_with_durations(self):
        times = [10, 20]
        durs = [3, 700]
        w = BitWriter()
        encode_node_timestamps(w, times, durs, 0, 3)
        assert len(w) == (
            codes.size_many_zeta_natural(timestamp_naturals(times, 0), 3)
            + codes.size_many_zeta_natural(durs, 3)
        )

    @given(
        st.lists(st.integers(0, 10**9), max_size=60),
        st.integers(2, 7),
    )
    def test_property_roundtrip(self, times, k):
        t_min = min(times, default=0)
        decoded, _ = self._roundtrip(times, t_min=t_min, k=k)
        assert decoded == times


class TestConfigValidation:
    def test_defaults_match_paper(self):
        cfg = ChronoGraphConfig()
        assert cfg.window == 7
        assert cfg.min_interval_length == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": -1},
            {"min_interval_length": 1},
            {"max_ref_chain": -2},
            {"timestamp_zeta_k": 0},
            {"structure_zeta_k": 17},
            {"resolution": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ChronoGraphConfig(**kwargs)

    def test_frozen(self):
        cfg = ChronoGraphConfig()
        with pytest.raises(Exception):
            cfg.window = 3
