"""Fault-injection campaigns over the VERSION 2 container.

The acceptance contract: across systematic mutations of valid containers
for all three graph kinds, zero exceptions escape the ``FormatError``
hierarchy, zero mutations exceed the per-mutation time budget, and zero
decode silently to a different graph.  Salvage-mode loading must never
raise at all.
"""

import random

import pytest

from repro.core import compress
from repro.core.serialize import dumps_compressed
from repro.errors import FormatError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.testing import (
    bit_flip_mutations,
    default_mutations,
    extend_mutations,
    random_region_mutations,
    run_fault_injection,
    section_shuffle_mutations,
    truncate_mutations,
)


def _container(kind, seed=1, n=12, m=60):
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(1000),
            rng.randrange(1, 30) if kind is GraphKind.INTERVAL else 0,
        )
        for _ in range(m)
    ]
    return dumps_compressed(compress(graph_from_contacts(kind, rows, num_nodes=n)))


class TestMutators:
    def test_bit_flips_cover_whole_container(self):
        blob = _container(GraphKind.POINT)
        flips = list(bit_flip_mutations(blob, stride_bits=8))
        assert len(flips) == len(blob)
        assert all(len(m.data) == len(blob) for m in flips)
        assert all(m.data != blob for m in flips)

    def test_truncations_are_strict_prefixes(self):
        blob = _container(GraphKind.POINT)
        for m in truncate_mutations(blob):
            assert len(m.data) < len(blob)
            assert blob.startswith(m.data)

    def test_extensions_preserve_prefix(self):
        blob = _container(GraphKind.POINT)
        for m in extend_mutations(blob):
            assert len(m.data) > len(blob)
            assert m.data.startswith(blob)

    def test_section_shuffles_exist_for_v2(self):
        blob = _container(GraphKind.POINT)
        shuffles = list(section_shuffle_mutations(blob))
        assert len(shuffles) == 4
        assert all(len(m.data) == len(blob) for m in shuffles)

    def test_section_shuffle_of_garbage_yields_nothing(self):
        assert list(section_shuffle_mutations(b"not a container")) == []

    def test_random_regions_are_deterministic(self):
        blob = _container(GraphKind.POINT)
        a = [m.data for m in random_region_mutations(blob, seed=3, count=10)]
        b = [m.data for m in random_region_mutations(blob, seed=3, count=10)]
        assert a == b


class TestCampaign:
    """The headline acceptance campaign: >=1000 mutations, three kinds."""

    @pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
    def test_no_escape_no_mismatch_no_hang(self, kind):
        blob = _container(kind)
        report = run_fault_injection(
            blob,
            default_mutations(blob, stride_bits=8),
            time_budget=5.0,
        )
        # ~400+ mutations per kind; three kinds clear 1000 combined.
        assert report.total >= 340, report.total
        assert report.ok, report.summary()
        # A campaign that detected nothing would mean the mutators are
        # broken, not that the format is bulletproof.
        assert report.detected > report.total // 2

    def test_exhaustive_bit_flips_point_kind(self):
        blob = _container(GraphKind.POINT, n=8, m=30)
        report = run_fault_injection(
            blob, bit_flip_mutations(blob, stride_bits=1), time_budget=5.0
        )
        assert report.total == 8 * len(blob)
        assert report.ok, report.summary()

    def test_report_summary_mentions_counts(self):
        blob = _container(GraphKind.POINT, n=6, m=20)
        report = run_fault_injection(
            blob, truncate_mutations(blob, steps=8), time_budget=5.0
        )
        assert "mutations" in report.summary()
        assert report.total > 0


class TestSmoke:
    """Fast job for CI: a bounded slice of the default campaign."""

    def test_smoke_200_mutations(self):
        blob = _container(GraphKind.POINT, n=10, m=40)
        mutations = []
        for m in default_mutations(blob, stride_bits=16):
            mutations.append(m)
            if len(mutations) >= 200:
                break
        report = run_fault_injection(blob, mutations, time_budget=5.0)
        assert report.ok, report.summary()


class TestHarnessClassification:
    def test_pristine_container_counts_identical(self):
        blob = _container(GraphKind.POINT)
        from repro.testing.faults import Mutation

        report = run_fault_injection(
            blob, [Mutation("noop", blob)], time_budget=5.0
        )
        assert report.identical == 1 and report.ok

    def test_baseline_must_be_valid(self):
        with pytest.raises(FormatError):
            run_fault_injection(b"garbage", [], time_budget=5.0)


class TestSalvageOffsets:
    """Salvage errors localise the damage to a byte offset in the blob."""

    def _salvage(self, blob):
        from repro.core.serialize import salvage_bytes

        return salvage_bytes(blob)

    def test_corrupt_final_section_reports_its_byte_offset(self):
        from repro.testing.faults import _v2_section_spans

        blob = _container(GraphKind.POINT)
        spans = _v2_section_spans(blob)
        assert spans is not None
        start, end = spans[-1]  # the timestamp-offsets section
        corrupted = bytearray(blob)
        corrupted[start + 9] ^= 0xFF  # first payload byte: CRC must fail
        report = self._salvage(bytes(corrupted))
        assert not report.ok
        message = " ".join(report.errors)
        assert "timestamp offsets" in message
        assert f"at byte {start}" in message
        # Damage confined to the last section: the structure prefix and a
        # (possibly empty) run of nodes still decode.
        assert report.graph is not None

    def test_truncated_final_section_reports_offset_of_clip(self):
        from repro.testing.faults import _v2_section_spans

        blob = _container(GraphKind.POINT)
        spans = _v2_section_spans(blob)
        start, end = spans[-1]
        report = self._salvage(blob[: end - 2])  # clip inside the final CRC
        assert not report.ok
        message = " ".join(report.errors)
        assert "timestamp offsets" in message
        assert f"at byte {start}" in message

    def test_missing_final_section_header_reports_offset(self):
        from repro.testing.faults import _v2_section_spans

        blob = _container(GraphKind.POINT)
        spans = _v2_section_spans(blob)
        start, _end = spans[-1]
        report = self._salvage(blob[: start + 3])  # tear inside the header
        assert not report.ok
        assert any(
            "section header missing" in err and f"at byte {start}" in err
            for err in report.errors
        )

    def test_intact_container_reports_no_offsets(self):
        report = self._salvage(_container(GraphKind.POINT))
        assert report.ok and report.errors == []
