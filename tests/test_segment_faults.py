"""End-to-end fault matrices for the segmented store.

Two exhaustive sweeps prove the robustness contract:

* the **crash matrix** kills the whole lifecycle (create -> ingest ->
  seal -> compact -> swap -> delete) at every filesystem operation and
  requires the reopened store to serve a bit-identical prefix of the
  committed batches -- never fabricated or reordered contacts;
* the **mutation campaigns** corrupt the manifest frame and segment
  payloads byte-by-byte (plus CRC-valid field lies) and require every
  open to either refuse, serve identical answers, or quarantine the
  damage -- never answer silently wrong.
"""

import pytest

from repro.graph.model import GraphKind
from repro.storage.segments import MANIFEST_NAME, SegmentStore, StorePolicy
from repro.testing import (
    default_manifest_mutations,
    default_mutations,
    manifest_field_mutations,
    run_segment_crash_matrix,
    run_segment_store_fault_injection,
)

POLICY = StorePolicy(seal_contacts=6, max_segments=2, backpressure_contacts=4096)


def _batches(kind, count=4, per_batch=7):
    d = 3 if kind is GraphKind.INTERVAL else 0
    return [
        [
            (i % 7, (i + 1 + b) % 7, (b * 50 + i * 11) % 200, d)
            for i in range(per_batch)
        ]
        for b in range(count)
    ]


class TestCrashMatrix:
    @pytest.mark.parametrize(
        "kind", [GraphKind.POINT, GraphKind.INTERVAL, GraphKind.INCREMENTAL]
    )
    def test_full_lifecycle_survives_every_crash_point(self, tmp_path, kind):
        report = run_segment_crash_matrix(tmp_path / "m", _batches(kind), kind=kind)
        assert report.ok, report.summary()
        assert report.total >= 20  # the lifecycle has many durable steps
        assert report.identical + report.detected == report.total

    def test_torn_final_write_is_also_covered(self, tmp_path):
        report = run_segment_crash_matrix(
            tmp_path / "m", _batches(GraphKind.POINT), kind=GraphKind.POINT,
            partial_bytes=3,
        )
        assert report.ok, report.summary()

    def test_report_counts_crash_points(self, tmp_path):
        report = run_segment_crash_matrix(
            tmp_path / "m", _batches(GraphKind.POINT, count=1, per_batch=3),
            kind=GraphKind.POINT,
        )
        summary = report.summary()
        assert summary.startswith(f"{report.total} crash points: ")
        assert "mutations" not in summary


def _built(tmp_path, kind=GraphKind.POINT):
    store = SegmentStore.create(tmp_path / "s", kind, policy=POLICY)
    for batch in _batches(kind, count=5):
        store.ingest(batch)
    store.ingest([(0, 1, 190, 3 if kind is GraphKind.INTERVAL else 0)])
    assert store.graph.segment_count >= 2 and store.tail_size > 0
    store.close()
    return tmp_path / "s"


class TestManifestCampaign:
    def test_field_lies_are_generated(self, tmp_path):
        directory = _built(tmp_path)
        baseline = (directory / MANIFEST_NAME).read_bytes()
        lies = list(manifest_field_mutations(baseline))
        assert len(lies) == 11
        assert len({m.name for m in lies}) == len(lies)
        # Each lie re-seals the CRC: the frame parses, the content lies.
        for mutation in lies:
            assert mutation.data != baseline

    def test_every_manifest_mutation_is_detected_or_harmless(self, tmp_path):
        directory = _built(tmp_path)
        baseline = (directory / MANIFEST_NAME).read_bytes()
        report = run_segment_store_fault_injection(
            directory, MANIFEST_NAME, default_manifest_mutations(baseline),
        )
        assert report.ok, report.summary()
        assert report.total > 100
        assert report.failures == []
        assert report.identical + report.detected == report.total


class TestSegmentCampaign:
    def test_every_segment_mutation_quarantines_or_detects(self, tmp_path):
        directory = _built(tmp_path)
        victim = sorted(directory.glob("seg-*.chrono"))[0].name
        baseline = (directory / victim).read_bytes()
        report = run_segment_store_fault_injection(
            directory, victim, default_mutations(baseline),
        )
        assert report.ok, report.summary()
        assert report.total > 50
        # Segment damage is survivable: some mutations must land in the
        # detected bucket via quarantine rather than refusing the open.
        assert report.detected > 0

    def test_campaign_restores_the_original_bytes(self, tmp_path):
        directory = _built(tmp_path)
        victim = sorted(directory.glob("seg-*.chrono"))[0]
        baseline = victim.read_bytes()
        run_segment_store_fault_injection(
            directory, victim.name, default_mutations(baseline),
        )
        assert victim.read_bytes() == baseline

    def test_campaign_refuses_an_unhealthy_baseline(self, tmp_path):
        directory = _built(tmp_path)
        victim = sorted(directory.glob("seg-*.chrono"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            run_segment_store_fault_injection(
                directory, victim.name, default_mutations(bytes(blob)),
            )
