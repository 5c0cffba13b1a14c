"""Tests for dataset slicing and compressed-graph validation."""

import random
import struct
import zlib

import pytest

from repro.cli import main
from repro.core import compress
from repro.core.serialize import dumps_compressed, load_compressed_bytes
from repro.core.validate import validate_compressed
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.graph.slicing import induced_subgraph, sample_contacts, slice_time


def negative_label_container() -> bytes:
    """A CRC-valid container whose node 0 decodes the label -2.

    One flipped structure-stream bit of a seeded 40-node, 300-contact
    graph, with the section's CRC rewritten: only the per-node label
    check can tell.
    """
    rng = random.Random(1)
    rows = [
        (rng.randrange(40), rng.randrange(40), rng.randrange(1000), 0)
        for _ in range(300)
    ]
    blob = bytearray(
        dumps_compressed(
            compress(graph_from_contacts(GraphKind.POINT, rows, num_nodes=40))
        )
    )
    (header_len,) = struct.unpack_from("<I", blob, 6)
    start = 10 + header_len + 4 + 9  # the structure section's payload
    (length,) = struct.unpack_from("<Q", blob, start - 8)
    blob[start + 9] ^= 0x80  # stream byte 1, after the 8-byte bit count
    payload = bytes(blob[start : start + length])
    struct.pack_into("<I", blob, start + length, zlib.crc32(payload))
    return bytes(blob)


def _point_graph():
    return graph_from_contacts(
        GraphKind.POINT,
        [(0, 1, 5), (1, 2, 15), (2, 0, 25), (0, 1, 35)],
        num_nodes=3,
    )


class TestSliceTime:
    def test_point_slice_keeps_window_contacts(self):
        sliced = slice_time(_point_graph(), 10, 30)
        assert [(c.u, c.v, c.time) for c in sliced.contacts] == [
            (1, 2, 15), (2, 0, 25),
        ]

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            slice_time(_point_graph(), 30, 10)

    def test_interval_clipping(self):
        g = graph_from_contacts(GraphKind.INTERVAL, [(0, 1, 0, 100)], num_nodes=2)
        sliced = slice_time(g, 20, 39)
        assert sliced.contacts == [Contact(0, 1, 20, 20)]

    def test_interval_without_clipping(self):
        g = graph_from_contacts(GraphKind.INTERVAL, [(0, 1, 0, 100)], num_nodes=2)
        sliced = slice_time(g, 20, 39, clip_durations=False)
        assert sliced.contacts == [Contact(0, 1, 0, 100)]

    def test_interval_outside_window_dropped(self):
        g = graph_from_contacts(
            GraphKind.INTERVAL, [(0, 1, 0, 5), (0, 1, 50, 5)], num_nodes=2
        )
        assert len(slice_time(g, 10, 40).contacts) == 0

    def test_slice_preserves_activity_semantics(self):
        rng = random.Random(3)
        rows = [(rng.randrange(6), rng.randrange(6), rng.randrange(100),
                 rng.randrange(1, 20)) for _ in range(60)]
        g = graph_from_contacts(GraphKind.INTERVAL, rows, num_nodes=6)
        sliced = slice_time(g, 30, 60)
        for u in range(6):
            assert sliced.ref_neighbors(u, 30, 60) == g.ref_neighbors(u, 30, 60)

    def test_shorter_slice_smaller_lifetime(self):
        g = _point_graph()
        assert slice_time(g, 0, 20).lifetime < g.lifetime


class TestInducedSubgraph:
    def test_keeps_internal_contacts_only(self):
        sub = induced_subgraph(_point_graph(), [0, 1])
        assert [(c.u, c.v) for c in sub.contacts] == [(0, 1), (0, 1)]
        assert sub.num_nodes == 2

    def test_relabeling_is_dense(self):
        g = graph_from_contacts(GraphKind.POINT, [(2, 7, 1)], num_nodes=8)
        sub = induced_subgraph(g, [2, 7])
        assert sub.contacts == [Contact(0, 1, 1)]

    def test_no_relabel_keeps_labels(self):
        g = graph_from_contacts(GraphKind.POINT, [(2, 7, 1)], num_nodes=8)
        sub = induced_subgraph(g, [2, 7], relabel=False)
        assert sub.contacts == [Contact(2, 7, 1)]
        assert sub.num_nodes == 8

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError):
            induced_subgraph(_point_graph(), [0, 9])


class TestSampling:
    def test_fraction_one_keeps_everything(self):
        g = _point_graph()
        assert sample_contacts(g, 1.0).contacts == g.contacts

    def test_sampling_reduces(self):
        contacts = [(0, 1, t) for t in range(1000)]
        g = graph_from_contacts(GraphKind.POINT, contacts, num_nodes=2)
        sampled = sample_contacts(g, 0.3, seed=1)
        assert 200 < sampled.num_contacts < 400

    def test_deterministic(self):
        g = _point_graph()
        assert sample_contacts(g, 0.5, seed=2).contacts == sample_contacts(
            g, 0.5, seed=2
        ).contacts

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            sample_contacts(_point_graph(), 0.0)


class TestValidation:
    def test_clean_graph_validates(self):
        g = _point_graph()
        report = validate_compressed(compress(g), g)
        assert report.ok
        assert report.contacts_checked == g.num_contacts

    def test_reference_mismatch_detected(self):
        g = _point_graph()
        other = graph_from_contacts(
            GraphKind.POINT, [(0, 1, 5), (1, 2, 16), (2, 0, 25), (0, 1, 35)],
            num_nodes=3,
        )
        report = validate_compressed(compress(g), other)
        assert not report.ok
        assert any("differ from reference" in e for e in report.errors)

    def test_corrupt_stream_detected(self):
        cg = compress(_point_graph())
        cg._tbits = max(1, cg._tbits // 4)
        cg._tbytes = cg._tbytes[: (cg._tbits + 7) // 8]
        report = validate_compressed(cg)
        assert not report.ok

    def test_label_outside_node_range_detected(self):
        report = validate_compressed(
            load_compressed_bytes(negative_label_container())
        )
        assert report.errors == ["node 0: neighbor label -2 outside [0, 40)"]

    def test_error_cap(self):
        cg = compress(_point_graph())
        cg._sbits = 1
        cg._sbytes = b"\x00"
        cg._distinct_cache.clear()
        report = validate_compressed(cg, max_errors=2)
        assert len(report.errors) <= 2

    def test_cli_verify_ok(self, tmp_path, capsys):
        text = tmp_path / "g.txt"
        chrono = tmp_path / "g.chrono"
        main(["generate", "comm-net", "--scale", "0.05", "--out", str(text)])
        main(["compress", str(text), "--out", str(chrono)])
        capsys.readouterr()
        assert main(["verify", str(chrono), "--against", str(text)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_cli_verify_detects_corruption(self, tmp_path, capsys):
        text = tmp_path / "g.txt"
        chrono = tmp_path / "g.chrono"
        main(["generate", "comm-net", "--scale", "0.05", "--out", str(text)])
        main(["compress", str(text), "--out", str(chrono)])
        data = bytearray(chrono.read_bytes())
        data[len(data) // 2] ^= 0xFF  # flip a stream byte
        chrono.write_bytes(bytes(data))
        capsys.readouterr()
        code = main(["verify", str(chrono), "--against", str(text)])
        out = capsys.readouterr().out
        assert code == 1 or "OK" in out  # either detected or flip hit padding
