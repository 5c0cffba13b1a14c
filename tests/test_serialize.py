"""Tests for the on-disk ChronoGraph container format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ChronoGraphConfig, compress
from repro.core.serialize import (
    FormatError,
    dumps_compressed,
    load_compressed,
    salvage_bytes,
    save_compressed,
)
from repro.errors import UnsupportedVersionError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.testing.faults import _v2_section_spans


def _graph(kind=GraphKind.POINT, seed=0, n=20, m=100):
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(10_000),
            rng.randrange(50) if kind is GraphKind.INTERVAL else 0,
        )
        for _ in range(m)
    ]
    return graph_from_contacts(kind, rows, num_nodes=n, name="roundtrip")


class TestRoundTrip:
    @pytest.mark.parametrize("kind", list(GraphKind), ids=lambda k: k.value)
    def test_full_roundtrip(self, tmp_path, kind):
        g = _graph(kind)
        original = compress(g)
        path = tmp_path / "g.chrono"
        nbytes = save_compressed(original, path)
        assert nbytes == path.stat().st_size
        loaded = load_compressed(path)
        assert loaded.kind is kind
        assert loaded.num_nodes == original.num_nodes
        assert loaded.num_contacts == original.num_contacts
        assert loaded.name == "roundtrip"
        assert loaded.config == original.config
        assert loaded.to_temporal_graph().contacts == g.contacts

    def test_queries_after_load(self, tmp_path):
        g = _graph(GraphKind.INTERVAL, seed=3)
        path = tmp_path / "g.chrono"
        save_compressed(compress(g), path)
        loaded = load_compressed(path)
        rng = random.Random(5)
        for _ in range(100):
            u, v = rng.randrange(20), rng.randrange(20)
            t1 = rng.randrange(10_000)
            t2 = t1 + rng.randrange(500)
            assert loaded.has_edge(u, v, t1, t2) == g.ref_has_edge(u, v, t1, t2)
            assert loaded.neighbors(u, t1, t2) == g.ref_neighbors(u, t1, t2)

    def test_size_accounting_preserved(self, tmp_path):
        original = compress(_graph())
        path = tmp_path / "g.chrono"
        save_compressed(original, path)
        loaded = load_compressed(path)
        assert loaded.size_in_bits == original.size_in_bits

    def test_empty_graph(self, tmp_path):
        g = graph_from_contacts(GraphKind.POINT, [], num_nodes=4)
        path = tmp_path / "empty.chrono"
        save_compressed(compress(g), path)
        loaded = load_compressed(path)
        assert loaded.num_contacts == 0
        assert loaded.neighbors(0, 0, 10) == []

    def test_config_with_unbounded_ref_chain(self, tmp_path):
        g = _graph()
        cfg = ChronoGraphConfig(max_ref_chain=None, timestamp_zeta_k=3)
        path = tmp_path / "g.chrono"
        save_compressed(compress(g, cfg), path)
        assert load_compressed(path).config.max_ref_chain is None

    def test_aggregated_graph_roundtrip(self, tmp_path):
        g = _graph()
        cg = compress(g, ChronoGraphConfig(resolution=60))
        path = tmp_path / "g.chrono"
        save_compressed(cg, path)
        loaded = load_compressed(path)
        assert loaded.config.resolution == 60
        assert loaded.to_temporal_graph().contacts == cg.to_temporal_graph().contacts


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bogus.chrono"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_compressed(path)

    def test_bad_version(self, tmp_path):
        # VERSION 2 is the only container version; 1 is refused like any
        # unknown byte, by the heap, mmap and salvage loaders alike.
        for version in (1, 0xFF):
            blob = b"CHRG" + bytes([version]) + b"\x00" * 64
            path = tmp_path / f"v{version}.chrono"
            path.write_bytes(blob)
            for mapped in (False, True):
                with pytest.raises(UnsupportedVersionError):
                    load_compressed(path, mmap=mapped)
            report = salvage_bytes(blob)
            assert report.graph is None
            assert any(
                f"unsupported version {version}" in e for e in report.errors
            )

    def test_salvage_reports_each_flaw_once(self):
        # The strict loader and the lenient parse both see the first flaw;
        # the report names it once.
        assert salvage_bytes(b"NOPE" + bytes(64)).errors == [
            "<bytes>: not a ChronoGraph file (bad magic)"
        ]
        assert salvage_bytes(b"CHRG\x01" + bytes(64)).errors == [
            "<bytes>: unsupported version 1"
        ]
        blob = bytearray(dumps_compressed(compress(_graph())))
        start, end = _v2_section_spans(bytes(blob))[-1]  # timestamp offsets
        blob[end - 1] ^= 0xFF  # the section's CRC
        report = salvage_bytes(bytes(blob))
        assert report.errors == [
            f"timestamp offsets checksum mismatch (at byte {start})"
        ]

    def test_truncated_file(self, tmp_path):
        g = _graph()
        path = tmp_path / "g.chrono"
        save_compressed(compress(g), path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(Exception):
            load_compressed(path)


@settings(max_examples=15)
@given(
    kind=st.sampled_from(list(GraphKind)),
    seed=st.integers(0, 10_000),
)
def test_property_serialise_roundtrip(tmp_path_factory, kind, seed):
    g = _graph(kind, seed=seed, n=8, m=30)
    path = tmp_path_factory.mktemp("ser") / "g.chrono"
    save_compressed(compress(g), path)
    assert load_compressed(path).to_temporal_graph().contacts == g.contacts
