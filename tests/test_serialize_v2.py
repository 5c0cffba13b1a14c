"""VERSION 2 container tests: checksums, limits, salvage."""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compress, serialize
from repro.core.serialize import (
    MAGIC,
    VERSION,
    dumps_compressed,
    load_compressed,
    load_compressed_bytes,
    salvage_bytes,
    save_compressed,
)
from repro.core.validate import SalvageReport
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    FormatError,
    LimitExceededError,
    TruncatedContainerError,
    UnsupportedVersionError,
)
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind

ALL_KINDS = list(GraphKind)


def _graph(kind, seed=7, n=15, m=80):
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(2000),
            rng.randrange(1, 40) if kind is GraphKind.INTERVAL else 0,
        )
        for _ in range(m)
    ]
    return graph_from_contacts(kind, rows, num_nodes=n)


def _blob(kind, **kwargs):
    return dumps_compressed(compress(_graph(kind, **kwargs)))


def _patch_header(blob, offset, new_bytes):
    """Overwrite header bytes at ``offset`` and re-seal the header CRC."""
    (header_len,) = struct.unpack_from("<I", blob, 6)
    out = bytearray(blob)
    out[10 + offset : 10 + offset + len(new_bytes)] = new_bytes
    header = bytes(out[10 : 10 + header_len])
    struct.pack_into("<I", out, 10 + header_len, zlib.crc32(header))
    return bytes(out)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_contacts_identical(self, kind):
        cg = compress(_graph(kind))
        back = load_compressed_bytes(dumps_compressed(cg))
        assert list(back.iter_contacts()) == list(cg.iter_contacts())
        assert back.kind is cg.kind
        assert back.name == cg.name
        assert back.config == cg.config

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_empty_graph(self, kind):
        cg = compress(graph_from_contacts(kind, [], num_nodes=0))
        back = load_compressed_bytes(dumps_compressed(cg))
        assert back.num_nodes == 0
        assert back.num_contacts == 0
        assert list(back.iter_contacts()) == []

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_all_nodes_isolated(self, kind):
        cg = compress(graph_from_contacts(kind, [], num_nodes=9))
        back = load_compressed_bytes(dumps_compressed(cg))
        assert back.num_nodes == 9
        assert all(back.decode_multiset(u) == [] for u in range(9))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_zero_contact_tail_nodes(self, kind):
        # Contacts touch only nodes 0..2; nodes 3..11 carry empty records.
        rows = [(0, 1, 5, 0), (1, 2, 9, 0), (0, 2, 14, 0)]
        if kind is GraphKind.INTERVAL:
            rows = [(u, v, t, 3) for u, v, t, _ in rows]
        cg = compress(graph_from_contacts(kind, rows, num_nodes=12))
        back = load_compressed_bytes(dumps_compressed(cg))
        assert back.num_nodes == 12
        assert list(back.iter_contacts()) == list(cg.iter_contacts())
        assert back.decode_multiset(11) == []

    def test_serialisation_is_deterministic(self):
        cg = compress(_graph(GraphKind.POINT))
        assert dumps_compressed(cg) == dumps_compressed(cg)

    def test_reload_reserialises_byte_identically(self):
        blob = _blob(GraphKind.INTERVAL)
        assert dumps_compressed(load_compressed_bytes(blob)) == blob

    def test_save_writes_version_2(self, tmp_path):
        path = tmp_path / "g.chrono"
        save_compressed(compress(_graph(GraphKind.POINT)), path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert blob[4] == VERSION == 2
        assert load_compressed(path).num_nodes == 15

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, data):
        kind = data.draw(st.sampled_from(ALL_KINDS))
        n = data.draw(st.integers(0, 16))
        m = data.draw(st.integers(0, 30)) if n else 0
        rows = [
            (
                data.draw(st.integers(0, n - 1)),
                data.draw(st.integers(0, n - 1)),
                data.draw(st.integers(0, 400)),
                data.draw(st.integers(1, 25))
                if kind is GraphKind.INTERVAL
                else 0,
            )
            for _ in range(m)
        ]
        cg = compress(graph_from_contacts(kind, rows, num_nodes=n))
        blob = dumps_compressed(cg)
        back = load_compressed_bytes(blob)
        assert list(back.iter_contacts()) == list(cg.iter_contacts())
        assert dumps_compressed(back) == blob


class TestStrictRejection:
    def test_bad_magic(self):
        with pytest.raises(FormatError):
            load_compressed_bytes(b"NOPE" + _blob(GraphKind.POINT)[4:])

    def test_future_version(self):
        blob = bytearray(_blob(GraphKind.POINT))
        blob[4] = 3
        with pytest.raises(UnsupportedVersionError):
            load_compressed_bytes(bytes(blob))

    def test_nonzero_flags(self):
        blob = bytearray(_blob(GraphKind.POINT))
        blob[5] = 0x80
        with pytest.raises(UnsupportedVersionError):
            load_compressed_bytes(bytes(blob))

    def test_header_crc_mismatch(self):
        blob = bytearray(_blob(GraphKind.POINT))
        blob[12] ^= 0x01  # inside the header payload, CRC left stale
        with pytest.raises(ChecksumMismatchError, match="header"):
            load_compressed_bytes(bytes(blob))

    def test_section_crc_mismatch_names_section(self):
        blob = bytearray(_blob(GraphKind.POINT))
        blob[-1] ^= 0xFF  # final section CRC footer
        with pytest.raises(ChecksumMismatchError, match="timestamp offsets"):
            load_compressed_bytes(bytes(blob))

    def test_every_truncation_is_detected(self):
        blob = _blob(GraphKind.POINT)
        for keep in range(len(blob)):
            with pytest.raises(FormatError):
                load_compressed_bytes(blob[:keep])

    def test_trailing_bytes_rejected(self):
        blob = _blob(GraphKind.POINT)
        with pytest.raises(CorruptStreamError, match="trailing"):
            load_compressed_bytes(blob + b"\x00")

    def test_unknown_kind_code(self):
        blob = _patch_header(_blob(GraphKind.POINT), 0, bytes([9]))
        with pytest.raises(CorruptStreamError, match="kind"):
            load_compressed_bytes(blob)

    def test_empty_input(self):
        with pytest.raises(TruncatedContainerError):
            load_compressed_bytes(b"")


class TestDecodeLimits:
    """Header bombs must be rejected before any proportional allocation."""

    def test_impossible_node_count(self):
        # ~200-byte container claiming a trillion nodes: the CRC is valid
        # (re-sealed), so only the size cross-check can stop it.
        blob = _patch_header(
            _blob(GraphKind.POINT), 1, struct.pack("<Q", 1 << 40)
        )
        with pytest.raises(LimitExceededError):
            load_compressed_bytes(blob)

    def test_impossible_contact_count(self):
        blob = _patch_header(
            _blob(GraphKind.POINT), 9, struct.pack("<Q", 1 << 48)
        )
        with pytest.raises(LimitExceededError):
            load_compressed_bytes(blob)

    def test_caller_limits_are_enforced(self, monkeypatch):
        blob = _blob(GraphKind.POINT)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "_MAX_NODES", 3)
            with pytest.raises(LimitExceededError):
                load_compressed_bytes(blob)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "_MAX_CONTACTS", 3)
            with pytest.raises(LimitExceededError):
                load_compressed_bytes(blob)

    def test_default_limits_admit_real_containers(self):
        assert serialize._MAX_NODES >= 1 << 32
        load_compressed_bytes(_blob(GraphKind.POINT))

    def test_moderately_inflated_count_still_caught(self):
        # Count passes the global limit but not the per-file feasibility
        # bound (each node needs >= 4 structure bits).
        blob = _patch_header(
            _blob(GraphKind.POINT), 1, struct.pack("<Q", 100_000)
        )
        with pytest.raises(LimitExceededError):
            load_compressed_bytes(blob)


class TestSalvage:
    def test_pristine_container_is_fully_intact(self):
        report = salvage_bytes(_blob(GraphKind.POINT))
        assert isinstance(report, SalvageReport)
        assert report.ok
        assert report.nodes_recovered == report.nodes_declared == 15

    def test_load_compressed_salvage_flag(self, tmp_path):
        path = tmp_path / "g.chrono"
        save_compressed(compress(_graph(GraphKind.POINT)), path)
        report = load_compressed(path, salvage=True)
        assert isinstance(report, SalvageReport)
        assert report.ok

    def test_checksum_damage_is_reported_not_raised(self):
        blob = bytearray(_blob(GraphKind.POINT))
        blob[-1] ^= 0xFF  # CRC footer only; payload bytes intact
        report = salvage_bytes(bytes(blob))
        assert not report.ok
        assert report.errors
        # The data itself survived, so everything is still recoverable.
        assert report.nodes_recovered == report.nodes_declared

    def test_truncated_container_recovers_prefix(self):
        blob = _blob(GraphKind.POINT)
        report = salvage_bytes(blob[: int(len(blob) * 0.95)])
        assert not report.ok
        assert 0 <= report.nodes_recovered <= report.nodes_declared

    def test_garbage_recovers_nothing(self):
        report = salvage_bytes(b"definitely not a container")
        assert report.graph is None
        assert report.nodes_recovered == 0
        assert "unreadable" in report.summary() or report.errors

    def test_salvage_never_raises(self):
        blob = _blob(GraphKind.INTERVAL)
        rng = random.Random(11)
        for _ in range(150):
            mutated = bytearray(blob)
            for _ in range(rng.randrange(1, 6)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            report = salvage_bytes(bytes(mutated[: rng.randrange(1, len(blob))]))
            assert isinstance(report, SalvageReport)

    def test_recovered_prefix_is_queryable(self):
        cg = compress(_graph(GraphKind.POINT))
        blob = bytearray(dumps_compressed(cg))
        blob[-1] ^= 0xFF
        report = salvage_bytes(bytes(blob))
        graph = report.graph
        assert graph is not None
        for u in range(graph.num_nodes):
            assert graph.decode_multiset(u) == cg.decode_multiset(u)

    def test_summary_mentions_recovery_ratio(self):
        report = salvage_bytes(_blob(GraphKind.POINT))
        assert "15/15 nodes" in report.summary()
