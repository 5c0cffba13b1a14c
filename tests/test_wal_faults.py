"""WAL mutation campaigns: recovery never hangs, lies, or loses silently.

Mirrors the container campaigns in ``test_faults.py``: every mutation of
a segment store's tail log must, on a read-only open, either (a) raise
from ``FormatError``, (b) serve the full log identically with a clean
health report, or (c) serve a *prefix of committed batches* while
reporting the loss.  The one benign exception is a cut at an exact record
boundary, which is byte-for-byte a valid shorter log -- indistinguishable
from fewer commits, so its clean report is correct.
"""

import random

import pytest

from repro.core import compress
from repro.core.serialize import dumps_compressed
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.storage.segments import SegmentStore, StorePolicy
from repro.storage.wal import WalHeader, scan_wal_bytes
from repro.testing import (
    default_wal_mutations,
    run_wal_fault_injection,
    wal_crc_flip_mutations,
    wal_generation_mutations,
    wal_truncate_mutations,
)


def _pair(kind=GraphKind.POINT, seed=2, n=10, m=40, batches=4):
    """A valid (base container, WAL image) pair with committed batches."""
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(n),
            rng.randrange(n),
            rng.randrange(500),
            rng.randrange(1, 20) if kind is GraphKind.INTERVAL else 0,
        )
        for _ in range(m)
    ]
    base = dumps_compressed(compress(graph_from_contacts(kind, rows, num_nodes=n)))
    import zlib

    header = WalHeader(
        kind=kind, generation=0, base_size=len(base), base_crc=zlib.crc32(base)
    )
    wal = bytearray(header.to_bytes())
    from repro.storage.wal import encode_batch

    for b in range(batches):
        batch = [
            Contact(
                rng.randrange(n + 2),
                rng.randrange(n + 2),
                rng.randrange(500),
                rng.randrange(1, 20) if kind is GraphKind.INTERVAL else 0,
            )
            for _ in range(5)
        ]
        wal += encode_batch(batch)
    return base, bytes(wal)


def _store(tmp_path, kind=GraphKind.POINT, seed=2, n=10, m=40, batches=4):
    """A healthy store: one sealed segment plus ``batches`` tail batches."""
    rng = random.Random(seed)

    def row(top):
        d = rng.randrange(1, 20) if kind is GraphKind.INTERVAL else 0
        return (rng.randrange(top), rng.randrange(top), rng.randrange(500), d)

    directory = tmp_path / "store"
    with SegmentStore.create(
        directory, kind, policy=StorePolicy(seal_contacts=1000)
    ) as store:
        store.ingest([row(n) for _ in range(m)])
        store.seal()
        for _ in range(batches):
            store.ingest([row(n + 2) for _ in range(5)])
    return directory


class TestWalMutators:
    def test_truncations_are_strict_prefixes(self):
        _, wal = _pair()
        for m in wal_truncate_mutations(wal):
            assert len(m.data) < len(wal)
            assert wal.startswith(m.data)

    def test_crc_flips_change_exactly_one_byte(self):
        _, wal = _pair()
        muts = list(wal_crc_flip_mutations(wal))
        assert muts
        for m in muts:
            assert len(m.data) == len(wal)
            diff = [i for i in range(len(wal)) if m.data[i] != wal[i]]
            assert len(diff) == 1

    def test_generation_mutations_have_valid_header_crc(self):
        _, wal = _pair()
        muts = list(wal_generation_mutations(wal))
        assert len(muts) >= 4
        # All but the raw-crc-flip mutation re-seal the header checksum, so
        # they exercise the *binding* checks rather than the CRC guard.
        resealed = [m for m in muts if "headercrcflip" not in m.name]
        assert resealed
        for m in resealed:
            WalHeader.from_bytes(m.data[:32])  # must parse cleanly

    def test_boundary_truncations_scan_clean(self):
        _, wal = _pair()
        scan = scan_wal_bytes(wal)
        for end in scan.record_ends:
            cut = scan_wal_bytes(wal[:end])
            assert not cut.torn and not cut.errors

    def test_tear_on_length_prefix_boundary_drops_only_that_record(self):
        # The nastiest tear: the crash lands exactly after a record's
        # 4-byte length prefix, so the prefix itself parses but promises
        # bytes that never made it to disk.  Recovery must treat the
        # whole record as torn -- valid_end snaps back to the record
        # start and every earlier batch survives untouched.
        _, wal = _pair()
        full = scan_wal_bytes(wal)
        header_size = len(full.header.to_bytes())
        starts = [header_size] + full.record_ends[:-1]
        assert starts
        for index, start in enumerate(starts):
            cut = scan_wal_bytes(wal[: start + 4])
            assert cut.torn
            assert cut.valid_end == start
            assert cut.dropped_bytes == 4
            assert len(cut.batches) == index
            assert cut.batches == full.batches[:index]
            assert cut.errors  # the drop is reported, not silent

    def test_prefix_boundary_tear_recovers_and_repairs(self, tmp_path):
        # End-to-end: the same tear repaired on disk via the recovery
        # path leaves exactly the intact records behind.
        from repro.storage.wal import repair_torn_tail, scan_wal

        _, wal = _pair()
        full = scan_wal_bytes(wal)
        last_start = full.record_ends[-2]
        path = tmp_path / "wal.log"
        path.write_bytes(wal[: last_start + 4])
        scan = scan_wal(path)
        assert scan.torn and scan.valid_end == last_start
        assert repair_torn_tail(path, scan) == 4
        healed = scan_wal(path)
        assert not healed.torn and not healed.errors
        assert healed.batches == full.batches[:-1]


class TestWalCampaign:
    @pytest.mark.parametrize("kind", [GraphKind.POINT, GraphKind.INTERVAL])
    def test_no_silent_loss_across_default_mutations(self, kind, tmp_path):
        store = _store(tmp_path, kind=kind)
        wal = (store / "wal.tail").read_bytes()
        report = run_wal_fault_injection(
            store, default_wal_mutations(wal, stride_bits=16)
        )
        assert report.ok, report.summary()
        assert report.total > 100
        assert (store / "wal.tail").read_bytes() == wal  # restored

    def test_pristine_wal_counts_identical(self, tmp_path):
        store = _store(tmp_path)
        wal = (store / "wal.tail").read_bytes()
        from repro.testing import Mutation

        report = run_wal_fault_injection(store, [Mutation("pristine", wal)])
        assert report.identical == 1 and report.ok

    def test_baseline_must_be_valid(self, tmp_path):
        store = _store(tmp_path)
        tail = store / "wal.tail"
        tail.write_bytes(tail.read_bytes()[:-3])
        with pytest.raises(ValueError):
            run_wal_fault_injection(store, [])
