"""Tests for reprosan, the runtime lock/blocking sanitizer.

Covers the wrapper mechanics (naming, foreign-lock passthrough,
uninstall restores everything), nested-acquisition detection (seeded
fixtures both here and in the packaged CI fixture), blocking-under-lock
reporting, and the sanitized race smoke that the CI job gates on.
"""

from __future__ import annotations

import builtins
import os
import threading

import pytest

from repro.runtime.governor import Governor
from repro.testing.sanitizer import (
    LockSanitizer,
    run_seeded_nesting,
    sanitized,
)


# -- wrapper mechanics -------------------------------------------------------


def test_locks_outside_repro_are_not_wrapped():
    with sanitized() as san:
        foreign = threading.Lock()
    # This test file is not under the repro tree, so the lock must be a
    # plain stdlib lock and the sanitizer must not have counted it.
    assert type(foreign).__name__ != "_SanitizedLock"
    assert san.report().locks_created == 0


def test_all_locks_mode_wraps_and_names_by_assignment():
    with sanitized(all_locks=True) as san:
        my_test_lock = threading.Lock()
        with my_test_lock:
            pass
    report = san.report()
    assert report.locks_created == 1
    assert report.acquisitions == 1
    assert my_test_lock.name == "my_test_lock"


def test_uninstall_restores_patched_functions():
    lock_before = threading.Lock
    rlock_before = threading.RLock
    open_before = builtins.open
    fsync_before = os.fsync
    with sanitized():
        assert threading.Lock is not lock_before
        assert builtins.open is not open_before
    assert threading.Lock is lock_before
    assert threading.RLock is rlock_before
    assert builtins.open is open_before
    assert os.fsync is fsync_before


def test_wrapped_lock_supports_lock_protocol():
    with sanitized(all_locks=True):
        probe_lock = threading.Lock()
        assert probe_lock.acquire() is True
        assert probe_lock.locked()
        assert probe_lock.acquire(False) is False  # non-blocking refusal
        probe_lock.release()
        assert not probe_lock.locked()
        with probe_lock:
            assert probe_lock.locked()


def test_wrapped_rlock_is_reentrant():
    with sanitized(all_locks=True) as san:
        deep_lock = threading.RLock()
        with deep_lock:
            with deep_lock:
                pass
    report = san.report()
    # Re-entering the same lock object is not nesting.
    assert report.blocking == []
    assert report.acquisitions == 2


# -- nested acquisition ------------------------------------------------------


def test_nested_acquisition_is_reported():
    with sanitized(all_locks=True) as san:
        outer = threading.Lock()
        inner = threading.Lock()
        with outer:
            with inner:
                pass
    report = san.report()
    assert len(report.blocking) == 1
    event = report.blocking[0]
    assert event.kind == "lock"
    assert event.func == "inner"
    assert event.lock == "outer"
    assert not report.ok


class Holder:
    def __init__(self):
        self._lock = threading.Lock()


def test_same_named_locks_of_two_objects_are_nesting():
    """Two instances' ``_lock``s share a name but not an identity."""
    with sanitized(all_locks=True) as san:
        first, second = Holder(), Holder()
        with first._lock:
            # Deliberate nesting of same-named locks, which the static
            # rule cannot tell apart and leaves to the sanitizer.
            with second._lock:
                pass
    report = san.report()
    assert [(e.kind, e.func, e.lock) for e in report.blocking] == [
        ("lock", "_lock", "_lock")
    ]


def test_packaged_seeded_nesting_fires():
    """The CI fixture itself: the seeded nesting must be detected."""
    report = run_seeded_nesting()
    assert [(e.kind, e.func, e.lock) for e in report.blocking] == [
        ("lock", "seeded_inner", "seeded_outer")
    ]


def test_governor_with_tenant_budgets_nests_no_lock():
    """Admission and stats take the bucket under the governor's lock only."""
    with sanitized() as san:
        gov = Governor(max_concurrent=4, tenant_rate=100.0, tenant_burst=2.0)
        gov.acquire(tenant="alice")
        gov.acquire()
        gov.release()
        gov.release()
        stats = gov.stats()
    assert stats["admitted"] == 2
    assert set(stats["tenant_tokens"]) == {"alice", "(anonymous)"}
    report = san.report()
    assert report.locks_created > 0
    assert report.blocking == [], [e.render() for e in report.blocking]


# -- blocking-under-lock -----------------------------------------------------


def test_fs_call_under_governed_lock_is_reported(tmp_path):
    target = tmp_path / "scratch.txt"
    with sanitized(all_locks=True) as san:
        shard_lock = threading.Lock()
        with shard_lock:
            # Deliberate fs-under-lock: the runtime analogue of a CG002
            # finding is exactly what this test seeds.
            with open(target, "w") as f:  # repro: noqa[CG002]
                f.write("x")
    report = san.report()
    assert len(report.blocking) == 1
    event = report.blocking[0]
    assert event.kind == "fs"
    assert event.func == "open"
    assert event.lock == "shard_lock"
    assert not report.ok


def test_fs_call_under_distinct_or_ungoverned_lock_is_fine(tmp_path):
    target = tmp_path / "scratch.txt"
    with sanitized(all_locks=True) as san:
        distinct_lock = threading.RLock()
        registry = threading.Lock()  # not lock-convention-named
        with distinct_lock:
            with open(target, "w") as f:
                f.write("x")
        with registry:
            with open(target, "a") as f:
                f.write("y")
    assert san.report().blocking == []


def test_decode_under_governed_lock_is_reported():
    from repro.bits.bitio import BitReader
    from repro.bits import codes

    payload = bytes([0b10000000])  # gamma code for natural 0
    with sanitized(all_locks=True) as san:
        mutate_lock = threading.Lock()
        with mutate_lock:
            # Call through the module so the patched attribute is hit,
            # exactly as the query surface does at runtime.
            # Deliberate decode-under-lock: the runtime analogue of a
            # CG002 finding is exactly what this test seeds.
            codes.read_many_gamma_natural(  # repro: noqa[CG002]
                BitReader(payload), 1
            )
    report = san.report()
    assert any(e.kind == "decode" for e in report.blocking)
    assert report.blocking[0].lock == "mutate_lock"


def test_record_decoders_are_patched_where_imported_by_name():
    from repro.core import compressed, structure, timestamps

    originals = (
        structure.decode_node_structure,
        timestamps.decode_node_timestamps,
    )
    assert compressed.decode_node_structure is originals[0]
    with sanitized():
        assert compressed.decode_node_structure is not originals[0]
        assert compressed.decode_node_timestamps is not originals[1]
        assert structure.decode_node_structure is not originals[0]
    assert compressed.decode_node_structure is originals[0]
    assert compressed.decode_node_timestamps is originals[1]
    assert structure.decode_node_structure is originals[0]
    assert timestamps.decode_node_timestamps is originals[1]


def test_fs_call_with_no_lock_held_is_fine(tmp_path):
    target = tmp_path / "scratch.txt"
    with sanitized(all_locks=True) as san:
        with open(target, "w") as f:
            f.write("x")
    assert san.report().blocking == []


# -- sanitized race smoke ----------------------------------------------------


def test_sanitized_race_smoke_quick():
    from repro.testing.races import run_sanitized_race_smoke

    race, observed = run_sanitized_race_smoke(
        num_nodes=12, base_contacts=60, batches=25, readers=2,
        min_reader_ops=8,
    )
    assert race.ok, race.summary()
    assert observed.blocking == [], observed.summary()
    # The run must have actually exercised wrapped locks.
    assert observed.locks_created > 0
    assert observed.acquisitions > 0
