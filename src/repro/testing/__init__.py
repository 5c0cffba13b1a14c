"""Fault-injection tooling for hardening the ``.chrono`` container.

This package is part of the shipped library (not the test suite) so that
downstream users can exercise their own containers against the same
robustness contract the repository enforces: every mutation of a valid
container either round-trips identically or raises
:class:`repro.errors.FormatError` -- never a hang, crash or silently wrong
graph.  :func:`run_fault_injection` holds the container reader's three
error policies to that contract together: the strict heap load and the
lazy (mmap-mode) load must raise the same class or decode the same
contacts, and salvage must never raise and must report damage exactly
when they reject the mutation.

The same contract extends to the crash-safe persistence layer: WAL
mutations drive :func:`run_wal_fault_injection`, and
:class:`FaultyFilesystem` / :func:`crash_points` exhaust every possible
crash point of any write path built on :mod:`repro.storage.atomic`.
The segmented store adds its own surfaces:
:func:`manifest_field_mutations` forges CRC-valid manifests that lie,
:func:`run_segment_store_fault_injection` classifies every mutated open
against the quarantine-or-detect contract, and
:func:`run_segment_crash_matrix` exhausts every crash point of the full
ingest -> seal -> compact -> swap -> delete lifecycle.

Every harness checks answers against one oracle, the plain
:class:`repro.graph.model.TemporalGraph`:
:func:`first_divergence` runs ``(op, args)`` calls of
:data:`repro.service.protocol.QUERY_OPS` on any query surface and on the
plain model and names the first that differs.

The concurrency contract has its own harness: :func:`run_race_smoke`
(:mod:`repro.testing.races`) races seeded reader threads against a
segment-store writer and a compaction thread and verifies that every
captured view answers exactly as the plain model of its batch count,
torn-record freedom and counter monotonicity.
"""

from repro.testing.faults import (
    CrashPoint,
    FaultInjectionReport,
    FaultResult,
    FaultyFilesystem,
    Mutation,
    bit_flip_mutations,
    crash_points,
    default_manifest_mutations,
    default_mutations,
    default_wal_mutations,
    extend_mutations,
    first_divergence,
    manifest_field_mutations,
    random_region_mutations,
    run_fault_injection,
    run_segment_crash_matrix,
    run_segment_store_fault_injection,
    run_wal_fault_injection,
    section_shuffle_mutations,
    truncate_mutations,
    wal_crc_flip_mutations,
    wal_generation_mutations,
    wal_truncate_mutations,
)
from repro.testing.races import RaceReport, run_race_smoke

__all__ = [
    "Mutation",
    "FaultResult",
    "FaultInjectionReport",
    "bit_flip_mutations",
    "truncate_mutations",
    "extend_mutations",
    "section_shuffle_mutations",
    "random_region_mutations",
    "default_mutations",
    "run_fault_injection",
    "CrashPoint",
    "FaultyFilesystem",
    "crash_points",
    "wal_truncate_mutations",
    "wal_crc_flip_mutations",
    "wal_generation_mutations",
    "default_wal_mutations",
    "run_wal_fault_injection",
    "manifest_field_mutations",
    "default_manifest_mutations",
    "run_segment_store_fault_injection",
    "run_segment_crash_matrix",
    "first_divergence",
    "RaceReport",
    "run_race_smoke",
]
