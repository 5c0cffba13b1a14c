"""Structured exception taxonomy for corrupt or untrusted inputs.

Every failure mode of decoding a ``.chrono`` container, a compressed bit
stream or a contact-list file funnels into the :class:`FormatError`
hierarchy, so callers can write ``except FormatError`` and know they have
covered *all* data-driven failures -- truncation, checksum mismatches,
unsupported versions, resource-limit violations and plain stream
corruption -- without accidentally swallowing programming errors.

``FormatError`` subclasses :class:`ValueError`, so code that catches
``ValueError`` for bad input -- the CLI's one-line error path among it --
covers malformed files too.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "FormatError",
    "TruncatedContainerError",
    "ChecksumMismatchError",
    "UnsupportedVersionError",
    "LimitExceededError",
    "CorruptStreamError",
    "EndOfStreamError",
    "GenerationMismatchError",
    "DomainError",
    "CodecDomainError",
    "GraphDomainError",
    "QueryInterrupted",
    "QueryTimeout",
    "QueryCancelled",
    "QueryBudgetExceeded",
    "RejectedError",
]


class FormatError(ValueError):
    """A file or byte stream is not a valid ChronoGraph artefact.

    Root of the taxonomy; raising the root class directly is reserved for
    "not our file at all" failures (e.g. a bad magic number).
    """


class TruncatedContainerError(FormatError):
    """The container ends before a declared section or field completes."""


class ChecksumMismatchError(FormatError):
    """A section's CRC32 footer does not match its payload."""


class UnsupportedVersionError(FormatError):
    """The container declares a version (or flags) this reader cannot parse."""


class LimitExceededError(FormatError):
    """A declared count or size is impossible or breaches a decode limit.

    Raised *before* any allocation proportional to the declared value, so a
    flipped header byte can never trigger a multi-gigabyte allocation.
    """


class CorruptStreamError(FormatError):
    """A compressed bit stream decoded to something structurally invalid."""


class EndOfStreamError(CorruptStreamError, EOFError):
    """A bit-stream read ran past the end of the stream.

    Subclasses both :class:`CorruptStreamError` (so container decoding
    funnels into :class:`FormatError`) and :class:`EOFError` (the exception
    :class:`repro.bits.bitio.BitReader` historically raised).
    """


class DomainError(ValueError):
    """A caller-supplied value lies outside an API's documented domain.

    The *usage-error* side of the taxonomy: unlike :class:`FormatError`,
    which covers data-driven failures of untrusted inputs, a
    :class:`DomainError` means the calling code itself passed an argument a
    codec, structure or configuration cannot represent (a negative width, a
    value a code is undefined for, a node label out of range).  Subclasses
    :class:`ValueError` so callers written against the historical bare
    ``ValueError`` contracts keep working, and so the decode paths'
    blanket ``except ValueError`` wrapping still funnels any such raise
    on a corrupt stream into :class:`CorruptStreamError`.
    """


class CodecDomainError(DomainError):
    """A value is outside the domain of a :mod:`repro.bits` codec.

    Raised by the instantaneous codes (unary/gamma/delta/zeta/...), the
    bit-stream primitives and the succinct structures when asked to encode
    a value their code is undefined for, or when an argument (width,
    modulus, shrinking parameter, seek position) is invalid.
    """


class GraphDomainError(DomainError):
    """A graph-level argument is invalid (labels, durations, config).

    Raised by :mod:`repro.core` on negative node labels, durations on
    non-interval graph kinds, out-of-range node lookups and configuration
    values outside their documented bounds.
    """


class QueryInterrupted(DomainError):
    """A query was cut short by its own runtime envelope, not by bad data.

    Root of the query-runtime branch of the taxonomy: the *caller's*
    deadline, cancellation flag or decode-work budget stopped the query
    before it completed.  The underlying graph and its caches are left
    fully consistent -- retrying the same query with a larger envelope
    returns the complete answer.

    Subclasses :class:`DomainError` (and therefore :class:`ValueError`),
    but decode paths that blanket-catch ``ValueError`` to funnel corrupt
    streams into :class:`FormatError` re-raise this branch explicitly: an
    interrupted query is never evidence of corruption.
    """


class QueryTimeout(QueryInterrupted):
    """A query's wall-clock deadline expired before it finished.

    ``budget`` is the deadline's total allowance in seconds and ``elapsed``
    the time actually consumed when the expiry was observed (both ``None``
    when unknown).
    """

    def __init__(
        self,
        message: str,
        *,
        budget: Optional[float] = None,
        elapsed: Optional[float] = None,
    ) -> None:
        """Store the structured timing fields alongside the message."""
        super().__init__(message)
        self.budget = budget
        self.elapsed = elapsed


class QueryCancelled(QueryInterrupted):
    """A query observed its context's cooperative cancellation flag."""


class QueryBudgetExceeded(QueryInterrupted):
    """A query exhausted its decode-work budget before completing.

    ``budget`` is the allowance in decode-work units (roughly, codes
    decoded) and ``spent`` the units consumed when the overrun was
    observed.
    """

    def __init__(
        self,
        message: str,
        *,
        budget: Optional[int] = None,
        spent: Optional[int] = None,
    ) -> None:
        """Store the structured budget fields alongside the message."""
        super().__init__(message)
        self.budget = budget
        self.spent = spent


class RejectedError(DomainError):
    """The admission controller shed this query instead of running it.

    Raised *before* any work happens, so rejection is always safe to
    retry.  ``retry_after`` is the governor's structured backoff hint in
    seconds; ``reason`` is a short machine-readable tag (for example
    ``"concurrency"`` or ``"tenant-tokens"``); ``in_flight``/``limit``
    describe the load that triggered the shed when applicable.
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: Optional[float] = None,
        reason: Optional[str] = None,
        in_flight: Optional[int] = None,
        limit: Optional[int] = None,
    ) -> None:
        """Store the structured load-shedding fields alongside the message."""
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason
        self.in_flight = in_flight
        self.limit = limit


class GenerationMismatchError(FormatError):
    """On-disk state is not the generation a handle expected.

    Raised by :meth:`repro.storage.segments.SegmentStore.verify_binding`
    when the durable manifest's generation differs from the one the open
    store believes is current -- something else swapped the manifest.
    """
