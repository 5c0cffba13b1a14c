"""Admission control: concurrency caps and tenant token budgets.

The :class:`Governor` is the load-shedding front door of the query plane.
It enforces a concurrent-query cap and optional per-tenant token budgets
-- rejecting excess work *before* it runs with a structured
:class:`repro.errors.RejectedError` (retry-after hint included).

A query opts in by carrying a governor on its
:class:`repro.runtime.context.QueryContext`; admission is taken once per
context at the outermost :func:`repro.runtime.context.query_scope`, so
segmented queries fanning out over parts (and batches over their
entries) never double-count.  A query without a governor on its context
is never admitted or shed.

Clocks are injectable throughout so token-bucket refill and retry-after
hints are testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional

from repro.errors import DomainError, RejectedError

__all__ = [
    "DEFAULT_MAX_CONCURRENT",
    "DEFAULT_RETRY_AFTER",
    "TokenBucket",
    "Governor",
    "default_governor",
    "set_default_governor",
]

#: Default concurrent-query cap: generous enough that only genuine
#: overload (or a deliberate test) trips it, small enough to bound a
#: worker's memory and thread pressure.
DEFAULT_MAX_CONCURRENT = 64

#: Default retry-after hint, in seconds, for concurrency rejections
#: (token rejections compute the exact refill time instead).
DEFAULT_RETRY_AFTER = 0.05


class TokenBucket:
    """A refilling token bucket with an injectable clock.

    Tokens accrue continuously at ``rate`` per second up to ``burst``.
    :meth:`try_take` either grants immediately or reports how long until
    the requested tokens would accrue -- it never blocks, matching the
    governor's shed-don't-queue policy.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Create a bucket refilling at ``rate``/s, holding at most ``burst``."""
        if rate <= 0:
            raise DomainError(f"token rate must be > 0, got {rate}")
        if burst <= 0:
            raise DomainError(f"token burst must be > 0, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def try_take(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` if available, returning ``0.0``.

        When not available, takes nothing and returns the seconds until
        the shortfall would refill -- the governor's retry-after hint.
        """
        if tokens <= 0:
            raise DomainError(f"tokens must be > 0, got {tokens}")
        with self._lock:
            self._refill_locked()
            if tokens <= self._tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    def available(self) -> float:
        """Current token balance (after refill), for stats output."""
        with self._lock:
            self._refill_locked()
            return self._tokens


class Governor:
    """Concurrency cap + tenant token budgets.

    ``max_concurrent`` bounds admitted queries in flight;
    ``tenant_rate``/``tenant_burst`` (both or neither) switch on
    per-tenant token budgets, with queries that carry no tenant sharing
    one anonymous bucket.  All rejection is immediate and carries a
    structured retry-after -- the governor sheds, it never queues.
    """

    def __init__(
        self,
        *,
        max_concurrent: int = DEFAULT_MAX_CONCURRENT,
        tenant_rate: Optional[float] = None,
        tenant_burst: Optional[float] = None,
        retry_after: float = DEFAULT_RETRY_AFTER,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Configure the concurrency cap and the tenant budgets."""
        if max_concurrent < 1:
            raise DomainError(
                f"max_concurrent must be >= 1, got {max_concurrent}"
            )
        if (tenant_rate is None) != (tenant_burst is None):
            raise DomainError(
                "tenant_rate and tenant_burst must be set together"
            )
        self.max_concurrent = max_concurrent
        self.retry_after = retry_after
        self._tenant_rate = tenant_rate
        self._tenant_burst = tenant_burst
        self._clock = clock
        self._lock = threading.Lock()
        self._in_flight = 0
        self._peak_in_flight = 0
        self._admitted = 0
        self._rejected = 0
        self._rejected_by_reason: Dict[str, int] = {}
        self._buckets: Dict[str, TokenBucket] = {}

    # -- admission -----------------------------------------------------

    def _reject_locked(self, exc: RejectedError) -> None:
        self._rejected += 1
        reason = exc.reason or "unknown"
        self._rejected_by_reason[reason] = (
            self._rejected_by_reason.get(reason, 0) + 1
        )
        raise exc

    def acquire(self, *, tenant: Optional[str] = None, cost: float = 1.0) -> None:
        """Take one admission slot, or shed the query.

        Raises :class:`repro.errors.RejectedError` -- with ``reason``
        ``"concurrency"`` (cap reached; ``retry_after`` is the configured
        hint) or ``"tenant-tokens"`` (budget empty; ``retry_after`` is
        the exact refill time) -- instead of queueing.  Every successful
        call must be paired with exactly one :meth:`release`.
        """
        with self._lock:
            if self._in_flight >= self.max_concurrent:
                self._reject_locked(
                    RejectedError(
                        f"governor at capacity: {self._in_flight} queries "
                        f"in flight (cap {self.max_concurrent})",
                        retry_after=self.retry_after,
                        reason="concurrency",
                        in_flight=self._in_flight,
                        limit=self.max_concurrent,
                    )
                )
            if self._tenant_rate is not None:
                key = tenant if tenant is not None else "(anonymous)"
                bucket = self._buckets.get(key)
                if bucket is None:
                    assert self._tenant_burst is not None
                    bucket = TokenBucket(
                        self._tenant_rate,
                        self._tenant_burst,
                        clock=self._clock,
                    )
                    self._buckets[key] = bucket
                wait = bucket.try_take(cost)
                if wait > 0.0:
                    self._reject_locked(
                        RejectedError(
                            f"tenant {key!r} out of query tokens; "
                            f"retry in {wait:.3g}s",
                            retry_after=wait,
                            reason="tenant-tokens",
                            in_flight=self._in_flight,
                            limit=self.max_concurrent,
                        )
                    )
            self._in_flight += 1
            self._admitted += 1
            if self._in_flight > self._peak_in_flight:
                self._peak_in_flight = self._in_flight

    def release(self) -> None:
        """Give back a slot taken by :meth:`acquire`."""
        with self._lock:
            self._in_flight -= 1

    @contextmanager
    def admit(
        self, *, tenant: Optional[str] = None, cost: float = 1.0
    ) -> Iterator[None]:
        """Hold one admission slot for the duration of the block.

        A thin wrapper over :meth:`acquire` and :meth:`release`: sheds
        with :class:`repro.errors.RejectedError` exactly as
        :meth:`acquire` does, and on success releases the slot when the
        block exits, however it exits.  The query plane's
        :func:`repro.runtime.context.query_scope` calls the two methods
        directly, skipping this generator frame on every governed query.
        """
        self.acquire(tenant=tenant, cost=cost)
        try:
            yield
        finally:
            self.release()

    def shutdown(self) -> None:
        """Do nothing: a governor holds no threads or other resources.

        Kept only because traced runs of ``benchmarks/e2e/workloads.py``
        call it; it goes with the next change to that benchmark.
        """

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Machine-readable counters for ``status --json`` and tests.

        Includes the caps, live/peak in-flight counts, admitted/rejected
        totals (rejections broken down by reason) and per-tenant token
        balances when budgets are enabled.
        """
        with self._lock:
            tenants = {
                key: round(bucket.available(), 3)
                for key, bucket in self._buckets.items()
            }
            return {
                "max_concurrent": self.max_concurrent,
                "in_flight": self._in_flight,
                "peak_in_flight": self._peak_in_flight,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "rejected_by_reason": dict(self._rejected_by_reason),
                "tenant_tokens": tenants,
            }


_default: Optional[Governor] = None
_default_lock = threading.Lock()


def default_governor() -> Governor:
    """The process-wide governor, created lazily with default settings.

    Queries are governed only by the governor on their context; this one
    is what ``repro status --json`` reports.
    """
    global _default
    with _default_lock:
        if _default is None:
            _default = Governor()
        return _default


def set_default_governor(governor: Optional[Governor]) -> Optional[Governor]:
    """Replace the process-wide governor; returns the previous one.

    ``None`` resets to lazy default creation.
    """
    global _default
    with _default_lock:
        previous, _default = _default, governor
        return previous
