"""Per-segment circuit breakers: trip on repeated failure, probe on backoff.

A :class:`CircuitBreaker` guards one query part (a segment of the
segmented store).  It is *closed* (traffic flows) until
``failure_threshold`` consecutive failures trip it *open*; while open,
callers skip the part -- annotating the answer as a reported subset when
the query consents to partial answers -- until an exponential backoff
elapses, at which point exactly one caller is admitted as a *half-open*
probe.  A successful probe closes the breaker; a failed probe re-opens it
with a longer backoff.

The backoff schedule reuses :class:`repro.storage.atomic.RetryPolicy` --
the same ``base_delay`` doubling and jitter the atomic writer uses for
transient OS errors, here spread across trips instead of attempts (with
``max_elapsed``, when set, capping a single backoff interval).  Clocks
and randomness are injectable so schedules are exactly testable.

:class:`BreakerBoard` is the named collection
(:class:`repro.storage.segments.SegmentStore` keeps one per store, so
breaker state survives the view swaps that follow seals and
compactions).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import DomainError
from repro.storage.atomic import RetryPolicy

__all__ = [
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
    "DEFAULT_FAILURE_THRESHOLD",
    "DEFAULT_MAX_BACKOFF",
    "CircuitBreaker",
    "BreakerBoard",
]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half_open"

#: Consecutive failures before a closed breaker trips open.
DEFAULT_FAILURE_THRESHOLD = 3

#: Hard ceiling, in seconds, on a single backoff interval.
DEFAULT_MAX_BACKOFF = 60.0

#: Exponent cap so ``2 ** trips`` can never overflow into silly floats.
_MAX_EXPONENT = 16


def _default_retry() -> RetryPolicy:
    """The breaker's default backoff schedule: 0.25s doubling, 25% jitter."""
    return RetryPolicy(base_delay=0.25, jitter=0.25)


class CircuitBreaker:
    """One part's failure isolator: closed -> open -> half-open -> closed.

    All transitions happen under an internal lock; :meth:`allow` is the
    only method that moves time forward (open -> half-open when the
    backoff has elapsed), so health snapshots never mutate state.

    The healthy path is lock-free.  A closed breaker answers
    :meth:`allow` from one unlocked load of its state, and
    :meth:`record_success` on a breaker with zero consecutive failures
    returns after one unlocked load of that count.  Both are safe
    because each is a single attribute read (atomic under the GIL) whose
    locked counterpart would not write anything: a closed ``allow()``
    only returns ``True``, and zero consecutive failures means the
    breaker is closed and fully reset -- the count is only ever zeroed by
    a success, which closes and resets first, and every path away from
    that state (a failure, a trip, a probe) starts by counting a
    failure.  A transition racing either read is ordered after it, as it
    would be after the locked call.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        retry: Optional[RetryPolicy] = None,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Configure the trip threshold and the reopening backoff schedule."""
        if failure_threshold < 1:
            raise DomainError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if max_backoff <= 0:
            raise DomainError(f"max_backoff must be > 0, got {max_backoff}")
        self._threshold = failure_threshold
        self._retry = retry if retry is not None else _default_retry()
        self._max_backoff = max_backoff
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive = 0
        self._trips = 0
        self._streak = 0
        self._opened_at = 0.0
        self._backoff = 0.0
        self._probing = False
        self._last_reason: Optional[str] = None

    def _backoff_for_streak_locked(self) -> float:
        exponent = min(self._streak - 1, _MAX_EXPONENT)
        delay = self._retry.base_delay * (2.0 ** exponent)
        delay = self._retry._next_delay(delay)
        cap = self._max_backoff
        if self._retry.max_elapsed is not None:
            cap = min(cap, self._retry.max_elapsed)
        return min(delay, cap)

    def _trip_locked(self, reason: str) -> None:
        self._state = STATE_OPEN
        self._trips += 1
        self._streak += 1
        self._opened_at = self._clock()
        self._backoff = self._backoff_for_streak_locked()
        self._probing = False
        self._last_reason = reason

    def allow(self) -> bool:
        """Whether a caller may query the guarded part right now.

        Closed: always.  Open: only once the backoff has elapsed, and
        then the caller becomes the single half-open probe.  Half-open:
        only if no probe is already in flight.  The caller must report
        the attempt's outcome via :meth:`record_success` /
        :meth:`record_failure`.
        """
        if self._state == STATE_CLOSED:  # lock-free: see the class docstring
            return True
        with self._lock:
            state = self._state
            if state == STATE_CLOSED:
                return True
            if state == STATE_OPEN:
                if self._clock() - self._opened_at < self._backoff:
                    return False
                self._state = STATE_HALF_OPEN
                self._probing = True
                return True
            # Half-open: admit a single probe at a time.
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        """Report a successful query of the part: close and reset."""
        if self._consecutive == 0:  # already closed and reset: class docstring
            return
        with self._lock:
            self._state = STATE_CLOSED
            self._consecutive = 0
            self._streak = 0
            self._backoff = 0.0
            self._probing = False

    def record_failure(self, reason: str) -> None:
        """Report a failed query of the part; may trip the breaker open.

        A half-open probe failure re-opens immediately (with a longer
        backoff); a closed breaker trips after ``failure_threshold``
        consecutive failures.
        """
        with self._lock:
            self._consecutive += 1
            self._last_reason = reason
            state = self._state
            if state == STATE_HALF_OPEN:
                self._trip_locked(reason)
            elif state == STATE_CLOSED and (
                self._consecutive >= self._threshold
            ):
                self._trip_locked(reason)

    @property
    def state(self) -> str:
        """Current state: ``closed``, ``open`` or ``half_open``."""
        with self._lock:
            return self._state

    def retry_after(self) -> float:
        """Seconds until an open breaker would admit a probe (0 when ready)."""
        with self._lock:
            if self._state != STATE_OPEN:
                return 0.0
            remaining = self._opened_at + self._backoff - self._clock()
            return max(0.0, remaining)

    def snapshot(self) -> Dict[str, object]:
        """Machine-readable state for health reports and ``status --json``."""
        with self._lock:
            state = self._state
            if state == STATE_OPEN:
                remaining = max(
                    0.0, self._opened_at + self._backoff - self._clock()
                )
            else:
                remaining = 0.0
            return {
                "state": state,
                "consecutive_failures": self._consecutive,
                "trips": self._trips,
                "retry_after": round(remaining, 6),
                "last_reason": self._last_reason,
            }

    def __repr__(self) -> str:
        """State and trip count, for logs and test failures."""
        with self._lock:
            return (
                f"CircuitBreaker(state={self._state!r}, "
                f"failures={self._consecutive}, trips={self._trips})"
            )


class BreakerBoard:
    """A named collection of breakers sharing one configuration.

    Breakers are created on first :meth:`get` and live for the board's
    lifetime -- in the segmented store, the board belongs to the
    :class:`~repro.storage.segments.SegmentStore`, so a segment's breaker
    state survives the query-view rebuilds that follow seals and
    compactions (a tripped segment stays tripped until its probe
    succeeds, even across a manifest swap).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        retry: Optional[RetryPolicy] = None,
        max_backoff: float = DEFAULT_MAX_BACKOFF,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Store the configuration every created breaker will share."""
        self._failure_threshold = failure_threshold
        self._retry = retry
        self._max_backoff = max_backoff
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, name: str) -> CircuitBreaker:
        """The breaker for ``name``, created (closed) on first use.

        An existing breaker is returned from one unlocked dict lookup
        (breakers are never removed); only creation takes the board lock.
        """
        breaker = self._breakers.get(name)
        if breaker is not None:
            return breaker
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self._failure_threshold,
                    retry=self._retry,
                    max_backoff=self._max_backoff,
                    clock=self._clock,
                )
                self._breakers[name] = breaker
            return breaker

    def peek(self, name: str) -> Optional[CircuitBreaker]:
        """The breaker for ``name`` if one exists, without creating it."""
        with self._lock:
            return self._breakers.get(name)

    def states(self) -> Dict[str, Dict[str, object]]:
        """Snapshot of every created breaker, keyed by part name."""
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.snapshot() for name, breaker in breakers.items()}

    def open_count(self) -> int:
        """How many breakers are currently open (tripped)."""
        with self._lock:
            breakers = list(self._breakers.values())
        return sum(1 for breaker in breakers if breaker.state == STATE_OPEN)

    def __len__(self) -> int:
        """Number of breakers created so far."""
        with self._lock:
            return len(self._breakers)
