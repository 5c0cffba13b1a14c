"""Query-runtime governance: deadlines, admission control, circuit breakers.

The resource-governance layer that turns the library into something a
long-lived serving fleet can run: every query gets a bounded latency
envelope, overload is shed before it runs, and a failing segment is
isolated instead of wedging every query that overlaps it.

* :mod:`repro.runtime.context` -- :class:`Deadline` / :class:`QueryContext`
  (wall-clock budget, cooperative cancel flag, decode-work budget),
  accepted by every query entry point and polled by cheap checkpoints
  down to the bulk-decode loops, raising the typed
  :class:`repro.errors.QueryTimeout` / :class:`repro.errors.QueryCancelled`
  / :class:`repro.errors.QueryBudgetExceeded` branch.
* :mod:`repro.runtime.governor` -- the admission controller: a
  concurrent-query cap, per-tenant token budgets and load shedding
  (:class:`repro.errors.RejectedError` with a retry-after hint).
* :mod:`repro.runtime.breaker` -- per-segment circuit breakers for
  :class:`repro.storage.segments.SegmentedChronoGraph`: repeated
  CRC/decode failure trips a segment open, queries skip it with a
  partial-answer annotation (reported subset, never silently wrong), and
  it half-opens on a :class:`repro.storage.atomic.RetryPolicy` backoff.
"""

from repro.runtime.breaker import (
    BreakerBoard,
    CircuitBreaker,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.runtime.context import (
    DEFAULT_CHECKPOINT_CODES,
    Deadline,
    QueryContext,
    SkippedPart,
    activate,
    current_context,
    query_scope,
    resolve_context,
)
from repro.runtime.governor import (
    Governor,
    TokenBucket,
    default_governor,
    set_default_governor,
)

__all__ = [
    "Deadline",
    "QueryContext",
    "SkippedPart",
    "DEFAULT_CHECKPOINT_CODES",
    "current_context",
    "resolve_context",
    "activate",
    "query_scope",
    "Governor",
    "TokenBucket",
    "default_governor",
    "set_default_governor",
    "CircuitBreaker",
    "BreakerBoard",
    "STATE_CLOSED",
    "STATE_OPEN",
    "STATE_HALF_OPEN",
]
