"""Deadline-aware query runtime: contexts, governor, breakers, kernels hook.

Covers the resource-governance layer end to end: the typed interruption
taxonomy, checkpoint semantics (cancel -> budget -> deadline), ambient
activation down to the bulk-decode chunk loops, governor admission and
load shedding, and per-part circuit breakers on an injectable clock.
"""

import os
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import kernels
from repro.core import compress
from repro.errors import (
    DomainError,
    QueryBudgetExceeded,
    QueryCancelled,
    QueryInterrupted,
    QueryTimeout,
    RejectedError,
)
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.runtime import (
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    Governor,
    QueryContext,
    TokenBucket,
    activate,
    current_context,
    query_scope,
    resolve_context,
)
from repro.runtime.breaker import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN
from repro.service.protocol import QUERY_OPS
from repro.storage.atomic import RetryPolicy
from repro.storage.segments import (
    BackpressureError,
    SegmentedChronoGraph,
    SegmentStore,
    StorePolicy,
)
from repro.testing.faults import StepClock


def _graph(contacts=200, nodes=16):
    rows = [
        (i % nodes, (i + 1) % nodes, (i * 13) % 500, 0)
        for i in range(contacts)
    ]
    return compress(graph_from_contacts(GraphKind.POINT, rows, num_nodes=nodes))


def _segmented_store(tmp_path, segments=4):
    """A point store of ``segments`` sealed segments over disjoint windows
    (node 0 in each, times ``100 * base + {0, 1}``) plus a one-contact tail."""
    policy = StorePolicy(
        seal_contacts=10, max_segments=16, backpressure_contacts=200
    )
    store = SegmentStore.create(tmp_path / "s", GraphKind.POINT, policy=policy)
    for base in range(segments):
        store.ingest(
            [
                Contact(u, (u + 1 + base) % 12, base * 100 + t, 0)
                for t in range(2)
                for u in range(5)
            ]
        )
    store.ingest([Contact(0, 11, 450, 0)])
    assert store.graph.segment_count == segments and store.tail_size == 1
    return store


class _AnswerThenStall:
    """A query part that answers ``neighbors``, then moves the clock on."""

    def __init__(self, inner, clock, seconds):
        self._inner = inner
        self._clock = clock
        self._seconds = seconds

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def neighbors(self, *args, **kwargs):
        out = self._inner.neighbors(*args, **kwargs)
        self._clock.advance(self._seconds)
        return out


class TestDeadline:
    def test_expiry_on_injected_clock(self):
        clock = StepClock()
        d = Deadline(0.1, clock=clock)
        assert d.expiry == 0.1  # the instant is fixed at construction
        assert not d.expired()
        assert d.remaining() == pytest.approx(0.1)
        clock.advance(0.09)
        assert not d.expired()
        clock.advance(0.02)
        assert d.expired()
        assert d.remaining() < 0
        assert d.elapsed() == pytest.approx(0.11)

    def test_negative_budget_rejected(self):
        with pytest.raises(DomainError):
            Deadline(-1.0)

    def test_nan_budget_rejected(self):
        # A NaN budget would compare false forever: a deadline that never
        # expires.
        with pytest.raises(DomainError):
            Deadline(float("nan"))
        with pytest.raises(DomainError):
            QueryContext(timeout=float("nan"))


class TestQueryContext:
    def test_checkpoint_order_cancel_budget_deadline(self):
        clock = StepClock()
        ctx = QueryContext(timeout=1.0, decode_budget=10, clock=clock)
        ctx.checkpoint(10)  # exactly at budget: fine
        clock.advance(2.0)
        ctx.cancel()
        # Cancel wins even though budget and deadline are also blown.
        with pytest.raises(QueryCancelled):
            ctx.checkpoint(100)

    def test_budget_exceeded_carries_fields(self):
        ctx = QueryContext(decode_budget=5)
        with pytest.raises(QueryBudgetExceeded) as info:
            ctx.checkpoint(6)
        assert info.value.budget == 5
        assert info.value.spent == 6
        assert isinstance(info.value, QueryInterrupted)

    def test_timeout_carries_fields(self):
        clock = StepClock()
        ctx = QueryContext(timeout=0.1, clock=clock)
        clock.advance(0.2)
        with pytest.raises(QueryTimeout) as info:
            ctx.checkpoint()
        assert info.value.budget == pytest.approx(0.1)
        assert info.value.elapsed == pytest.approx(0.2)

    def test_deadline_and_timeout_are_exclusive(self):
        with pytest.raises(DomainError):
            QueryContext(deadline=Deadline(1.0), timeout=1.0)

    def test_skip_annotations(self):
        ctx = QueryContext(allow_partial=True)
        assert ctx.complete
        ctx.note_skip("seg-0", "breaker open", retry_after=0.5)
        assert not ctx.complete
        (skip,) = ctx.skipped
        assert (skip.part, skip.reason, skip.retry_after) == (
            "seg-0", "breaker open", 0.5,
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            QueryContext(decode_budget=-1)
        with pytest.raises(DomainError):
            QueryContext(checkpoint_codes=0)


class TestAmbientActivation:
    def test_activate_nests_and_restores(self):
        a, b = QueryContext(), QueryContext()
        assert current_context() is None
        with activate(a):
            assert current_context() is a
            with activate(b):
                assert current_context() is b
            assert current_context() is a
            with activate(None):  # no-op, not a clear
                assert current_context() is a
        assert current_context() is None

    def test_resolve_prefers_explicit(self):
        a, b = QueryContext(), QueryContext()
        with activate(a):
            assert resolve_context(None) is a
            assert resolve_context(b) is b
        assert resolve_context(None) is None

    def test_query_scope_polls_on_entry(self):
        clock = StepClock()
        ctx = QueryContext(timeout=0.1, clock=clock)
        clock.advance(1.0)
        with pytest.raises(QueryTimeout):
            with query_scope(ctx):
                pytest.fail("expired context must not enter the scope")

    def test_nested_scope_only_polls(self):
        clock = StepClock()
        gov = Governor(max_concurrent=1)
        ctx = QueryContext(timeout=0.1, clock=clock, governor=gov)
        with query_scope(ctx) as outer:
            assert outer is ctx and current_context() is ctx
            # Already active and admitted: no second admission (the cap
            # of one would shed it), and the shared no-op scope yields None.
            with query_scope(ctx) as inner:
                assert inner is None
            clock.advance(1.0)
            with pytest.raises(QueryTimeout):
                with query_scope(ctx):
                    pytest.fail("a nested scope still polls on entry")
            assert current_context() is ctx
        assert current_context() is None
        assert gov.stats()["admitted"] == 1 and gov.stats()["in_flight"] == 0
        assert kernels.get_checkpoint_hook() is None

    def test_workers_do_not_inherit_ambient_context(self):
        seen = []
        with activate(QueryContext()):
            t = threading.Thread(target=lambda: seen.append(current_context()))
            t.start()
            t.join()
        assert seen == [None]


class TestDecodeInterruption:
    def test_budget_interrupts_bulk_decode(self):
        graph = _graph()
        ctx = QueryContext(decode_budget=1)
        with pytest.raises(QueryBudgetExceeded):
            graph.snapshot(0, 500, ctx=ctx)
        assert ctx.work_done > 1

    def test_interrupted_graph_stays_consistent(self):
        graph = _graph()
        reference = _graph()
        with pytest.raises(QueryBudgetExceeded):
            graph.snapshot(0, 500, ctx=QueryContext(decode_budget=1))
        # Caches never ingest partial decodes: the interrupted graph still
        # answers identically to an untouched twin.
        assert graph.snapshot(0, 500) == reference.snapshot(0, 500)

    def test_cancel_interrupts_iteration(self):
        graph = _graph()
        ctx = QueryContext()
        it = graph.iter_window_neighbors(0, 500, ctx=ctx)
        next(it)
        ctx.cancel()
        with pytest.raises(QueryCancelled):
            list(it)

    def test_ctx_answers_identical(self):
        graph = _graph()
        ctx = QueryContext(timeout=60.0)
        assert graph.snapshot(0, 500, ctx=ctx) == graph.snapshot(0, 500)
        for u in range(4):
            assert graph.neighbors(u, 0, 500, ctx=ctx) == graph.neighbors(
                u, 0, 500
            )

    def test_checkpoint_hook_installed_only_while_active(self):
        # Idle process: no hook, so the bulk readers' fast path is a
        # single attribute load -- un-governed queries pay nothing.
        assert kernels.get_checkpoint_hook() is None
        with activate(QueryContext(checkpoint_codes=7)):
            hook = kernels.get_checkpoint_hook()
            assert hook is not None
            assert hook(0) == 7
            with activate(QueryContext(checkpoint_codes=9)):
                assert hook(0) == 9  # nested: innermost context wins
            assert hook(0) == 7  # still held by the outer activation
        assert kernels.get_checkpoint_hook() is None  # last one out

    def test_activation_leaves_foreign_hook_alone(self):
        sentinel = lambda work: 0  # noqa: E731 - deliberate non-context hook
        kernels.set_checkpoint_hook(sentinel)
        try:
            with activate(QueryContext()):
                assert kernels.get_checkpoint_hook() is sentinel
            assert kernels.get_checkpoint_hook() is sentinel
        finally:
            kernels.set_checkpoint_hook(None)


class TestTokenBucket:
    def test_grant_and_refill_schedule(self):
        clock = StepClock()
        bucket = TokenBucket(2.0, 4.0, clock=clock)
        assert bucket.try_take(4.0) == 0.0
        wait = bucket.try_take(1.0)
        assert wait == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert bucket.try_take(1.0) == 0.0
        assert bucket.available() == pytest.approx(0.0)

    def test_burst_is_a_ceiling(self):
        clock = StepClock()
        bucket = TokenBucket(100.0, 3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.available() == pytest.approx(3.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(DomainError):
            TokenBucket(1.0, 0.0)
        with pytest.raises(DomainError):
            TokenBucket(1.0, 1.0).try_take(0.0)


class TestGovernor:
    def test_concurrency_cap_sheds_with_retry_after(self):
        gov = Governor(max_concurrent=2, retry_after=0.25)
        with gov.admit():
            with gov.admit():
                with pytest.raises(RejectedError) as info:
                    with gov.admit():
                        pass
        exc = info.value
        assert exc.reason == "concurrency"
        assert exc.retry_after == 0.25
        assert exc.in_flight == 2 and exc.limit == 2
        stats = gov.stats()
        assert stats["rejected_by_reason"] == {"concurrency": 1}
        assert stats["admitted"] == 2
        assert stats["peak_in_flight"] == 2
        assert stats["in_flight"] == 0

    def test_tenant_tokens_shed_with_exact_refill(self):
        clock = StepClock()
        gov = Governor(tenant_rate=1.0, tenant_burst=2.0, clock=clock)
        with gov.admit(tenant="alice"):
            pass
        with gov.admit(tenant="alice"):
            pass
        with pytest.raises(RejectedError) as info:
            with gov.admit(tenant="alice"):
                pass
        assert info.value.reason == "tenant-tokens"
        assert info.value.retry_after == pytest.approx(1.0)
        with gov.admit(tenant="bob"):  # other tenants unaffected
            pass
        clock.advance(1.0)
        with gov.admit(tenant="alice"):  # refilled
            pass

    def test_tenant_knobs_must_pair(self):
        with pytest.raises(DomainError):
            Governor(tenant_rate=1.0)

    def test_batch_queries_use_governor_and_admit_once(self, tmp_path):
        graph = _graph()
        gov = Governor(max_concurrent=1)
        ctx = QueryContext(governor=gov)
        queries = [(u, 0, 500) for u in range(8)]
        want = graph.neighbors_many(queries)
        assert graph.neighbors_many(queries, ctx=ctx) == want
        # One admission for the whole batch, not one per sub-query --
        # with max_concurrent=1 any double-admission would have shed.
        assert gov.stats()["admitted"] == 1
        assert gov.stats()["rejected"] == 0
        # A store query fans out over planned segments and a batch over
        # its entries; each must still be one admission -- under a cap of
        # one, any nested admission would have shed.
        store = _segmented_store(tmp_path)
        view = store.graph
        gov = Governor(max_concurrent=1)
        values = {
            "u": 0, "v": 2, "t_start": 0, "t_end": 500,
            "queries": [(u % 12, 0, 500) for u in range(16)],
        }
        try:
            for op, query in QUERY_OPS.items():
                args = [values[name] for name in query.args]
                fn = getattr(view, op)
                want = fn(*args)
                admitted = gov.stats()["admitted"]
                ctx = QueryContext(timeout=30.0, governor=gov)
                assert fn(*args, ctx=ctx) == want, op
                assert gov.stats()["admitted"] == admitted + 1, op
            stats = gov.stats()
            assert stats["rejected"] == 0 and stats["in_flight"] == 0
            assert kernels.get_checkpoint_hook() is None
            assert current_context() is None
        finally:
            store.close()

    def test_concurrent_governed_store_queries_pair_everything(self, tmp_path):
        # More threads than cores and a short switch interval: every
        # scope's admission and decode-hook hold must be released, and
        # the lock-free breaker reads must leave every breaker closed.
        store = _segmented_store(tmp_path)
        view = store.graph
        gov = Governor()
        queries = [(u, 0, 500) for u in range(12)]
        want = [view.neighbors(*q) for q in queries]
        errors = []

        def worker():
            try:
                for _ in range(10):
                    for q, expected in zip(queries, want):
                        ctx = QueryContext(timeout=30.0, governor=gov)
                        if view.neighbors(*q, ctx=ctx) != expected:
                            errors.append(q)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            store.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        stats = gov.stats()
        assert stats["admitted"] == 8 * 10 * len(queries)
        assert stats["in_flight"] == 0 and stats["rejected"] == 0
        assert kernels.get_checkpoint_hook() is None
        for snap in view._breakers.states().values():
            assert snap["state"] == "closed" and snap["consecutive_failures"] == 0

    def test_activated_context_is_still_admitted_once(self, tmp_path):
        store = _segmented_store(tmp_path)
        gov = Governor(max_concurrent=1)
        ctx = QueryContext(governor=gov)
        try:
            with activate(ctx):
                got = store.graph.neighbors(0, 0, 500, ctx=ctx)
            assert got == store.graph.neighbors(0, 0, 500)
            stats = gov.stats()
            assert stats["admitted"] == 1 and stats["rejected"] == 0
            assert stats["in_flight"] == 0
        finally:
            store.close()

    def test_deadline_between_parts_fires_at_next_part(self, tmp_path):
        # The deadline passes after the first planned segment answered:
        # the next part's entry poll raises, and that part's breaker is
        # charged with the failure.
        store = _segmented_store(tmp_path)
        view = store.graph
        clock = StepClock()
        board = BreakerBoard(clock=clock)
        (first, graph), (second, _graph2) = view._segments[:2]
        stalling = SegmentedChronoGraph(
            view.kind,
            ((first, _AnswerThenStall(graph, clock, 1.0)),) + view._segments[1:],
            view._tail,
            breakers=board,
        )
        gov = Governor(max_concurrent=1)
        try:
            assert len(stalling.plan(0, 500)) == view.segment_count
            # Warm the record caches, so no decode checkpoint can stand
            # in for the entry poll.
            stalling.neighbors(0, 0, 500)
            ctx = QueryContext(timeout=0.1, clock=clock, governor=gov)
            with pytest.raises(QueryTimeout):
                stalling.neighbors(0, 0, 500, ctx=ctx)
            assert board.peek(first.name).snapshot()["consecutive_failures"] == 0
            assert board.peek(second.name).snapshot()["consecutive_failures"] == 1
            for info, _graph in view._segments[2:]:  # never reached
                assert board.peek(info.name).snapshot()["consecutive_failures"] == 0
            stats = gov.stats()
            assert stats["admitted"] == 1 and stats["in_flight"] == 0
            assert kernels.get_checkpoint_hook() is None
            assert current_context() is None
        finally:
            store.close()


class TestCircuitBreaker:
    def _breaker(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault(
            "retry", RetryPolicy(base_delay=0.25, jitter=0.0)
        )
        return CircuitBreaker(clock=clock, **kwargs)

    def test_trips_after_threshold_consecutive_failures(self):
        clock = StepClock()
        b = self._breaker(clock)
        b.record_failure("crc")
        b.record_success()  # success resets the streak
        for _ in range(2):
            b.record_failure("crc")
            assert b.state == "closed"
        b.record_failure("crc")
        assert b.state == "open"
        assert not b.allow()
        assert b.retry_after() == pytest.approx(0.25)

    def test_half_open_single_probe_then_close(self):
        clock = StepClock()
        b = self._breaker(clock)
        for _ in range(3):
            b.record_failure("crc")
        clock.advance(0.3)
        assert b.allow()  # becomes the probe
        assert b.state == "half_open"
        assert not b.allow()  # second caller must wait for the probe
        b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_failed_probe_reopens_with_longer_backoff(self):
        clock = StepClock()
        b = self._breaker(clock)
        for _ in range(3):
            b.record_failure("crc")
        first = b.retry_after()
        clock.advance(first + 0.001)
        assert b.allow()
        b.record_failure("still broken")
        assert b.state == "open"
        assert b.retry_after() == pytest.approx(2 * first)  # doubled
        snap = b.snapshot()
        assert snap["trips"] == 2
        assert snap["last_reason"] == "still broken"

    def test_backoff_is_capped(self):
        clock = StepClock()
        b = self._breaker(clock, max_backoff=1.0)
        for _ in range(3):
            b.record_failure("crc")
        for _ in range(10):  # escalate far past the cap exponent
            clock.advance(b.retry_after() + 0.001)
            assert b.allow()
            b.record_failure("crc")
        assert b.retry_after() <= 1.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DomainError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(DomainError):
            CircuitBreaker(max_backoff=0.0)

    @settings(max_examples=300)  # cheap steps; reach half-open often
    @given(
        threshold=st.integers(1, 4),
        steps=st.lists(
            st.one_of(
                st.just(("allow",)),
                st.just(("record_success",)),
                st.tuples(
                    st.just("record_failure"), st.sampled_from(["crc", "stall"])
                ),
                st.tuples(st.just("advance"), st.floats(0.0, 3.0)),
            ),
            max_size=60,
        ),
    )
    def test_lock_free_paths_match_locked_reference(self, threshold, steps):
        clocks = (StepClock(), StepClock())
        fast, locked = (
            breaker_type(
                failure_threshold=threshold,
                retry=RetryPolicy(base_delay=0.25, jitter=0.0),
                clock=clock,
            )
            for breaker_type, clock in zip((CircuitBreaker, _LockedBreaker), clocks)
        )
        for name, *args in steps:
            if name == "advance":
                for clock in clocks:
                    clock.advance(*args)
                continue
            got = getattr(fast, name)(*args)
            assert got == getattr(locked, name)(*args), (name, args)
            assert fast.snapshot() == locked.snapshot(), (name, args)
            assert _internals(fast) == _internals(locked), (name, args)

    def test_board_creates_tracks_and_counts(self):
        clock = StepClock()
        board = BreakerBoard(failure_threshold=1, clock=clock)
        assert board.peek("a") is None
        assert len(board) == 0
        a = board.get("a")
        assert board.get("a") is a
        a.record_failure("boom")
        board.get("b")
        assert board.open_count() == 1
        states = board.states()
        assert states["a"]["state"] == "open"
        assert states["b"]["state"] == "closed"
        assert len(board) == 2


def _internals(breaker):
    """The state :meth:`CircuitBreaker.snapshot` leaves out."""
    return breaker._streak, breaker._backoff, breaker._probing, breaker._opened_at


class _LockedBreaker(CircuitBreaker):
    """Reference breaker: ``allow``/``record_success`` always take the lock.

    Their bodies as they were before the lock-free closed path; every
    other method of :class:`CircuitBreaker` was and is fully locked.
    """

    def allow(self):
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
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self):
        with self._lock:
            self._state = STATE_CLOSED
            self._consecutive = 0
            self._streak = 0
            self._backoff = 0.0
            self._probing = False


class TestStructuredErrors:
    def test_backpressure_fields(self):
        exc = BackpressureError(
            "tail full", tail_size=12, cap=12, retry_after=10.0
        )
        assert exc.tail_size == 12
        assert exc.cap == 12
        assert exc.retry_after == 10.0
        assert isinstance(exc, RuntimeError)
        bare = BackpressureError("legacy call sites still work")
        assert bare.tail_size is None and bare.cap is None

    def test_rejected_error_fields(self):
        exc = RejectedError(
            "shed", retry_after=0.5, reason="concurrency", in_flight=3, limit=3
        )
        assert (exc.retry_after, exc.reason) == (0.5, "concurrency")
        assert (exc.in_flight, exc.limit) == (3, 3)
        assert isinstance(exc, DomainError)

    def test_interruption_taxonomy(self):
        # The interruption branch is DomainError (usage), not FormatError
        # (data): deadlines say nothing about the bytes being decoded.
        from repro.errors import FormatError

        for exc_type in (QueryTimeout, QueryCancelled, QueryBudgetExceeded):
            assert issubclass(exc_type, QueryInterrupted)
            assert issubclass(exc_type, DomainError)
            assert not issubclass(exc_type, FormatError)
