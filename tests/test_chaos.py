"""The chaos envelope: deadlines hold and breakers isolate under stalls.

The acceptance scenario of the deadline-aware runtime, proven on an
injectable clock: a 10-second filesystem-grade stall on one segment of a
segmented store, a windowed query under a 100 ms deadline.  The query
must return a typed ``QueryTimeout`` (or a breaker-annotated partial
answer) promptly, the failing segment's breaker must trip open, and
subsequent queries over the healthy segments must succeed unthrottled --
byte-identical to a monolithic graph over the healthy subset.
"""

import time

import pytest

from repro.core import compress
from repro.errors import QueryTimeout, RejectedError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.runtime import BreakerBoard, QueryContext
from repro.storage.segments import (
    SegmentedChronoGraph,
    SegmentStore,
    StorePolicy,
)
from repro.testing.faults import (
    ChaosReport,
    SlowFilesystem,
    StallingGraph,
    StepClock,
    run_chaos_harness,
)

STALL_SECONDS = 10.0
DEADLINE = 0.1
#: Wall-clock promptness bound for interruption: generous against CI
#: noise, but a hung 10-second stall would blow it hundredsfold.
WALL_BUDGET = 2.0


@pytest.fixture
def store(tmp_path):
    policy = StorePolicy(
        seal_contacts=10, max_segments=16, backpressure_contacts=200
    )
    store = SegmentStore.create(tmp_path / "s", GraphKind.POINT, policy=policy)
    for base in range(3):  # three sealed segments spanning distinct windows
        store.ingest(
            [
                Contact(u, (u + 1 + base) % 12, base * 100 + t, 0)
                for t in range(2)
                for u in range(5)
            ]
        )
    store.ingest([Contact(0, 11, 400, 0)])  # plus a live tail
    assert store.graph.segment_count == 3
    assert store.tail_size == 1
    yield store
    store.close()


def _chaos_view(store, clock, *, threshold=3):
    """The store's view with its first segment stalling ``STALL_SECONDS``."""
    view = store.graph
    board = BreakerBoard(failure_threshold=threshold, clock=clock)
    info, graph = view._segments[0]
    stalled = StallingGraph(graph, lambda: clock.advance(STALL_SECONDS))
    chaos = SegmentedChronoGraph(
        view.kind,
        ((info, stalled),) + view._segments[1:],
        view._tail,
        breakers=board,
    )
    return chaos, board, info


def _healthy_reference(store):
    """A monolithic graph compressed from the healthy subset (no victim)."""
    view = store.graph
    rows = [
        (c.u, c.v, c.time, c.duration)
        for _info, graph in view._segments[1:]
        for c in graph.iter_contacts()
    ]
    rows.extend(
        (c.u, c.v, c.time, c.duration) for c in view._tail.contacts
    )
    return compress(
        graph_from_contacts(view.kind, rows, num_nodes=view.num_nodes)
    )


class TestAcceptanceEnvelope:
    def test_stalled_segment_times_out_trips_and_isolates(self, store):
        clock = StepClock()
        chaos, board, victim = _chaos_view(store, clock)
        reference = _healthy_reference(store)

        # 1. Deadlines hold: every stalled query raises the typed timeout
        #    promptly -- cooperative interruption, not a 10 s hang.
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(QueryTimeout) as info:
                chaos.snapshot(0, 500, ctx=QueryContext(timeout=DEADLINE, clock=clock))
            assert time.perf_counter() - start < WALL_BUDGET
            assert info.value.budget == pytest.approx(DEADLINE)
            assert info.value.elapsed >= STALL_SECONDS

        # 2. The stalls were attributed: the victim's breaker is open,
        #    the healthy segments' breakers are not.
        assert board.peek(victim.name).state == "open"
        assert board.open_count() == 1

        # 3. Without partial-answer consent the query is shed, typed and
        #    structured, without touching the stalled part.
        calls_before = chaos._segments[0][1].calls
        with pytest.raises(RejectedError) as shed:
            chaos.snapshot(0, 500, ctx=QueryContext(timeout=DEADLINE, clock=clock))
        assert shed.value.reason == "segment-breaker"
        assert shed.value.retry_after is not None
        assert chaos._segments[0][1].calls == calls_before

        # 4. Partial answers over the healthy subset: unthrottled (the
        #    deadline holds trivially -- the fake clock never advances),
        #    annotated, and byte-identical to the monolithic reference.
        for t1, t2 in ((0, 500), (100, 300), (350, 500)):
            ctx = QueryContext(
                allow_partial=True, timeout=DEADLINE, clock=clock
            )
            start = time.perf_counter()
            got = chaos.snapshot(t1, t2, ctx=ctx)
            assert time.perf_counter() - start < WALL_BUDGET
            assert got == reference.snapshot(t1, t2)
            if any(
                info.overlaps(chaos.kind, t1, t2)
                for info, _g in chaos._segments[:1]
            ):
                assert [s.part for s in ctx.skipped] == [victim.name]
            for u in range(5):
                cu = QueryContext(allow_partial=True)
                assert chaos.neighbors(u, t1, t2, ctx=cu) == (
                    reference.neighbors(u, t1, t2)
                )

    def test_harness_proves_the_full_story(self, store):
        report = run_chaos_harness(
            store,
            stall_seconds=STALL_SECONDS,
            deadline=DEADLINE,
            failure_threshold=3,
        )
        assert isinstance(report, ChaosReport)
        assert report.ok, report.summary()
        assert report.deadlines_held >= 3  # threshold probes + re-trip
        assert report.shed == 1
        assert report.partial == 2
        assert report.breaker_trips == 2  # initial trip + half-open re-trip
        assert "deadlines held" in report.summary()

    def test_half_open_probe_recovers_when_stall_clears(self, store):
        clock = StepClock()
        chaos, board, victim = _chaos_view(store, clock)
        for _ in range(3):
            with pytest.raises(QueryTimeout):
                chaos.snapshot(0, 500, ctx=QueryContext(timeout=DEADLINE, clock=clock))
        breaker = board.peek(victim.name)
        assert breaker.state == "open"

        # The fault clears: swap the stalling proxy for the real graph
        # (same breaker board -- state survives view rebuilds).
        healed = SegmentedChronoGraph(
            chaos.kind,
            ((victim, store.graph._segments[0][1]),) + chaos._segments[1:],
            chaos._tail,
            breakers=board,
        )
        clock.advance(breaker.retry_after() + 0.001)
        want = store.graph.snapshot(0, 500)
        assert healed.snapshot(0, 500, ctx=QueryContext(timeout=DEADLINE, clock=clock)) == want
        assert breaker.state == "closed"  # successful probe closed it
        # And the full (victim-inclusive) answers are served again.
        assert healed.snapshot(0, 500) == want


class TestSlowFilesystem:
    def test_injects_counted_latency_without_real_waiting(self, tmp_path):
        clock = StepClock()
        fs = SlowFilesystem(delay=10.0, sleep=clock.advance)
        start = time.perf_counter()
        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT, fs=fs)
        store.ingest([Contact(0, 1, 1, 0)])
        store.close()
        assert fs.stalls > 0
        assert clock() == pytest.approx(10.0 * fs.stalls)
        assert time.perf_counter() - start < WALL_BUDGET

    def test_operation_filter(self, tmp_path):
        seen = []
        fs = SlowFilesystem(
            delay=1.0, operations={"fsync"}, sleep=seen.append
        )
        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT, fs=fs)
        store.ingest([Contact(0, 1, 1, 0)])
        store.close()
        assert fs.stalls == len(seen) > 0

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            SlowFilesystem(delay=1.0, operations={"sausage"})


class TestStallingGraph:
    def test_queries_stall_but_plumbing_does_not(self):
        rows = [(0, 1, 5, 0), (1, 2, 6, 0)]
        graph = compress(graph_from_contacts(GraphKind.POINT, rows, num_nodes=3))
        clock = StepClock()
        proxy = StallingGraph(graph, lambda: clock.advance(1.0))
        assert proxy.num_nodes == 3  # passthrough, no stall
        assert list(proxy.iter_contacts()) == list(graph.iter_contacts())
        assert clock() == 0.0
        assert proxy.neighbors(0, 0, 10) == [1]
        assert clock() == 1.0
        assert proxy.calls == 1


class TestStatusJson:
    def test_status_json_reports_health_and_breakers(self, tmp_path, capsys):
        import json

        from repro.cli import main

        store = SegmentStore.create(tmp_path / "s", GraphKind.POINT)
        store.ingest([Contact(0, 1, 1, 0)])
        store.seal()
        store.close()
        assert main(["status", str(tmp_path / "s"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["health"]["segments"] == 1
        assert "breakers" in doc["health"]
        assert set(doc) == {"health", "ok"}
