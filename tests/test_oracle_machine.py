"""Every query surface answers every table op as the plain model does.

A Hypothesis state machine grows a segment store -- random batches,
seals, compactions, reopens heap-loaded or mapped -- and after every step
runs every op of :data:`repro.service.protocol.QUERY_OPS` on five
surfaces against the plain ``TemporalGraph`` of the contacts ingested so
far: the store's view, ``compress()`` of the same contacts, that graph
saved and reloaded into the heap and mapped, and the service's request
handler behind a JSON round trip.  Windows sit at contact boundaries and
one step either side of them, and some are inverted.  Node ids -1,
``num_nodes`` and ``num_nodes + 3`` ask for the node-range rule: every
surface raises the oracle's ``GraphDomainError``.  The scans outside the
table -- ``iter_window_neighbors``, ``distinct_neighbors`` and the
sorted ``iter_contacts()`` -- are checked on every surface but the
served one.
"""

import json
import shutil
import tempfile
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import compress, load_compressed, save_compressed
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.runtime import Governor
from repro.service import ServiceClient, ServiceError
from repro.service.protocol import QUERY_OPS
from repro.service.server import ServiceConfig, _handle_request
from repro.storage.segments import SegmentStore, StorePolicy
from repro.testing import first_divergence

NODES = 6
#: Ingest seals a tail of four contacts inline, and ``compact_once`` merges
#: as soon as there are two segments.
POLICY = StorePolicy(seal_contacts=4, max_segments=1)

batches = st.lists(
    st.tuples(
        st.integers(0, NODES - 1),
        st.integers(0, NODES - 1),
        st.integers(0, 40),
        st.integers(0, 5),
    ),
    min_size=1,
    max_size=8,
)


class _Served(ServiceClient):
    """The service's request handler behind the client's query methods.

    Each call is one request and one response, both through JSON, with
    no socket in between.
    """

    def __init__(self, graph) -> None:
        self.last_skipped = []
        self._graph = graph
        self._governor = Governor()
        self._config = ServiceConfig()

    def _call(self, op, params=None):
        request = json.loads(json.dumps({"id": 1, "op": op, "params": params}))
        response = json.loads(json.dumps(_handle_request(
            self._graph, self._governor, self._config, request, 0
        )))
        if not response["ok"]:
            error = response["error"]
            raise ServiceError(error["type"], error["message"])
        return response["result"]


def _windows(rows):
    """Windows at contact boundaries, one step either side, and inverted."""
    if not rows:
        return [(0, 10), (10, 0)]
    bounds = sorted({t for r in rows for t in (r[2], r[2] + r[3])})
    picks = sorted({bounds[0], bounds[len(bounds) // 2], bounds[-1]})
    windows = [(bounds[0] - 1, bounds[-1] + 1)]
    for b in picks:
        windows += [(b - 1, b - 1), (b, b), (b + 1, b + 1), (b - 1, b + 1),
                    (b + 1, b - 1)]
    return windows


def _calls(rows, n):
    """Every table op over every node and window, plus batches.

    Each op that takes a node also runs on the ids just outside
    ``[0, n)``, and one batch per such id puts it after a valid query.
    """
    windows = _windows(rows)
    partner = {}
    for u, v, _t, _d in rows:
        partner.setdefault(u, v)
    edges = [
        (u, v) for u in range(n) for v in sorted({partner.get(u, 0), (u + 1) % n})
    ]
    outside = [-1, n, n + 3]
    # Argument tuples keyed by the table's argument names: an op whose
    # names match no key fails here instead of going unchecked.
    values = {
        "u": list(range(n)) + outside,
        "t_start, t_end": windows,
        "u, t_start, t_end": [(u, *w) for u in range(n) for w in windows]
        + [(u, *windows[0]) for u in outside],
        "u, v": edges + [(u, 0) for u in outside],
        "u, v, t_start, t_end": [e + w for e in edges for w in windows]
        + [(u, 0, *windows[0]) for u in outside],
    }
    values["queries"] = [
        [(u, *w) for u in range(n) for w in windows]
    ] + [[(0, *windows[0]), (u, *windows[0])] for u in outside]
    calls = []
    for op, query in QUERY_OPS.items():
        for args in values[", ".join(query.args)]:
            calls.append((op, args if isinstance(args, tuple) else (args,)))
    return calls


class StoreAgainstOracle(RuleBasedStateMachine):
    """A store grown by random steps, checked after each against the oracle."""

    def __init__(self) -> None:
        super().__init__()
        self.work = Path(tempfile.mkdtemp(prefix="oracle-machine-"))
        self.store = None
        self.rows = []

    @initialize(kind=st.sampled_from(list(GraphKind)))
    def create(self, kind):
        self.kind = kind
        self.store = SegmentStore.create(self.work / "s", kind, policy=POLICY)

    @rule(batch=batches)
    def ingest(self, batch):
        if self.kind is not GraphKind.INTERVAL:
            batch = [(u, v, t, 0) for u, v, t, _d in batch]
        assert self.store.ingest(batch) == len(batch)
        self.rows.extend(batch)

    @precondition(lambda self: self.store is not None and self.store.tail_size)
    @rule()
    def seal(self):
        assert self.store.seal() is not None

    @precondition(
        lambda self: self.store is not None and self.store.graph.segment_count > 1
    )
    @rule()
    def compact(self):
        assert self.store.compact_once()

    @rule(mmap=st.booleans())
    def reopen(self, mmap):
        self.store.close()
        self.store = SegmentStore.open(self.work / "s", policy=POLICY, mmap=mmap)

    @invariant()
    def every_surface_answers_as_the_oracle(self):
        if self.store is None:
            return
        view = self.store.graph
        assert view.num_contacts == len(self.rows)
        n = view.num_nodes
        oracle = graph_from_contacts(self.kind, self.rows, num_nodes=n)
        monolithic = compress(oracle)
        saved = self.work / "g.chrono"
        save_compressed(monolithic, saved)
        local = [
            ("store view", view),
            ("compress()", monolithic),
            ("compress() reloaded", load_compressed(saved, mmap=False)),
            ("compress() mapped", load_compressed(saved, mmap=True)),
        ]
        calls = _calls(self.rows, n)
        for name, surface in local + [("served", _Served(view))]:
            flaw = first_divergence(surface, oracle, calls)
            assert flaw is None, f"{name}: {flaw}"
        for name, surface in local:
            for t0, t1 in _windows(self.rows):
                assert list(surface.iter_window_neighbors(t0, t1)) == [
                    (u, oracle.ref_neighbors(u, t0, t1)) for u in range(n)
                ], (name, t0, t1)
            assert [surface.distinct_neighbors(u) for u in range(n)] == [
                oracle.distinct_neighbors(u) for u in range(n)
            ], name
            assert sorted(surface.iter_contacts()) == oracle.contacts, name

    def teardown(self) -> None:
        if self.store is not None:
            self.store.close()
        shutil.rmtree(self.work, ignore_errors=True)


StoreAgainstOracle.TestCase.settings = settings(
    max_examples=30, stateful_step_count=10, deadline=None
)
TestStoreAgainstOracle = StoreAgainstOracle.TestCase
