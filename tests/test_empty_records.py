"""Sequential scans pass over empty records without decoding them.

An empty node is stored as the 4-bit structure record ``1111`` and no
timestamp bits.  The one walker behind ``snapshot``, ``iter_contacts``,
``iter_window_neighbors`` and ``to_static_graph`` yields such a node without
a seek, a decode or a record-cache lookup.  These tests pin what that must
not change: the answers on sparse graphs, heap-loaded and mapped alike; the
cache counters, which count non-empty records only; and the error raised
when a 4-bit record is corrupt.

A point lookup of an empty node caches the graph's one shared empty
record instead of decoding it, and keeps the same error parity.
"""

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core import compress
from repro.core import compressed
from repro.core.serialize import load_compressed, save_compressed
from repro.errors import FormatError, QueryCancelled
from repro.errors import ChecksumMismatchError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.runtime.context import QueryContext
from tests.test_bulk_writers import sparse_graphs

windows = st.tuples(st.integers(-5, 520), st.integers(-5, 520))


class TestAnswers:
    @given(graph=sparse_graphs(), window=windows)
    def test_scans_match_reference(self, graph, window):
        t1, t2 = window
        n = graph.num_nodes
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.chrono"
            save_compressed(compress(graph), path)
            for mapped in (False, True):
                cg = load_compressed(path, mmap=mapped)
                assert cg.snapshot(t1, t2) == graph.ref_snapshot(t1, t2)
                assert list(cg.iter_contacts()) == [
                    c for u in range(n) for c in graph.contacts_of(u)
                ]
                assert cg.to_static_graph() == [
                    (u, v) for u in range(n) for v in graph.distinct_neighbors(u)
                ]
                pairs = list(cg.iter_window_neighbors(t1, t2))
                assert [u for u, _ in pairs] == list(range(n))
                assert pairs == [
                    (u, graph.ref_neighbors(u, t1, t2)) for u in range(n)
                ]

    def test_cancel_reaches_empty_nodes(self):
        # ctx is polled once per node id, empty or not.
        cg = compress(graph_from_contacts(GraphKind.POINT, [], num_nodes=10))
        ctx = QueryContext()
        it = cg.iter_window_neighbors(0, 10, ctx=ctx)
        assert next(it) == (0, [])
        ctx.cancel()
        with pytest.raises(QueryCancelled):
            next(it)


#: 30 node ids, 5 of them with contacts: empty runs before, between and
#: after them, and an empty record at every bit alignment.
_ROWS = [
    (2, 4, 10, 4), (2, 20, 11, 0), (9, 5, 12, 0), (10, 6, 13, 3),
    (10, 6, 14, 5), (10, 6, 15, 1), (17, 1, 16, 3), (23, 1, 17, 3),
]
_ACTIVE = 5


@pytest.fixture(params=list(GraphKind), ids=lambda k: k.name.lower())
def sparse(request):
    kind = request.param
    rows = _ROWS if kind is GraphKind.INTERVAL else [r[:3] for r in _ROWS]
    return compress(graph_from_contacts(kind, rows, num_nodes=30))


class TestCacheAccounting:
    @pytest.mark.parametrize(
        "walk",
        [
            lambda cg: cg.snapshot(0, 100),
            lambda cg: list(cg.iter_contacts()),
            lambda cg: list(cg.iter_window_neighbors(0, 100)),
        ],
        ids=["snapshot", "iter_contacts", "iter_window_neighbors"],
    )
    def test_walk_counts_non_empty_records_only(self, sparse, walk):
        walk(sparse)
        stats = sparse.cache_stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (
            _ACTIVE, 0, _ACTIVE
        )
        walk(sparse)
        stats = sparse.cache_stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (
            _ACTIVE, _ACTIVE, _ACTIVE
        )

    def test_1111_with_timestamp_bits_is_looked_up(self, sparse):
        # The last node is empty; eight stray bits after the timestamp
        # stream give it a non-empty timestamp record, so the walk decodes
        # and caches it like any other record.  The answer is unchanged.
        expected = list(sparse.iter_contacts())
        sparse.clear_cache()
        sparse._tbytes = bytes(sparse._tbytes) + b"\xff"
        sparse._tbits = 8 * len(sparse._tbytes)
        assert list(sparse.iter_contacts()) == expected
        assert sparse.cache_stats()["entries"] == _ACTIVE + 1

    def test_structure_only_walk_caches_non_empty_lists_only(self, sparse):
        sparse.to_static_graph()
        assert len(sparse._distinct_cache) == _ACTIVE
        assert sparse.cache_stats()["misses"] == 0

    def test_point_lookups_cache_one_shared_empty_record(
        self, sparse, monkeypatch
    ):
        decoded = []
        decode = compressed.decode_node_structure

        def counting(reader, u, *args, **kwargs):
            decoded.append(u)
            return decode(reader, u, *args, **kwargs)

        monkeypatch.setattr(compressed, "decode_node_structure", counting)
        empty = sorted(set(range(sparse.num_nodes)) - {r[0] for r in _ROWS})
        for u in empty:
            assert sparse.neighbors(u, 0, 100) == []
            assert sparse.contacts_of(u) == []
        records = [sparse._records[u][1] for u in empty]
        assert all(record is records[0] for record in records)
        assert records[0] == (
            [], [], [] if sparse.kind is GraphKind.INTERVAL else None
        )
        assert decoded == []
        stats = sparse.cache_stats()
        assert (stats["misses"], stats["hits"]) == (len(empty), len(empty))
        assert stats["current_bytes"] == 120 * len(empty)


def _overwrite(data, start, pattern):
    """``data`` with the 4 bits at ``start`` replaced by ``pattern``."""
    out = bytearray(data)
    for i in range(4):
        pos = start + i
        mask = 0x80 >> (pos & 7)
        if (pattern >> (3 - i)) & 1:
            out[pos >> 3] |= mask
        else:
            out[pos >> 3] &= ~mask & 0xFF
    return bytes(out)


def _outcome(run):
    """The answer, or the FormatError subclass raised instead of one."""
    try:
        return run()
    except FormatError as exc:
        return type(exc)


class TestCorruptionParity:
    @pytest.mark.parametrize("pattern", range(15))
    def test_corrupt_4_bit_record_fails_like_a_lookup(self, sparse, pattern):
        n = sparse.num_nodes
        blob = pickle.dumps(sparse)
        kind = sparse.kind
        empty = [u for u in range(n) if not sparse.contacts_of(u)]
        starts = {sparse._soffsets[u] & 7 for u in empty}
        assert starts == set(range(8)) and n - 1 in empty
        for u in empty:
            mutated = _overwrite(sparse._sbytes, sparse._soffsets[u], pattern)

            def fresh():
                graph = pickle.loads(blob)
                graph._sbytes = mutated
                return graph

            lookup = fresh()
            expected = _outcome(
                lambda: [c for w in range(n) for c in lookup.contacts_of(w)]
            )
            assert _outcome(lambda: list(fresh().iter_contacts())) == expected
            if isinstance(expected, list):
                expected = sorted(
                    {(c.u, c.v) for c in expected if c.is_active(0, 100, kind)}
                )
            assert _outcome(lambda: fresh().snapshot(0, 100)) == expected

    @pytest.mark.parametrize("pattern", range(16))
    def test_corrupt_4_bit_record_point_lookups(
        self, sparse, pattern, tmp_path, monkeypatch
    ):
        # Saved with fresh checksums, so only the record itself is corrupt.
        # Lookups of every node, heap-loaded and mapped, answer or fail as
        # lookups that decode every record, empty ones included, do.
        n = sparse.num_nodes
        blob = pickle.dumps(sparse)
        empty = sorted(set(range(n)) - {r[0] for r in _ROWS})

        def lookups(graph):
            return _outcome(lambda: [graph.contacts_of(w) for w in range(n)])

        for u in empty:
            graph = pickle.loads(blob)
            graph._sbytes = _overwrite(
                sparse._sbytes, sparse._soffsets[u], pattern
            )
            path = tmp_path / f"{u}.chrono"
            save_compressed(graph, path)
            with monkeypatch.context() as patch:
                patch.setattr(compressed, "_is_empty_record", lambda *a: False)
                expected = lookups(load_compressed(path))
            for mapped in (False, True):
                assert lookups(load_compressed(path, mmap=mapped)) == expected

    @pytest.mark.parametrize("stream", ["_sbytes", "_tbytes"])
    def test_mapped_empty_lookup_verifies_both_streams(
        self, sparse, stream, tmp_path
    ):
        # One flipped bit anywhere in either stream: the heap load refuses
        # the container, so a mapped lookup of an empty node refuses too.
        path = tmp_path / "g.chrono"
        save_compressed(sparse, path)
        blob = bytearray(path.read_bytes())
        payload = bytes(getattr(sparse, stream))
        assert blob.count(payload) == 1
        blob[blob.index(payload) + len(payload) - 1] ^= 1
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatchError):
            load_compressed(path)
        empty = sorted(set(range(sparse.num_nodes)) - {r[0] for r in _ROWS})
        for u in empty:
            with pytest.raises(ChecksumMismatchError):
                load_compressed(path, mmap=True).neighbors(u, 0, 100)
