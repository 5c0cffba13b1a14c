"""Zero-copy mmap loading: bit-identical answers, lazy CRC parity, sharing.

The contract under test: ``load_compressed(path, mmap=True)`` maps the
container read-only and answers every query API bit-identically to the
heap loader.  Lazy CRC verification changes *when* corruption is
reported (first touch instead of load), never *what* is raised -- every
mutation class produces the same :class:`FormatError` subclass on both
paths.  Mapped readers are isolated from concurrent writers because
sealed segment files are immutable (replaced by rename, never edited in
place).
"""

import mmap as mmap_module
import multiprocessing
import pickle
import random

import pytest

from repro.core import compress
from repro.core.serialize import (
    dumps_compressed,
    load_compressed,
    load_compressed_bytes,
    salvage_bytes,
    save_compressed,
)
from repro.errors import ChecksumMismatchError
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind
from repro.storage.segments import SegmentStore, StorePolicy
from repro.testing.faults import default_mutations, run_fault_injection


def _contacts(seed=11, n=40, m=400):
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        rows.append(Contact(u, v, rng.randrange(2000), 0))
    return rows


def _graph(seed=11, n=40, m=400):
    return graph_from_contacts(
        GraphKind.POINT, _contacts(seed, n, m), num_nodes=n
    )


@pytest.fixture
def container(tmp_path):
    cg = compress(_graph())
    path = tmp_path / "graph.chrono"
    save_compressed(cg, path)
    return path


def _answers(graph):
    """A deterministic transcript of every query API."""
    n = graph.num_nodes
    return {
        "contacts": list(graph.iter_contacts()),
        "neighbors": [graph.neighbors(u, 0, 2000) for u in range(n)],
        "distinct": [graph.distinct_neighbors(u) for u in range(n)],
        "many": graph.neighbors_many([(u, 100, 900) for u in range(n)]),
        "snapshot": graph.snapshot(250, 1250),
        "edges": [graph.has_edge(u, (u + 1) % n, 0, 2000) for u in range(n)],
        "timestamps": [graph.edge_timestamps(u, (u + 3) % n) for u in range(n)],
    }


class TestMappedAnswersAreBitIdentical:
    def test_every_query_api_matches_heap(self, container):
        heap = load_compressed(container)
        mapped = load_compressed(container, mmap=True)
        assert _answers(mapped) == _answers(heap)

    def test_mapped_graph_reserialises_byte_identically(self, container):
        mapped = load_compressed(container, mmap=True)
        assert dumps_compressed(mapped) == container.read_bytes()

    def test_buffers_are_views_not_copies(self, container):
        mapped = load_compressed(container, mmap=True)
        assert isinstance(mapped._sbytes, memoryview)
        assert isinstance(mapped._tbytes, memoryview)
        # The views must be backed by the mapping, not a heap copy.
        assert isinstance(mapped._sbytes.obj, mmap_module.mmap)

    def test_heap_loader_unaffected(self, container):
        heap = load_compressed(container)
        assert bytes(heap._sbytes) == bytes(
            load_compressed(container, mmap=True)._sbytes
        )


def _store_answers(graph):
    """Query transcript for a segmented store facade (no distinct API)."""
    n = graph.num_nodes
    return {
        "contacts": list(graph.iter_contacts()),
        "neighbors": [graph.neighbors(u, 0, 2000) for u in range(n)],
        "snapshot": graph.snapshot(250, 1250),
        "edges": [graph.has_edge(u, (u + 1) % n, 0, 2000) for u in range(n)],
    }


def _child_transcript(path, queue):
    graph = load_compressed(path, mmap=True)
    queue.put(_answers(graph))


class TestCrossProcessSharing:
    def test_two_processes_map_same_container(self, container):
        """Two processes mapping one file give bit-identical answers."""
        expected = _answers(load_compressed(container))
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_child_transcript, args=(container, queue))
            for _ in range(2)
        ]
        for w in workers:
            w.start()
        results = [queue.get(timeout=30) for _ in workers]
        for w in workers:
            w.join(timeout=30)
            assert w.exitcode == 0
        assert results == [expected, expected]

    def test_pickle_materialises_mapped_buffers(self, container):
        mapped = load_compressed(container, mmap=True)
        clone = pickle.loads(pickle.dumps(mapped))
        assert isinstance(clone._sbytes, bytes)
        assert _answers(clone) == _answers(mapped)


class TestWriterReaderIsolation:
    def test_sealing_never_perturbs_mapped_reader(self, tmp_path):
        """Sealed segments are immutable: a mapped reader's answers are
        frozen at open even while the writer keeps sealing new data."""
        root = tmp_path / "store"
        policy = StorePolicy(seal_contacts=50)
        writer = SegmentStore.create(root, GraphKind.POINT, policy=policy)
        writer.ingest(_contacts(seed=1, m=120))
        writer.seal()

        reader = SegmentStore.open(
            root, policy=policy, read_only=True, mmap=True
        )
        before = _store_answers(reader.graph)

        writer.ingest(_contacts(seed=2, m=300))
        writer.seal()
        while writer.compact_once():
            pass
        writer.close()

        assert _store_answers(reader.graph) == before
        reader.close()


class TestLazyCrcParity:
    def test_every_mutation_class_raises_same_error(self, container):
        blob = container.read_bytes()
        report = run_fault_injection(
            blob, default_mutations(blob, stride_bits=256)
        )
        assert report.ok, report.summary()
        assert report.detected > 0

    @staticmethod
    def _flip_structure_stream_byte(blob):
        """Corrupt one byte inside the structure stream payload."""
        import struct

        blob = bytearray(blob)
        (hlen,) = struct.unpack_from("<I", blob, 6)
        # magic+version+flags, header length, header, header CRC, then
        # section tag, payload length, nbits prefix.
        payload = 6 + 4 + hlen + 4 + 1 + 8 + 8
        blob[payload + 5] ^= 0xFF
        return blob

    def test_corruption_surfaces_at_first_touch(self, container):
        blob = self._flip_structure_stream_byte(container.read_bytes())
        mapped = load_compressed_bytes(memoryview(blob), lazy_crc=True)
        with pytest.raises(ChecksumMismatchError):
            list(mapped.iter_contacts())

    def test_eager_load_still_fails_up_front(self, container):
        blob = self._flip_structure_stream_byte(container.read_bytes())
        with pytest.raises(ChecksumMismatchError):
            load_compressed_bytes(bytes(blob))

    def test_deferred_checks_clear_after_first_touch(self, container):
        mapped = load_compressed(container, mmap=True)
        assert mapped._sverify is not None
        assert mapped._tverify is not None
        list(mapped.iter_contacts())
        assert mapped._sverify is None
        assert mapped._tverify is None


class TestSalvageOverMapping:
    def test_salvage_accepts_memoryview(self, container):
        blob = container.read_bytes()
        from_view = salvage_bytes(memoryview(blob))
        from_bytes = salvage_bytes(blob)
        assert list(from_view.graph.iter_contacts()) == list(
            from_bytes.graph.iter_contacts()
        )

    def test_salvage_path_maps_the_file(self, container):
        result = load_compressed(container, salvage=True)
        assert list(result.graph.iter_contacts()) == list(
            load_compressed(container).iter_contacts()
        )
