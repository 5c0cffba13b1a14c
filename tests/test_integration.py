"""End-to-end pipeline integration tests.

Each test runs a complete user journey across multiple subsystems --
generation, text IO, compression, serialization, queries, algorithms,
vertex-centric computation -- asserting cross-layer consistency rather
than any single module's behaviour.
"""

import random

import pytest

from repro.algorithms import detect_bursts, pagerank, temporal_closeness
from repro.baselines import get_compressor
from repro.bench.harness import BENCH_METHODS
from repro.core import (
    ChronoGraphConfig,
    compress,
    load_compressed,
    save_compressed,
)
from repro.datasets import load
from repro.graph.aggregate import aggregate
from repro.graph.io import read_contact_text, write_contact_text
from repro.graph.model import GraphKind
from repro.graph.reorder import apply_relabeling, bfs_order
from repro.storage.segments import SegmentStore
from repro.vertexcentric import ConnectedComponents, SuperstepEngine


class TestFullPipeline:
    def test_generate_write_read_compress_save_load_query(self, tmp_path):
        graph = load("yahoo-sub", scale=0.05)
        text_path = tmp_path / "flows.txt"
        write_contact_text(graph, text_path)
        reread = read_contact_text(text_path)
        assert reread.contacts == graph.contacts

        cg = compress(reread)
        chrono_path = tmp_path / "flows.chrono"
        save_compressed(cg, chrono_path)
        loaded = load_compressed(chrono_path)

        rng = random.Random(1)
        for _ in range(50):
            u = rng.randrange(graph.num_nodes)
            t1 = rng.randrange(54_000)
            t2 = t1 + rng.randrange(5_000)
            assert loaded.neighbors(u, t1, t2) == graph.ref_neighbors(u, t1, t2)

    def test_aggregate_then_compress_equals_compress_with_resolution(self):
        graph = load("wiki-edit", scale=0.05)
        pre = compress(aggregate(graph, 3600))
        via = compress(graph, ChronoGraphConfig(resolution=3600))
        assert pre.size_in_bits == via.size_in_bits
        assert pre.to_temporal_graph().contacts == via.to_temporal_graph().contacts

    def test_reorder_compress_query_consistency(self):
        graph = load("flickr", scale=0.05)
        perm = bfs_order(graph)
        relabeled = apply_relabeling(graph, perm)
        cg = compress(relabeled)
        for u in range(0, graph.num_nodes, max(1, graph.num_nodes // 10)):
            expected = sorted(perm[v] for v in graph.ref_neighbors(u, 0, 200))
            assert cg.neighbors(perm[u], 0, 200) == expected

    def test_every_method_agrees_on_one_workload(self):
        graph = load("comm-net", scale=0.06)
        rng = random.Random(9)
        queries = [
            (rng.randrange(graph.num_nodes), rng.randrange(40),
             rng.randrange(40, 80))
            for _ in range(20)
        ]
        answers = None
        for method in BENCH_METHODS:
            cg = get_compressor(method).compress(graph)
            got = [tuple(cg.neighbors(u, t1, t2)) for u, t1, t2 in queries]
            if answers is None:
                answers = got
            else:
                assert got == answers, method

    def test_algorithms_on_compressed_equal_uncompressed(self):
        graph = load("powerlaw", scale=0.04)
        cg = compress(graph)

        class RefView:
            num_nodes = graph.num_nodes
            kind = graph.kind
            neighbors = staticmethod(graph.ref_neighbors)
            contacts_of = staticmethod(graph.contacts_of)

        span = graph.lifetime
        assert pagerank(cg, 0, span) == pytest.approx(pagerank(RefView(), 0, span))
        assert temporal_closeness(cg, 0) == pytest.approx(
            temporal_closeness(RefView(), 0)
        )

    def test_streaming_to_vertexcentric(self, tmp_path):
        """Grow a store, seal, then run components on the sealed segment."""
        with SegmentStore.create(tmp_path / "s", GraphKind.POINT) as store:
            for t, (u, v) in enumerate([(0, 1), (1, 2), (3, 4), (4, 5), (2, 0)]):
                store.ingest([(u, v, t)])
            store.seal()
            compressed = store.graph._segments[0][1]
        engine = SuperstepEngine(compressed, 0, 100, undirected=True)
        labels = engine.run(ConnectedComponents())
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    def test_anomaly_pipeline_on_aggregated_graph(self):
        graph = load("yahoo-sub", scale=0.05)
        cg = compress(graph, ChronoGraphConfig(resolution=60))
        minutes = graph.lifetime // 60
        anomalies = detect_bursts(cg, window=60, t_start=0, t_end=minutes,
                                  z_threshold=4.0)
        for node, start, z in anomalies:
            assert 0 <= node < graph.num_nodes
            assert z > 4.0
