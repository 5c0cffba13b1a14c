"""Tests for the vertex-centric engine and stock programs.

networkx provides the oracles for components and BFS levels.
"""

import random

import networkx as nx
import pytest

from repro.baselines import get_compressor
from repro.core import compress
from repro.graph.builders import graph_from_contacts
from repro.graph.model import GraphKind
from repro.vertexcentric import (
    BreadthFirstLevels,
    ComputeContext,
    ConnectedComponents,
    PageRankProgram,
    SuperstepEngine,
    VertexProgram,
)


def _compressed(contacts, n=None):
    return compress(graph_from_contacts(GraphKind.POINT, contacts, num_nodes=n))


def _random_compressed(seed, n=25, m=80, t_max=100):
    rng = random.Random(seed)
    contacts = [(rng.randrange(n), rng.randrange(n), rng.randrange(t_max))
                for _ in range(m)]
    return _compressed(contacts, n), contacts


class _EchoProgram(VertexProgram):
    """Sends its id once; counts received messages."""

    def initial_value(self, vertex, ctx):
        return 0

    def compute(self, vertex, value, messages, ctx):
        if ctx.superstep == 0:
            ctx.send_to_neighbors(1)
            ctx.vote_to_halt()
            return 0
        ctx.vote_to_halt()
        if messages is None:
            return value
        return value + (sum(messages) if isinstance(messages, list) else messages)

    def combine(self, a, b):
        return a + b


class TestEngine:
    def test_message_delivery_and_halting(self):
        cg = _compressed([(0, 1, 5), (2, 1, 5)], n=3)
        engine = SuperstepEngine(cg, 0, 10)
        values = engine.run(_EchoProgram())
        assert values == [0, 2, 0]  # vertex 1 received from 0 and 2

    def test_window_restricts_topology(self):
        cg = _compressed([(0, 1, 5), (0, 2, 50)], n=3)
        early = SuperstepEngine(cg, 0, 10).run(_EchoProgram())
        assert early == [0, 1, 0]
        late = SuperstepEngine(cg, 40, 60).run(_EchoProgram())
        assert late == [0, 0, 1]

    def test_rejects_bad_supersteps(self):
        cg = _compressed([(0, 1, 1)])
        with pytest.raises(ValueError):
            SuperstepEngine(cg, 0, 1, max_supersteps=0)

    def test_rejects_out_of_range_message(self):
        cg = _compressed([(0, 1, 1)])

        class Bad(VertexProgram):
            def initial_value(self, vertex, ctx):
                return 0

            def compute(self, vertex, value, messages, ctx):
                ctx.send(99, 1)
                return 0

        with pytest.raises(ValueError):
            SuperstepEngine(cg, 0, 1).run(Bad())

    def test_undirected_view_symmetrises(self):
        cg = _compressed([(0, 1, 1)], n=2)
        engine = SuperstepEngine(cg, 0, 10, undirected=True)
        assert engine.adjacency(0) == [1]
        assert engine.adjacency(1) == [0]

    def test_adjacency_cached_per_run(self):
        cg = _compressed([(0, 1, 1)], n=2)
        engine = SuperstepEngine(cg, 0, 10)
        first = engine.adjacency(0)
        assert engine.adjacency(0) is first


class TestPageRank:
    def test_matches_pull_based_implementation(self):
        from repro.algorithms import pagerank

        cg, _ = _random_compressed(1)
        engine = SuperstepEngine(cg, 0, 100, max_supersteps=60)
        vc = engine.run(PageRankProgram(supersteps=50))
        reference = pagerank(cg, 0, 100, iterations=50)
        assert sum(vc) == pytest.approx(1.0, abs=0.02)
        for a, b in zip(vc, reference):
            assert a == pytest.approx(b, abs=0.01)

    def test_rejects_bad_damping(self):
        with pytest.raises(ValueError):
            PageRankProgram(damping=0.0)


class TestConnectedComponents:
    def test_matches_networkx(self):
        cg, contacts = _random_compressed(7)
        engine = SuperstepEngine(cg, 0, 100, undirected=True, max_supersteps=60)
        labels = engine.run(ConnectedComponents())

        g = nx.Graph()
        g.add_nodes_from(range(cg.num_nodes))
        g.add_edges_from((u, v) for u, v, _ in contacts)
        for component in nx.connected_components(g):
            expected = min(component)
            for node in component:
                assert labels[node] == expected

    def test_two_components(self):
        cg = _compressed([(0, 1, 1), (1, 2, 1), (3, 4, 1)], n=5)
        engine = SuperstepEngine(cg, 0, 10, undirected=True)
        assert engine.run(ConnectedComponents()) == [0, 0, 0, 3, 3]

    def test_baseline_graph_without_bulk_scan(self):
        """A graph with only ``neighbors`` (a baseline) is symmetrised per node."""
        graph = graph_from_contacts(
            GraphKind.POINT, [(0, 1, 1), (2, 1, 1), (3, 4, 1)], num_nodes=5
        )
        edgelog = get_compressor("EdgeLog").compress(graph)
        assert not hasattr(edgelog, "iter_window_neighbors")
        engine = SuperstepEngine(edgelog, 0, 10, undirected=True)
        assert engine.run(ConnectedComponents()) == [0, 0, 0, 3, 3]


class TestBreadthFirst:
    def test_matches_networkx_levels(self):
        cg, contacts = _random_compressed(9)
        engine = SuperstepEngine(cg, 0, 100, max_supersteps=60)
        levels = engine.run(BreadthFirstLevels(source=0))

        g = nx.DiGraph()
        g.add_nodes_from(range(cg.num_nodes))
        g.add_edges_from((u, v) for u, v, _ in contacts)
        expected = nx.single_source_shortest_path_length(g, 0)
        for node in range(cg.num_nodes):
            assert levels[node] == expected.get(node, -1)

    def test_chain(self):
        cg = _compressed([(0, 1, 1), (1, 2, 1), (2, 3, 1)], n=5)
        engine = SuperstepEngine(cg, 0, 10)
        assert engine.run(BreadthFirstLevels(source=0)) == [0, 1, 2, 3, -1]

    def test_rejects_negative_source(self):
        with pytest.raises(ValueError):
            BreadthFirstLevels(source=-1)


class TestTemporalWindows:
    def test_components_change_over_time(self):
        """The Section VI vision: vertex-centric runs per historical window."""
        cg = _compressed([(0, 1, 10), (2, 3, 10), (1, 2, 90)], n=4)
        early = SuperstepEngine(cg, 0, 20, undirected=True).run(ConnectedComponents())
        assert early == [0, 0, 2, 2]
        merged = SuperstepEngine(cg, 0, 100, undirected=True).run(ConnectedComponents())
        assert merged == [0, 0, 0, 0]
