"""The README's quickstart snippet must keep working verbatim."""

from repro import ChronoGraphConfig, GraphKind, TemporalGraphBuilder, compress


def test_readme_quickstart_snippet():
    graph = (
        TemporalGraphBuilder(GraphKind.POINT, name="calls", granularity="second")
        .add(0, 1, 1_209_479_772)
        .add(1, 2, 1_209_479_933)
        .add(0, 1, 1_209_483_450)
        .build()
    )

    cg = compress(graph)
    assert cg.bits_per_contact > 0
    assert cg.neighbors(0, 1_209_479_000, 1_209_480_000) == [1]
    assert cg.has_edge(0, 1, 1_209_483_000, 1_209_484_000)
    assert cg.edge_timestamps(0, 1) == [1_209_479_772, 1_209_483_450]

    hourly = compress(graph, ChronoGraphConfig(resolution=3600))
    assert hourly.size_in_bits <= cg.size_in_bits


def test_readme_baseline_snippet():
    from repro.baselines import get_compressor

    graph = (
        TemporalGraphBuilder(GraphKind.POINT)
        .add(0, 1, 1)
        .add(1, 2, 2)
        .build()
    )
    for name in ("EveLog", "EdgeLog", "CET", "CAS", "ckd-trees", "T-ABT"):
        compressed = get_compressor(name).compress(graph)
        assert compressed.bits_per_contact > 0


def test_tutorial_growable_snippet(tmp_path, monkeypatch):
    from repro.storage import SegmentStore, StorePolicy

    monkeypatch.chdir(tmp_path)
    calls = (
        TemporalGraphBuilder(GraphKind.POINT)
        .add(0, 1, 1_209_479_772)
        .build()
    )
    live = SegmentStore.create("calls.store", GraphKind.POINT,
                               policy=StorePolicy(seal_contacts=4096))
    live.ingest(calls.contacts)
    live.ingest([(2, 0, 1_209_500_000)])
    assert live.graph.neighbors(2, 1_209_400_000, 1_209_600_000) == [0]
    assert live.graph.num_contacts == 2
    live.seal()
    assert live.tail_size == 0
    live.close()
