"""Seals and merges write the bytes the contact path wrote.

A seal groups the store's sorted tail into node records, and a merge
combines the two segments' decoded records node by node; neither builds
contacts or a graph.  The contact path they replaced stays here as the
oracle: the segment's contacts become a ``TemporalGraph``, which is
compressed at resolution 1, has the store's resolution stamped back on its
configuration and is serialised; its manifest entry is summarised from the
same contacts.  Every sealed and every merged segment must match it byte
for byte and field for field -- across all three graph kinds, batches
ingested out of time order (so segments overlap in time), contacts
repeated across segments, zero-duration interval contacts and a store
that aggregates time.
"""

import dataclasses
import random
import tempfile
import zlib
from pathlib import Path

from hypothesis import example, given, strategies as st

from repro.core import ChronoGraphConfig, compress, load_compressed
from repro.core.serialize import dumps_compressed
from repro.graph.model import Contact, GraphKind, TemporalGraph
from repro.storage.segments import SegmentInfo, SegmentStore, StorePolicy

#: Stores of every kind use one of these: the default, a store that
#: aggregates time by 3, short intervals over few references, and fixed
#: zeta parameters.
CONFIGS = [
    ChronoGraphConfig(),
    ChronoGraphConfig(resolution=3),
    ChronoGraphConfig(window=2, min_interval_length=2, max_ref_chain=None),
    ChronoGraphConfig(timestamp_zeta_k=4, duration_zeta_k=2, structure_zeta_k=1),
]

NODES = 14


def contact_path_segment(kind, contacts, config, name, seq):
    """The container bytes and manifest entry of the old contact path."""
    resolution = config.resolution
    stored = dataclasses.replace(config, resolution=1) if resolution > 1 else config
    nodes = max(max(c.u, c.v) for c in contacts) + 1
    graph = TemporalGraph(
        kind, nodes, list(contacts), name=name, granularity="stored"
    )
    fresh = compress(graph, stored)
    if resolution > 1:
        fresh.config = dataclasses.replace(fresh.config, resolution=resolution)
    payload = dumps_compressed(fresh)
    t_max = max(c.time for c in contacts)
    info = SegmentInfo(
        name=name,
        seq=seq,
        size=len(payload),
        crc=zlib.crc32(payload),
        contacts=len(contacts),
        nodes=nodes,
        t_min=min(c.time for c in contacts),
        t_max=t_max,
        t_end_max=max(t_max, max(c.time + c.duration for c in contacts)),
    )
    return payload, info


def segment_contacts(directory, info):
    """Every contact a sealed segment holds, in stored time units."""
    return list(load_compressed(directory / info.name).iter_contacts())


def assert_matches_contact_path(directory, store, info, contacts):
    payload, expected = contact_path_segment(
        store.manifest.kind, contacts, store.manifest.config, info.name, info.seq
    )
    assert info == expected
    assert (directory / info.name).read_bytes() == payload


@st.composite
def store_runs(draw):
    """A kind, a config and batches with seal and merge points.

    Times are drawn per batch, so batches arrive out of time order; later
    batches repeat earlier contacts; interval durations include 0.
    """
    kind = draw(st.sampled_from(list(GraphKind)))
    config = draw(st.sampled_from(CONFIGS))
    max_duration = 6 if kind is GraphKind.INTERVAL else 0
    contact = st.builds(
        Contact,
        st.integers(0, NODES - 1),
        st.integers(0, NODES - 1),
        st.integers(0, 90),
        st.integers(0, max_duration),
    )
    batches = []
    seen = []
    for _ in range(draw(st.integers(1, 7))):
        batch = draw(st.lists(contact, min_size=1, max_size=24))
        if seen:
            batch += draw(st.lists(st.sampled_from(seen), max_size=6))
        seen.extend(batch)
        batches.append((batch, draw(st.booleans())))
    return kind, config, batches, draw(st.integers(1, 3))


def run_store(kind, config, batches, max_segments):
    """Ingest, seal and merge as drawn; check every new segment as it lands."""
    policy = StorePolicy(
        seal_contacts=1 << 20,
        max_segments=max_segments,
        backpressure_contacts=1 << 21,
    )
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "store"
        with SegmentStore.create(directory, kind, config, policy=policy) as store:
            for i, (batch, seal) in enumerate(batches):
                store.ingest(batch)
                if not (seal or i == len(batches) - 1):
                    continue
                contacts = list(store.graph.iter_contacts())
                tail = contacts[len(contacts) - store.tail_size:]
                info = store.seal()
                assert_matches_contact_path(directory, store, info, tail)
                checked += 1
                while store.compaction_needed():
                    a, b = store.pick_merge()
                    contacts = segment_contacts(directory, a)
                    contacts += segment_contacts(directory, b)
                    before = store.manifest.segments
                    assert store.compact_once()
                    (merged,) = set(store.manifest.segments) - set(before)
                    assert_matches_contact_path(directory, store, merged, contacts)
                    checked += 1
    return checked


class TestSegmentsMatchContactPath:
    @given(store_runs())
    @example((
        GraphKind.INTERVAL,
        ChronoGraphConfig(resolution=3),
        [
            ([Contact(1, 2, 50, 0), Contact(1, 2, 50, 4), Contact(3, 1, 7, 0)], True),
            ([Contact(1, 2, 2, 0), Contact(1, 2, 50, 0), Contact(0, 9, 80, 1)], True),
        ],
        1,
    ))
    def test_sealed_and_merged_segments(self, run):
        kind, config, batches, max_segments = run
        assert run_store(kind, config, batches, max_segments) >= 1

    def test_overlapping_segments_of_every_kind(self):
        # Three overlapping time ranges, merged down to one segment: nodes
        # held by both inputs, repeated contacts and zero durations.
        rng = random.Random(7)
        for kind in GraphKind:
            for config in CONFIGS:
                batches = []
                for lo in (40, 0, 20):
                    batch = [
                        Contact(
                            rng.randrange(NODES),
                            rng.randrange(NODES),
                            lo + rng.randrange(60),
                            rng.randrange(4) if kind is GraphKind.INTERVAL else 0,
                        )
                        for _ in range(40)
                    ]
                    batches.append((batch + batch[:5], True))
                assert run_store(kind, config, batches, 1) == 5
