"""Compressed bytes of the Table V corpora and of store segments are pinned.

The encoder is the single source of truth for the on-disk format, and the
paper's headline figure (bits per contact, Tables III-V) follows from its
output.  A refactor anywhere in the codec, the container or the corpus
generators that changes one byte of these containers changes a reported
result, so it must show up here -- deliberately, with new digests -- not
silently.
"""

import hashlib

import pytest

from repro.core import ChronoGraphConfig, compress
from repro.core.serialize import dumps_compressed
from repro.datasets import registry
from repro.storage.segments import SegmentStore, StorePolicy

#: sha256 of ``dumps_compressed(compress(registry.load(name)))`` at scale 1.0.
DIGESTS = {
    "flickr": "590f52f06a3d7b8b62242e30dee20e984ac4b91e10a8360f08fb41a4f1f4f8bf",
    "wiki-edit": "534eddb057eb3210a96c8418b3ea4b7843d7a1d391f49d665b14a3b7db282c5c",
    "wiki-links-sub": "46d195efc6118b0310a7964c80acc55c97ef4f4a2ea9f1f9fff396c2de6168ef",
    "yahoo-sub": "fcdeb6af0027f7be7ef9108ca476fcc771597250d0dfb13d42521925e6f8da6a",
    "comm-net": "8f7c1a885cb204cad9b038b73f1250bd1ee76184957616d4b08ecd8cf48d3018",
    "powerlaw": "297aba5a7fd4ea2f1d62b1f85960d2c2adfff2b27fbe2e9be45567326d5aa67e",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_compressed_bytes_match_pinned_digest(name):
    blob = dumps_compressed(compress(registry.load(name)))
    assert hashlib.sha256(blob).hexdigest() == DIGESTS[name]


#: Encoder configurations the default-config digests never reach: the k = 1
#: zeta code, no reference candidates, unbounded reference chains, gamma-
#: coded timestamps and durations, and time aggregation.
CONFIGS = {
    "structure_zeta_k=1": ChronoGraphConfig(structure_zeta_k=1),
    "window=0": ChronoGraphConfig(window=0),
    "max_ref_chain=None": ChronoGraphConfig(max_ref_chain=None),
    "timestamp_zeta_k=1,duration_zeta_k=1": ChronoGraphConfig(
        timestamp_zeta_k=1, duration_zeta_k=1
    ),
    "resolution=60": ChronoGraphConfig(resolution=60),
}

#: sha256 of ``dumps_compressed(compress(registry.load(name), config))`` for
#: a point corpus and an interval corpus under every config above.
CONFIG_DIGESTS = {
    "wiki-edit": {
        "structure_zeta_k=1":
            "97bda9a2fd47b19975369599e08ab76322d8fb3cb7355a7541e4e88417b95294",
        "window=0":
            "85280dd08b210b353099511ddcd91bee0da8af9be5633332506e8f851363f719",
        "max_ref_chain=None":
            "7aa2d90c2556774f6136b86a2548872f5fa762466cc1fa35c04e949c3752ea56",
        "timestamp_zeta_k=1,duration_zeta_k=1":
            "9a2b045eb23fd31554a6b241a3f1b95594f01cc1e9f24bd0fd3f46249f26e9a9",
        "resolution=60":
            "76b69811f0efb8f741abf0d4afe2b1df58860316c017c0142f2703de455ccba4",
    },
    "comm-net": {
        "structure_zeta_k=1":
            "f34a029f2f7a778055819549fe80b9e3d2c18eca38ef8f8565e5bd568e96544a",
        "window=0":
            "132505173ba953cd4bb3e05a5131e5a9ad99639924d3b94e8d127ca44a42c4af",
        "max_ref_chain=None":
            "a1f9d80e3fdb49e87ec08899615604fe4354c11ca3784e3ba7dae5f70663c1b4",
        "timestamp_zeta_k=1,duration_zeta_k=1":
            "4a3136be04f688571972d1f1422a63518e834fd7f932d67ba7df6bbaeda01c3d",
        "resolution=60":
            "7e9c7f3c501aaaf846f8e2320e68101c4c3b0a703d415004502aba9f1a1eb406",
    },
}


@pytest.fixture(scope="module")
def config_corpora():
    return {name: registry.load(name) for name in CONFIG_DIGESTS}


@pytest.mark.parametrize(
    "name, label",
    [(name, label) for name in sorted(CONFIG_DIGESTS) for label in CONFIGS],
)
def test_config_bytes_match_pinned_digest(config_corpora, name, label):
    graph = config_corpora[name]
    blob = dumps_compressed(compress(graph, CONFIGS[label]))
    assert hashlib.sha256(blob).hexdigest() == CONFIG_DIGESTS[name][label]


#: sha256 over each sealed segment's name and bytes, in manifest order, of a
#: store fed a corpus in time order, 256 contacts per ``ingest``.  Sealed
#: segments are time-partitioned, so most of their node ids are empty
#: records, written and scanned as runs.  The "merged" stores also run
#: ``compact_once`` whenever the store asks for it, so their segments
#: include merges, encoded from the two inputs' decoded node records.  The
#: digests were computed with the contact path seals and merges took
#: before (segment contacts -> ``TemporalGraph`` -> ``compress``).
STORE_DIGESTS = {
    "sealed": "67b3cfbd3f0a7b7d671f2650f5f3e6982d41d98f6ae48597726cbfdc63b65d40",
    "merged": "d8d1c987b975c875a2c12fd5100672047bebb25287fc4d2f7c1ce30402360cb0",
    "merged-interval":
        "64b77dd671a2b73c07fe64697c79c3e5be952b9466940d6d7c026d9ee612ba65",
    "merged-incremental":
        "493205b34cbc55051b16e3a596e323c981bdca6f4477df7994eeee485682c44e",
}

#: (corpus, scale, policy, compact) per store: "sealed" is the default policy
#: over the full yahoo-full corpus (8 segments, no merge); "merged" seals 16
#: times and merges 12 times in about a second; the interval store
#: (comm-net, 200 nodes, so most nodes are held by both inputs of a merge)
#: merges 7 times and the incremental one (flickr) 10 times.
MERGING = StorePolicy(seal_contacts=512, max_segments=4)
STORES = {
    "sealed": ("yahoo-full", 1.0, StorePolicy(), False),
    "merged": ("yahoo-full", 0.25, MERGING, True),
    "merged-interval": ("comm-net", 0.5, MERGING, True),
    "merged-incremental": ("flickr", 0.5, MERGING, True),
}


@pytest.mark.parametrize("label", sorted(STORES))
def test_segment_bytes_match_pinned_digest(tmp_path, label):
    name, scale, policy, compact = STORES[label]
    graph = registry.load(name, scale)
    order = sorted(graph.contacts, key=lambda c: (c.time, c.u, c.v, c.duration))
    with SegmentStore.create(tmp_path / "store", graph.kind, policy=policy) as store:
        for lo in range(0, len(order), 256):
            store.ingest(order[lo:lo + 256])
            while compact and store.compaction_needed():
                store.compact_once()
        digest = hashlib.sha256()
        for info in store.manifest.segments:
            digest.update(info.name.encode())
            digest.update((tmp_path / "store" / info.name).read_bytes())
    assert digest.hexdigest() == STORE_DIGESTS[label]
