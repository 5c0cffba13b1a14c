"""Compressed bytes of the Table V corpora are pinned.

The encoder is the single source of truth for the on-disk format, and the
paper's headline figure (bits per contact, Tables III-V) follows from its
output.  A refactor anywhere in the codec, the container or the corpus
generators that changes one byte of these containers changes a reported
result, so it must show up here -- deliberately, with new digests -- not
silently.
"""

import hashlib

import pytest

from repro.core import compress
from repro.core.serialize import dumps_compressed
from repro.datasets import registry

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
