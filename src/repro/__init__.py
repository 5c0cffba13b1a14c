"""ChronoGraph: compressing temporal graphs (reproduction of Liakos et al., ICDE 2022).

Public API quick reference::

    from repro import ChronoGraphConfig, compress
    from repro.graph import GraphKind, TemporalGraphBuilder

    g = (TemporalGraphBuilder(GraphKind.POINT)
         .add(0, 1, 1_209_479_772)
         .add(0, 2, 1_209_479_933)
         .build())
    cg = compress(g, ChronoGraphConfig(timestamp_zeta_k=4))
    cg.neighbors(0, 1_209_479_000, 1_209_480_000)
    cg.has_edge(0, 2, 1_209_479_900, 1_209_479_999)
    cg.bits_per_contact

Subpackages:

* :mod:`repro.core` -- the ChronoGraph compressor itself.
* :mod:`repro.graph` -- temporal graph model, IO and aggregation.
* :mod:`repro.bits` -- bit streams, instantaneous codes, Elias-Fano.
* :mod:`repro.structures` -- wavelet trees, k^d-trees, CBTs, Huffman.
* :mod:`repro.baselines` -- EveLog, EdgeLog, CET, CAS, ck^d-trees, T-ABT,
  Raw and Gzip, all behind one compressor interface.
* :mod:`repro.datasets` -- the paper's synthetic datasets and scaled
  stand-ins for its real-world traces.
* :mod:`repro.analysis` -- timestamp gap analysis (Figures 2-4).
* :mod:`repro.algorithms` -- PageRank, communities, reachability, anomaly
  detection on compressed graphs.
* :mod:`repro.bench` -- harness regenerating every table and figure.
"""

from repro.core import (
    ChronoGraphConfig,
    CompressedChronoGraph,
    compress,
    load_compressed,
    save_compressed,
)
from repro.errors import FormatError
from repro.graph import Contact, GraphKind, TemporalGraph, TemporalGraphBuilder

__version__ = "1.0.0"

__all__ = [
    "ChronoGraphConfig",
    "CompressedChronoGraph",
    "FormatError",
    "compress",
    "load_compressed",
    "save_compressed",
    "Contact",
    "GraphKind",
    "TemporalGraph",
    "TemporalGraphBuilder",
    "__version__",
]
