"""ChronoGraph: the paper's dual-representation temporal graph compressor.

The framework stores a temporal graph as two aligned compressed streams plus
two Elias-Fano offset indexes:

* the **network structure** (Section IV-D): per node, the label-sorted
  neighbor *multiset*, compressed with deduplication of multiple
  occurrences, WebGraph-style reference compression, intervalisation and
  zeta-coded residuals;
* the **timestamps** (Section IV-B): per node, the contact timestamps in
  (neighbor label, time) order, gap-encoded against the previous value,
  folded to naturals with Eq. (1) and zeta_k-coded.

Because both streams share the same ordering, the i-th decoded neighbor
matches the i-th decoded timestamp, which is what makes interval queries
(Algorithm 1) possible without decompressing the whole graph.
"""

from repro.core.config import ChronoGraphConfig
from repro.core.compressed import CompressedChronoGraph
from repro.core.encoder import compress
from repro.core.serialize import (
    DEFAULT_LIMITS,
    DecodeLimits,
    dumps_compressed,
    load_compressed,
    load_compressed_bytes,
    save_compressed,
)
from repro.core.validate import SalvageReport, salvage_scan, validate_compressed

__all__ = [
    "ChronoGraphConfig",
    "CompressedChronoGraph",
    "DecodeLimits",
    "DEFAULT_LIMITS",
    "SalvageReport",
    "compress",
    "dumps_compressed",
    "load_compressed",
    "load_compressed_bytes",
    "save_compressed",
    "salvage_scan",
    "validate_compressed",
]
