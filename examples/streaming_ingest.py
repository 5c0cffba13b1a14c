"""Streaming ingestion into a segment store.

Real monitoring pipelines receive contacts continuously.  A
:class:`repro.storage.segments.SegmentStore` keeps the bulk of the history
in immutable ChronoGraph-compressed segments, buffers fresh contacts in a
durable hot tail, answers queries over both, and seals the tail into a new
compressed segment once it holds ``seal_contacts`` contacts -- the
streaming counterpart of the paper's static compression pipeline.
Compaction merges adjacent segments once there are too many.

Run with ``python examples/streaming_ingest.py``.
"""

import random
import tempfile

from repro.graph.model import GraphKind
from repro.storage.segments import SegmentStore, StorePolicy

HOSTS = 300
EPOCHS = 6
FLOWS_PER_EPOCH = 2_000
EPOCH_SECONDS = 3_600
BATCH = 500


def flow_stream(epoch: int, rng: random.Random):
    """One epoch of synthetic netflow contacts."""
    base_time = epoch * EPOCH_SECONDS
    for _ in range(FLOWS_PER_EPOCH):
        src = rng.randrange(HOSTS)
        dst = (src + rng.randrange(1, 20)) % HOSTS
        yield (src, dst, base_time + rng.randrange(EPOCH_SECONDS))


def sealed_bits_per_contact(store: SegmentStore) -> float:
    """Segment bytes per sealed contact, in bits."""
    segments = store.manifest.segments
    contacts = sum(s.contacts for s in segments)
    return 8 * sum(s.size for s in segments) / contacts if contacts else 0.0


def main() -> None:
    rng = random.Random(17)
    policy = StorePolicy(seal_contacts=5_000, max_segments=2)
    with tempfile.TemporaryDirectory() as work, SegmentStore.create(
        f"{work}/netflow.store", GraphKind.POINT, policy=policy
    ) as store:
        print("epoch  contacts  segments  tail  bits/contact (sealed)")
        for epoch in range(EPOCHS):
            flows = list(flow_stream(epoch, rng))
            for start in range(0, len(flows), BATCH):
                # Durable on return; seals inline past seal_contacts.
                store.ingest(flows[start : start + BATCH])
            while store.compact_once():
                pass
            print(f"{epoch:5d}  {store.graph.num_contacts:8d}  "
                  f"{len(store.manifest.segments):8d}  {store.tail_size:4d}"
                  f"  {sealed_bits_per_contact(store):21.2f}")

        # Queries work at any moment, spanning segments and the tail.
        last_epoch = (EPOCHS - 1) * EPOCH_SECONDS
        view = store.graph
        active = view.neighbors(0, last_epoch, last_epoch + EPOCH_SECONDS - 1)
        print(f"\nhost 0 talked to {len(active)} hosts during the last epoch")

        store.compact_all()
        print(f"final seal: {sealed_bits_per_contact(store):.2f} bits/contact "
              f"for {store.graph.num_contacts} contacts in "
              f"{len(store.manifest.segments)} segment(s)")


if __name__ == "__main__":
    main()
