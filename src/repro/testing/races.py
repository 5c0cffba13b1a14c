"""Seeded reader/writer race harness for the concurrent query plane.

The one mutable path is :class:`repro.storage.segments.SegmentStore`, so
the harness drives one writer thread ingesting contact batches into a
store (a small ``seal_contacts`` makes the published view swap segments
mid-run) and one thread running :meth:`SegmentStore.compact_once` beside
it, against several reader threads.  It checks the concurrency contract
the library documents:

* **Views are snapshots** -- a reader captures ``store.graph`` once per
  operation and every answer from that view (point, batch and full-scan
  queries) must equal the plain :class:`repro.graph.model.TemporalGraph`
  of exactly the generation the view's ``num_contacts`` identifies,
  however the writer and the compactor move on meanwhile.
* **No torn records** -- every neighbor list is strictly increasing and
  every contact run is (label, time)-sorted.
* **Whole batches** -- each ingest publishes its batch at once: the view
  after it holds exactly the batch's contacts more than the view before.
* **Eviction races** -- half of the reader operations run against one
  immutable compressed graph of the base contacts with a deliberately
  tight record cache, and its ``hits + misses`` and ``evictions``
  counters must never decrease.

Everything is deterministic up to thread interleaving: the base graph, the
batches and each reader's operation mix derive from ``seed``.  Whatever
the interleaving, every invariant must hold; a violation is reported, not
raised, so CI output lists all failures of a run at once.

Run it from a checkout with::

    PYTHONPATH=src python -m pytest -q tests/test_concurrency.py

or directly::

    PYTHONPATH=src python -c "from repro.testing.races import run_race_smoke; print(run_race_smoke())"
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.encoder import compress
from repro.graph.builders import graph_from_contacts
from repro.graph.model import Contact, GraphKind, TemporalGraph, max_label
from repro.storage.segments import SegmentStore, StorePolicy

if TYPE_CHECKING:
    from repro.testing.sanitizer import SanitizerReport

#: Tail size that triggers a seal: small, so views swap segments often.
_SEAL_CONTACTS = 16

#: Segment count past which the compactor thread finds merges to run.
_MAX_SEGMENTS = 3


@dataclasses.dataclass
class RaceReport:
    """Outcome of one :func:`run_race_smoke` run.

    ``violations`` holds one human-readable line per broken invariant;
    an empty list means the run passed.  The counters record how much
    concurrency the run actually exercised, so CI logs show that a green
    run was not vacuous.  ``final_generation`` is the number of batches
    the store's final view holds.
    """

    readers: int
    writer_batches: int
    read_ops: int
    final_generation: int
    final_nodes: int
    duration_s: float
    violations: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant held for the whole run."""
        return not self.violations

    def summary(self) -> str:
        """One-line human-readable outcome."""
        status = "PASS" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (
            f"race smoke: {status}; {self.readers} readers x {self.read_ops} "
            f"ops vs {self.writer_batches} batches "
            f"(gen {self.final_generation}, {self.final_nodes} nodes, "
            f"{self.duration_s:.2f}s)"
        )


def _base_graph(num_nodes: int, base_contacts: int, seed: int):
    """A deterministic point graph with a mix of dense and sparse nodes."""
    rng = random.Random(seed)
    contacts = []
    for i in range(base_contacts):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        t = rng.randrange(1, 5_000)
        contacts.append((u, v, t))
    return graph_from_contacts(GraphKind.POINT, contacts, num_nodes=num_nodes)


def _make_batches(
    num_nodes: int, batches: int, seed: int
) -> List[List[Contact]]:
    """Deterministic contact batches; some touch brand-new node labels."""
    rng = random.Random(seed + 1)
    out: List[List[Contact]] = []
    top = num_nodes - 1
    for _ in range(batches):
        batch: List[Contact] = []
        for _ in range(rng.randrange(1, 5)):
            if rng.random() < 0.1:
                u = top + 1  # grow the graph past every label seen so far
            else:
                u = rng.randrange(top + 1)
            v = rng.randrange(top + 1)
            t = rng.randrange(1, 5_000)
            batch.append(Contact(u, v, t))
            top = max(top, u, v)
        out.append(batch)
    return out


def _generations(
    graph: TemporalGraph, batches: Sequence[Sequence[Contact]]
) -> Tuple[List[TemporalGraph], Dict[int, int]]:
    """The plain model of every generation, and each one's contact count.

    Generation ``g`` holds the base graph's contacts plus the first ``g``
    batches, over one past the highest label they use -- the node range a
    store view reports.  Every batch adds contacts, so the count names
    the generation.
    """
    contacts = list(graph.contacts)
    top = max_label(contacts)
    models = [TemporalGraph(GraphKind.POINT, top + 1, contacts)]
    generation_of = {len(contacts): 0}
    for g, batch in enumerate(batches, 1):
        contacts = contacts + list(batch)
        top = max(top, max_label(batch))
        models.append(TemporalGraph(GraphKind.POINT, top + 1, contacts))
        generation_of[len(contacts)] = g
    return models, generation_of


def run_race_smoke(
    *,
    num_nodes: int = 24,
    base_contacts: int = 300,
    batches: int = 200,
    readers: int = 4,
    seed: int = 0,
    cache_max_entries: Optional[int] = 16,
    max_violations: int = 20,
    min_reader_ops: int = 64,
    writer_pace_s: float = 0.0005,
) -> RaceReport:
    """Run the seeded reader/writer stress test; returns a :class:`RaceReport`.

    The store starts as one sealed segment of the base contacts.  One
    writer ingests ``batches`` contact batches (sealing every
    ``_SEAL_CONTACTS`` contacts) while a compactor thread merges segments
    and ``readers`` threads query captured store views (``neighbors``,
    ``contacts_of``, ``neighbors_many``, ``snapshot``) and the immutable
    base graph (the same plus ``distinct_neighbors``), verifying every
    result against the plain model of the view's generation.
    ``cache_max_entries`` bounds the base graph's record cache --
    deliberately tight by default so eviction races are exercised; pass
    ``None`` to lift it.  The run ends
    once the writer has ingested every batch and each reader has done at
    least ``min_reader_ops`` operations.  ``writer_pace_s`` throttles the
    writer slightly so batches interleave with reads instead of racing
    ahead of them.
    """
    graph = _base_graph(num_nodes, base_contacts, seed)
    batch_list = _make_batches(num_nodes, batches, seed)
    models, generation_of = _generations(graph, batch_list)
    cg = compress(graph)
    if cache_max_entries is not None:
        cg.configure_cache(max_entries=cache_max_entries)

    violations: List[str] = []
    vlock = threading.Lock()
    writer_done = threading.Event()
    read_ops = [0] * readers

    def report(msg: str) -> None:
        with vlock:
            if len(violations) < max_violations:
                violations.append(msg)

    def overloaded() -> bool:
        with vlock:
            return len(violations) >= max_violations

    def check_sorted_distinct(tag: str, out: List[int]) -> None:
        if any(out[i] >= out[i + 1] for i in range(len(out) - 1)):
            report(f"{tag}: torn/unsorted neighbor list {out}")

    def check_rows(tag: str, rows: List[Contact], want: List[Contact]) -> None:
        if any(
            (rows[i].v, rows[i].time) > (rows[i + 1].v, rows[i + 1].time)
            for i in range(len(rows) - 1)
        ):
            report(f"{tag}: rows out of order")
        elif rows != want:
            report(f"{tag}: rows diverge from the model")

    def window(rng: random.Random) -> Tuple[int, int]:
        lo = rng.randrange(0, 5_000)
        return lo, lo + rng.randrange(0, 2_500)

    def query(rng: random.Random, target, model: TemporalGraph, tag: str) -> None:
        """One random operation on ``target``, checked against ``model``."""
        op = rng.random()
        n = model.num_nodes
        u = rng.randrange(n)
        if op < 0.4:
            lo, hi = window(rng)
            out = target.neighbors(u, lo, hi)
            check_sorted_distinct(f"{tag} neighbors({u},{lo},{hi})", out)
            if out != model.ref_neighbors(u, lo, hi):
                report(f"{tag} neighbors({u},{lo},{hi}) = {out} diverges")
        elif op < 0.55:
            check_rows(f"{tag} contacts_of({u})", target.contacts_of(u),
                       model.contacts_of(u))
        elif op < 0.85:
            qs = [(rng.randrange(n), *window(rng))
                  for _ in range(rng.randrange(2, 7))]
            outs = target.neighbors_many(qs)
            for (qu, qlo, qhi), out in zip(qs, outs):
                check_sorted_distinct(f"{tag} neighbors_many({qu},{qlo},{qhi})", out)
                if out != model.ref_neighbors(qu, qlo, qhi):
                    report(f"{tag} neighbors_many({qu},{qlo},{qhi}) diverges")
        elif target is cg and op < 0.9:
            out = target.distinct_neighbors(u)
            check_sorted_distinct(f"{tag} distinct_neighbors({u})", out)
            if out != model.distinct_neighbors(u):
                report(f"{tag} distinct_neighbors({u}) diverges")
        else:
            lo, hi = window(rng)
            if target.snapshot(lo, hi) != model.ref_snapshot(lo, hi):
                report(f"{tag} snapshot({lo},{hi}) diverges")

    with tempfile.TemporaryDirectory(prefix="race-smoke-") as work:
        store = SegmentStore.create(
            f"{work}/store",
            GraphKind.POINT,
            policy=StorePolicy(
                seal_contacts=_SEAL_CONTACTS, max_segments=_MAX_SEGMENTS
            ),
        )
        store.ingest(graph.contacts)
        store.seal()

        def writer() -> None:
            try:
                for i, batch in enumerate(batch_list):
                    before = store.graph
                    applied = store.ingest(batch)
                    after = store.graph
                    if applied != len(batch):
                        report(f"batch {i}: applied {applied} != {len(batch)}")
                    if after.num_contacts != before.num_contacts + len(batch):
                        report(
                            f"batch {i}: view went {before.num_contacts} -> "
                            f"{after.num_contacts} contacts, expected "
                            f"+{len(batch)}"
                        )
                    if overloaded():
                        return
                    if writer_pace_s:
                        time.sleep(writer_pace_s)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                report(f"writer raised {exc!r}")
            finally:
                writer_done.set()

        def compactor() -> None:
            try:
                while not writer_done.is_set():
                    if not store.compact_once():
                        time.sleep(0.001)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                report(f"compactor raised {exc!r}")

        def reader(idx: int) -> None:
            rng = random.Random(seed + 100 + idx)
            last_lookups = -1
            last_evictions = -1
            ops = 0
            try:
                while True:
                    done = writer_done.is_set() and ops >= min_reader_ops
                    if overloaded():
                        break
                    for _ in range(8):
                        if rng.random() < 0.5:
                            view = store.graph
                            g = generation_of.get(view.num_contacts)
                            if g is None or view.num_nodes != models[g].num_nodes:
                                report(
                                    f"view of {view.num_contacts} contacts / "
                                    f"{view.num_nodes} nodes matches no "
                                    "generation"
                                )
                                continue
                            query(rng, view, models[g], f"view@{g}")
                        else:
                            query(rng, cg, graph, "base")
                        ops += 1
                    stats = cg.cache_stats()
                    lookups = stats["hits"] + stats["misses"]
                    if lookups < last_lookups:
                        report(
                            f"hit+miss went backwards: {last_lookups} -> "
                            f"{lookups}"
                        )
                    if stats["evictions"] < last_evictions:
                        report(
                            "evictions went backwards: "
                            f"{last_evictions} -> {stats['evictions']}"
                        )
                    last_lookups = lookups
                    last_evictions = stats["evictions"]
                    if done:
                        break
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                report(f"reader {idx} raised {exc!r}")
            read_ops[idx] = ops

        started = time.monotonic()
        threads = [
            threading.Thread(target=writer, name="race-writer"),
            threading.Thread(target=compactor, name="race-compactor"),
        ]
        threads += [
            threading.Thread(target=reader, args=(i,), name=f"race-reader-{i}")
            for i in range(readers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        duration = time.monotonic() - started

        # Quiescent final check: every batch must be visible, exactly.
        final = store.graph
        store.close()
        final_gen = generation_of.get(final.num_contacts, -1)
        if final_gen != len(batch_list) and not violations:
            violations.append(
                f"final view holds {final.num_contacts} contacts, not "
                f"generation {len(batch_list)}"
            )
        model = models[-1]
        if final.num_nodes != model.num_nodes:
            violations.append(
                f"final num_nodes {final.num_nodes} != expected "
                f"{model.num_nodes}"
            )
        for u in range(min(final.num_nodes, model.num_nodes)):
            if final.contacts_of(u) != model.contacts_of(u):
                violations.append(f"final contacts of node {u} diverged")
                break

    return RaceReport(
        readers=readers,
        writer_batches=len(batch_list),
        read_ops=sum(read_ops),
        final_generation=final_gen,
        final_nodes=final.num_nodes,
        duration_s=duration,
        violations=violations,
    )


def run_sanitized_race_smoke(
    **kwargs: object,
) -> Tuple[RaceReport, SanitizerReport]:
    """Run :func:`run_race_smoke` under the reprosan lock sanitizer.

    Installs :func:`repro.testing.sanitizer.sanitized` around the whole
    smoke run (so every lock the store and its compressed graphs create
    is wrapped), then returns ``(race_report, sanitizer_report)``.  A fully
    healthy run has ``race_report.ok`` and ``sanitizer_report.ok`` both
    true -- no invariant violations, no lock taken while another is held
    and no blocking decode/filesystem work inside a governed critical
    section.
    """
    # Imported here: ``python -m repro.testing.sanitizer`` runs that module
    # as ``__main__``, and importing it with this package would load it twice.
    from repro.testing.sanitizer import sanitized

    with sanitized() as san:
        report = run_race_smoke(**kwargs)  # type: ignore[arg-type]
    return report, san.report()
