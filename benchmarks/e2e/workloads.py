"""Inputs and measured loops of the end-to-end benchmark.

``run.py`` starts this file twice per workload, each time as a fresh child
process with ``PYTHONHASHSEED=0``:

    python workloads.py generate --workload W --seed N --work DIR [--quick]
    python workloads.py measure --workload W --seed N --work DIR \\
        --seconds S --trace 0|1 --out DIR [--quick]

``generate`` builds fixed corpora with the repository's own dataset
generators and draws the query stream from the seed, writes contact-list
text files and a ``plan.json`` holding the query stream and the answers the
plain ``TemporalGraph`` reference gives for a sample of it, then exits --
so the reference graph is
never resident in the measured process.  ``measure`` pins itself (and the
server it starts) to one vCPU, sets the program up from those files
(several times, reporting the median), warms up, runs the closed loop for
the measured phase, checks the sampled answers and writes ``result.json``.

Every timed block is calibrated against the host's speed at that moment
(see ``hostspeed.py``): times are reported in reference-host time.  Loops
are cut into windows, each one calibrated block.  Throughput is taken over
all windows; a latency percentile is the median over windows of each
window's percentile.

With ``--trace 1`` it sets up once under the tracer, runs the first half of
the phase untraced and the second half traced (see ``tracing.py``), and
takes single-layer measurements after the phase.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import gc
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bits import codes, kernels
from repro.bits.bitio import BitReader, BitWriter
from repro.core import compress
from repro.core.encoder import select_timestamp_zeta_k
from repro.core.serialize import load_compressed, save_compressed
from repro.datasets import registry
from repro.datasets.synthetic import powerlaw_graph
from repro.graph.io import read_contact_text, write_contact_text
from repro.graph.model import TemporalGraph
from repro.runtime.context import QueryContext
from repro.runtime.governor import Governor
from repro.service.client import ServiceClient
from repro.service.protocol import recv_message, send_message
from repro.storage.atomic import atomic_write_text
from repro.storage.segments import SegmentStore, StorePolicy
from repro.storage.wal import encode_batch

from hostspeed import Stopwatch
from tracing import HARNESS_LAYER, LAYERS, TRACER_LAYER, Tracer, span_records

ROOT = Path(__file__).resolve().parents[2]

WORKLOADS = ("table5-hot", "table5-cold", "serve-store", "ingest-compact")
HOT_CORPORA = ("flickr", "wiki-edit", "wiki-links-sub", "yahoo-sub", "comm-net", "powerlaw")

#: Answers of every SAMPLE_EVERY-th query are checked against the reference.
SAMPLE_EVERY = 64
#: Contacts per ``SegmentStore.ingest`` call.
BATCH = 256
#: Reads after every ingest batch, on nodes the batch just wrote: 2048 per
#: cycle, so each cycle's p99 has 20 reads beyond it.
READS_PER_BATCH = 32
#: Record-cache budget of the cold graph: a quarter of its ~6 MiB decoded
#: working set, so most point queries decode.  A corpus that overflows the
#: default 32 MiB cache takes longer to compress than one run may spend,
#: and a compress that long is one block the host-speed probes bracket.
COLD_CACHE_BYTES = 1536 << 10
#: Ops per window: enough for a p99 with 10+ samples beyond it, few enough
#: that a window lasts well under a second, so the probes around it follow
#: the host.  Serve windows hold this many ops per connection.
WINDOW_OPS = {"table5-hot": 16_384, "table5-cold": 2048, "serve-store": 512}
#: Point/scan blocks per measured phase of the library path.
PHASE_BLOCKS = 3
#: Compresses per corpus after the phase, besides the one in each set-up.
#: A compress is one block.  The cold corpus's half-second blocks vary by
#: ~10% from one to the next on a shared host even after calibration, so
#: its median takes eleven; the hot corpora's tenth-of-a-second blocks
#: follow the probes better, and seven keep the run short.
COMPRESS_AFTER = {"table5-hot": 4, "table5-cold": 8}
#: Client connections (one thread each) of the serve workload: nproc = 2.
SERVE_CONNECTIONS = 2
SERVE_MIX = (("n", 0.50), ("e", 0.30), ("t", 0.10), ("m", 0.08), ("s", 0.02))

CallList = List[Tuple[Callable[..., Any], tuple, str]]
#: A running ``repro serve``: supervisor process, clients, worker pid (0 = unknown).
Server = Tuple[subprocess.Popen, List[ServiceClient], int]


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; ``QUICK`` shrinks everything for the smoke test."""

    hot_scale: float
    hot_queries: int
    cold_nodes: int
    cold_edges: int
    cold_steps: int
    cold_queries: int
    cold_scans: int
    serve_scale: float
    serve_requests: int
    ingest_nodes: int
    ingest_edges: int
    ingest_steps: int
    seal_contacts: int
    cycle_batches: int
    setup_reps: int
    warmup_ops: int
    gap_codes: int


FULL = Sizes(
    hot_scale=1.0, hot_queries=6 * 4096,
    cold_nodes=5000, cold_edges=10, cold_steps=2500, cold_queries=16_384,
    cold_scans=6,
    serve_scale=1.0, serve_requests=32_768,
    ingest_nodes=5200, ingest_edges=10, ingest_steps=2600,
    seal_contacts=StorePolicy().seal_contacts, cycle_batches=64,
    setup_reps=3, warmup_ops=2000, gap_codes=200_000,
)
QUICK = Sizes(
    hot_scale=0.1, hot_queries=6 * 128,
    cold_nodes=1500, cold_edges=6, cold_steps=600, cold_queries=1024,
    cold_scans=1,
    serve_scale=0.1, serve_requests=512,
    ingest_nodes=2000, ingest_edges=6, ingest_steps=800,
    seal_contacts=512, cycle_batches=8,
    setup_reps=1, warmup_ops=100, gap_codes=20_000,
)


# -- small helpers -----------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1) of an ascending sequence."""
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def pooled(events: Sequence[Tuple[float, float]]) -> float:
    """Work per second over ``(work, seconds)`` events of mixed sizes."""
    seconds = sum(s for _work, s in events)
    return sum(work for work, _s in events) / seconds if seconds > 0 else 0.0


def rss_mib(pid: str = "self") -> float:
    """Resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS line for process {pid}")


def store_bytes(store: SegmentStore) -> int:
    """Bytes of the store's live files: manifest segments plus the tail log."""
    tail = store.directory / "wal.tail"
    return sum(s.size for s in store.manifest.segments) + tail.stat().st_size


def window(rng: random.Random, span: Tuple[int, int, int], frac: float) -> Tuple[int, int]:
    """A window of ``frac`` of the lifetime starting at a uniform time;
    ``span`` is ``(t_min, t_max, lifetime)`` (O(contacts) properties, so
    callers compute it once per graph)."""
    t_min, t_max, lifetime = span
    t1 = rng.randint(t_min, max(t_min, t_max))
    return t1, t1 + max(1, int(lifetime * frac))


def time_span(graph: TemporalGraph) -> Tuple[int, int, int]:
    return graph.t_min, graph.t_max, graph.lifetime


def time_order(graph: TemporalGraph) -> List[Any]:
    """The graph's contacts in arrival (time) order, as a stream ingests them."""
    return sorted(graph.contacts, key=lambda c: (c.time, c.u, c.v, c.duration))


def gap_stream(graphs: Sequence[TemporalGraph], limit: int) -> List[int]:
    """Per-node timestamp gaps (the first from the graph's t_min): the shape
    of the stream the timestamp encoder writes with zeta codes."""
    gaps: List[int] = []
    for graph in graphs:
        t_min = graph.t_min
        by_node: Dict[int, List[int]] = {}
        for c in graph.contacts:
            by_node.setdefault(c.u, []).append(c.time)
        for times in by_node.values():
            prev = t_min
            for t in sorted(times):
                gaps.append(t - prev)
                prev = t
                if len(gaps) >= limit:
                    return gaps
    return gaps


def write_json(path: Path, doc: Any) -> None:
    atomic_write_text(path, json.dumps(doc, separators=(",", ":")), durable=False)


def read_json(path: Path) -> Any:
    with open(path) as handle:
        return json.load(handle)


# -- generation --------------------------------------------------------------


def pick_v(rng: random.Random, graph: TemporalGraph, u: int, n: int) -> int:
    """A neighbor of ``u`` when it has one (so has_edge can say yes)."""
    distinct = graph.distinct_neighbors(u) if u < graph.num_nodes else []
    return rng.choice(distinct) if distinct else rng.randrange(n)


def point_queries(
    rng: random.Random, graphs: Sequence[TemporalGraph], count: int, frac: float
) -> List[List[int]]:
    """50/50 neighbors/has_edge on uniform nodes with ``frac``-of-lifetime
    windows, round-robin over ``graphs``: ``[op, corpus, u, v, t1, t2]``,
    op 0 = neighbors, 1 = has_edge."""
    spans = [time_span(g) for g in graphs]
    out = []
    for i in range(count):
        ci = i % len(graphs)
        g = graphs[ci]
        u = rng.randrange(g.num_nodes)
        t1, t2 = window(rng, spans[ci], frac)
        if rng.random() < 0.5:
            out.append([0, ci, u, -1, t1, t2])
        else:
            out.append([1, ci, u, pick_v(rng, g, u, g.num_nodes), t1, t2])
    return out


def point_expected(graphs: Sequence[TemporalGraph], queries: Sequence[List[int]]
                   ) -> Dict[str, Any]:
    expected: Dict[str, Any] = {}
    for i in range(0, len(queries), SAMPLE_EVERY):
        op, ci, u, v, t1, t2 = queries[i]
        g = graphs[ci]
        expected[str(i)] = g.ref_neighbors(u, t1, t2) if op == 0 else g.ref_has_edge(u, v, t1, t2)
    return expected


def scan_windows(rng: random.Random, graphs: Sequence[TemporalGraph], count: int,
                 frac: float) -> Tuple[List[List[int]], List[Any]]:
    scans, expected = [], []
    for i in range(count):
        ci = i % len(graphs)
        g = graphs[ci]
        t1, t2 = window(rng, time_span(g), frac)
        scans.append([ci, t1, t2])
        expected.append(g.ref_snapshot(t1, t2))
    return scans, expected


def write_corpora(work: Path, graphs: Dict[str, TemporalGraph]) -> List[Dict[str, Any]]:
    corpora = []
    for name, g in graphs.items():
        path = work / f"{name}.txt"
        write_contact_text(g, path)
        corpora.append({"name": name, "file": path.name,
                        "num_nodes": g.num_nodes, "num_contacts": g.num_contacts})
    return corpora


def serve_requests(rng: random.Random, g: TemporalGraph, count: int) -> Dict[str, Any]:
    """The serve mix.  Node ids come from the *store's* node range, which is
    max label + 1 and can be smaller than the monolithic graph's."""
    n = 1 + max(max(c.u, c.v) for c in g.contacts)
    span = time_span(g)
    ops = [op for op, _ in SERVE_MIX]
    weights = [w for _, w in SERVE_MIX]
    requests: List[List[Any]] = []
    expected: Dict[str, Any] = {}
    for i in range(count):
        op = rng.choices(ops, weights)[0]
        if op == "m":
            args: List[Any] = []
            for _ in range(16):
                args.append([rng.randrange(n), *window(rng, span, 0.10)])
        elif op == "s":
            args = list(window(rng, span, 0.01))
        else:
            u = rng.randrange(n)
            if op == "n":
                args = [u, *window(rng, span, 0.10)]
            elif op == "e":
                args = [u, pick_v(rng, g, u, n), *window(rng, span, 0.10)]
            else:
                args = [u, pick_v(rng, g, u, n)]
        requests.append([op, args])
        if i % SAMPLE_EVERY == 0 or (op == "s" and i % 4 == 0):
            expected[str(i)] = serve_reference(g, op, args)
    return {"requests": requests, "expected": expected, "store_nodes": n}


def serve_reference(g: TemporalGraph, op: str, args: List[Any]) -> Any:
    if op == "n":
        return g.ref_neighbors(*args)
    if op == "e":
        return g.ref_has_edge(*args)
    if op == "t":
        return g.ref_edge_timestamps(*args)
    if op == "m":
        return [g.ref_neighbors(*q) for q in args]
    return g.ref_snapshot(*args)


def ingest_plan(rng: random.Random, g: TemporalGraph, sizes: Sizes) -> Dict[str, Any]:
    """The nodes one cycle's read-after-write reads ask for -- sources of
    contacts the batch just wrote -- and reference answers for the reads
    and scans.

    The stream is time-ordered, so every contact with time < t_last of a
    batch is ingested by the time that batch's reads run.  Windows end at
    ``t_last - 1``, which makes the full-stream reference exact for them.
    """
    stream = time_order(g)
    prefill = 8 * sizes.seal_contacts
    if len(stream) < prefill + sizes.cycle_batches * BATCH:
        raise ValueError("the ingest stream is shorter than the prefill plus one cycle")
    width = max(1, g.lifetime // 20)
    per_scan = sizes.seal_contacts // BATCH
    read_nodes: List[List[int]] = []
    reads: Dict[str, Any] = {}
    scans: Dict[str, Any] = {}
    for b in range(sizes.cycle_batches):
        batch = stream[prefill + b * BATCH:prefill + (b + 1) * BATCH]
        t_last = batch[-1].time
        nodes = [rng.choice(batch).u for _ in range(READS_PER_BATCH)]
        read_nodes.append(nodes)
        for j, u in enumerate(nodes):
            r = b * READS_PER_BATCH + j
            if r % 8 == 0:
                reads[str(r)] = g.ref_neighbors(u, t_last - width, t_last - 1)
        if b % per_scan == per_scan - 1:
            scans[str(b)] = g.ref_snapshot(t_last - width, t_last - 1)
    return {"prefill": prefill, "width": width, "read_nodes": read_nodes,
            "expected_reads": reads, "expected_scans": scans}


def generate(workload: str, seed: int, work: Path, sizes: Sizes) -> Dict[str, Any]:
    """Write every input of ``workload`` for ``seed`` into ``work``.

    The corpora are fixed: the registry's, or a powerlaw graph from the
    generator's default seed.  ``seed`` draws what runs on them -- queries,
    windows and read nodes -- so the seed-to-seed spread of a metric is the
    spread over query streams, not over graphs whose size and shape differ.
    """
    rng = random.Random(f"e2e/{workload}/{seed}")
    plan: Dict[str, Any] = {"workload": workload, "seed": seed}
    if workload in ("table5-hot", "table5-cold"):
        if workload == "table5-hot":
            graphs = {name: registry.load(name, sizes.hot_scale) for name in HOT_CORPORA}
            count, scans, frac = sizes.hot_queries, 2 * len(HOT_CORPORA), 0.10
        else:
            graphs = {"cold": powerlaw_graph(
                num_nodes=sizes.cold_nodes, edges_per_node=sizes.cold_edges,
                time_steps=sizes.cold_steps)}
            count, scans, frac = sizes.cold_queries, sizes.cold_scans, 0.05
        glist = list(graphs.values())
        queries = point_queries(rng, glist, count, 0.10)
        windows, windows_expected = scan_windows(rng, glist, scans, frac)
        plan.update(corpora=write_corpora(work, graphs), queries=queries,
                    expected=point_expected(glist, queries),
                    scans=windows, scan_expected=windows_expected)
    elif workload == "serve-store":
        g = registry.load("yahoo-full", sizes.serve_scale)
        plan.update(corpora=write_corpora(work, {"yahoo-full": g}))
        plan.update(serve_requests(rng, g, sizes.serve_requests))
    elif workload == "ingest-compact":
        g = powerlaw_graph(num_nodes=sizes.ingest_nodes, edges_per_node=sizes.ingest_edges,
                           time_steps=sizes.ingest_steps)
        plan.update(corpora=write_corpora(work, {"stream": g}))
        plan.update(ingest_plan(rng, g, sizes))
    else:
        raise KeyError(f"unknown workload {workload!r}")
    plan = json.loads(json.dumps(plan))  # tuples -> lists, as plan.json holds them
    digest = hashlib.sha256()
    for corpus in plan["corpora"]:
        digest.update((work / corpus["file"]).read_bytes())
    digest.update(json.dumps(plan, sort_keys=True).encode("utf-8"))
    plan["digest"] = digest.hexdigest()
    write_json(work / "plan.json", plan)
    return plan


# -- closed loops ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Window:
    """One calibrated block of a closed loop, in reference-host time."""

    ops: int
    seconds: float
    p50_us: float
    p99_us: float
    #: Median latency per op name.
    op_p50_us: Dict[str, float]


class Loop:
    """Outcome of one closed loop: its windows, scan rates and checks.

    Latency percentiles are medians over windows, so a window that the
    calibration could not correct (a burst shorter than the window, or a
    hiccup of the host that hit one probe) moves them by little.
    Throughput is pooled over all windows, so every request of a mixed
    stream counts once, whichever window it fell in.
    """

    def __init__(self) -> None:
        self.windows: List[Window] = []
        #: (contacts covered, reference-host seconds) of every scan.
        self.scans: List[Tuple[float, float]] = []
        self.failed = 0
        self.checked = 0
        self.wrong = 0
        self.errors: List[str] = []

    @property
    def ops(self) -> int:
        return sum(w.ops for w in self.windows)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def check(self, got: Any, want: Any) -> None:
        self.checked += 1
        if got != want:
            self.wrong += 1
            if len(self.errors) < 5:
                self.errors.append(f"wrong answer: got {got!r:.200} want {want!r:.200}")

    def close(self, ops: int, seconds: float, samples: Dict[str, Sequence[float]]) -> None:
        """Add a window of ``ops`` ops that took ``seconds``, with latency
        ``samples`` in reference-host nanoseconds per op name."""
        every = sorted(x for lat in samples.values() for x in lat)
        self.windows.append(Window(
            ops, seconds, percentile(every, 0.50) / 1e3, percentile(every, 0.99) / 1e3,
            {op: percentile(sorted(lat), 0.50) / 1e3 for op, lat in samples.items() if lat},
        ))

    def merge(self, other: "Loop") -> None:
        """Fold in the windows and checks of another loop."""
        self.windows.extend(other.windows)
        self.scans.extend(other.scans)
        self.failed += other.failed
        self.checked += other.checked
        self.wrong += other.wrong
        self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])

    def rate(self) -> float:
        """Throughput over all windows, ops per reference-host second."""
        return pooled([(w.ops, w.seconds) for w in self.windows])

    def p(self, q: float) -> float:
        """Median over windows of the window's ``q`` (0.5 or 0.99) latency, in us."""
        return median([w.p50_us if q == 0.50 else w.p99_us for w in self.windows])

    def op_p50(self, op: str) -> float:
        """Median over windows of one op's median latency, in us."""
        return median([w.op_p50_us[op] for w in self.windows if op in w.op_p50_us])

    def drift(self) -> float:
        """Throughput of the last quarter of windows over the first quarter."""
        quarter = len(self.windows) // 4
        if not quarter:
            return 0.0
        rates = [w.ops / w.seconds for w in self.windows]
        return statistics.mean(rates[-quarter:]) / statistics.mean(rates[:quarter])


_MISSING = object()
#: Raw per-op latencies of one window: ns per op name, and (call index, ns)
#: of every snapshot.
Raw = Tuple[Dict[str, "array.array[int]"], List[Tuple[int, int]]]


def new_raw() -> Raw:
    return {}, []


def run_ops(
    calls: CallList,
    expected: Dict[int, Any],
    first: int,
    count: int,
    loop: Loop,
    raw: Raw,
    tracer: Optional[Tracer] = None,
    *,
    stride: int = 1,
    record: Optional[Dict[int, Any]] = None,
) -> None:
    """``count`` ops of ``calls`` (cycled) from index ``first`` in steps of
    ``stride``, each timed alone into ``raw``.

    Answers whose index is in ``expected`` are compared with it; the first
    answer for each is also kept in ``record`` when given.  With a tracer
    the ops run in one ``loop`` span, whose self time is the harness's, and
    each op's spans carry its index as request id.
    """
    clock = time.perf_counter_ns
    lat, scans = raw
    n = len(calls)
    outer = tracer.section("loop") if tracer is not None else None
    if outer is not None:
        outer.__enter__()
    try:
        i = first
        for _ in range(count):
            if tracer is not None:
                tracer.set_request(i)
            k = i % n
            fn, args, op = calls[k]
            t0 = clock()
            try:
                got = fn(*args)
            except Exception as exc:  # counted as a failed op; the loop goes on
                dt = clock() - t0
                loop.fail(exc)
            else:
                dt = clock() - t0
                want = expected.get(k, _MISSING)
                if want is not _MISSING:
                    loop.check(got, want)
                    if record is not None and k not in record:
                        record[k] = got
            op_lat = lat.get(op)
            if op_lat is None:
                op_lat = lat[op] = array.array("q")
            op_lat.append(dt)
            if op == "snapshot":
                scans.append((k, dt))
            i += stride
    finally:
        if outer is not None:
            outer.__exit__(None, None, None)


def closed_loop(seconds: float, loop: Loop, run_window: Callable[[Raw], None],
                covered: Callable[[int], int]) -> Stopwatch:
    """Run windows until ``seconds`` of wall time have passed (at least one).

    ``run_window`` runs one window's ops into the raw record it is given;
    each window is one calibrated lap, and the percentiles of one are taken
    between laps, outside every window.  ``covered(k)`` is the number of
    contacts snapshot call ``k`` covers.  Returns the stopwatch, whose raw
    seconds are the windows' time.
    """
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    watch = Stopwatch()
    while True:
        raw = new_raw()
        run_window(raw)
        elapsed = watch.lap()
        scale = watch.scale
        lat, scans = raw
        loop.close(sum(len(v) for v in lat.values()), elapsed,
                   {op: [x * scale for x in v] for op, v in lat.items()})
        loop.scans.extend((covered(k), ns * scale / 1e9) for k, ns in scans)
        if clock() >= deadline:
            return watch
        watch.restart()


def lapped(watch: Stopwatch, tracer: Optional[Tracer], fn: Callable[..., Any],
           *args: Any) -> Tuple[Any, float]:
    """``fn(*args)`` as one calibrated block of ``watch``, in a ``loop``
    span when tracing: its result and reference-host seconds.  The block
    starts here, so bookkeeping since the last lap is left out of it."""
    watch.restart()
    if tracer is None:
        result = fn(*args)
    else:
        with tracer.section("loop"):
            result = fn(*args)
    return result, watch.lap()


@dataclasses.dataclass
class Phase:
    """What one measured phase (or half of one) produced."""

    point: Loop
    #: Raw seconds of the measured work, probes excluded.
    raw_s: float
    scan: Optional[Loop] = None
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)

    def scan_rate(self) -> float:
        """Contacts covered per reference-host second over every scan."""
        return pooled(self.point.scans + (self.scan.scans if self.scan else []))


# -- the measured process ----------------------------------------------------


class Measure:
    """The measured process of one workload run."""

    def __init__(self, workload: str, seed: int, work: Path, seconds: float,
                 trace: bool, out: Path, sizes: Sizes) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.seconds = seconds
        self.out = out
        self.sizes = sizes
        self.plan = read_json(work / "plan.json")
        self.metrics: Dict[str, float] = {}
        self.labels: Dict[str, str] = {}
        self.loop = Loop()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.trace_doc: Dict[str, Any] = {}

    @property
    def trace(self) -> bool:
        return self.tracer is not None

    def put(self, **values: float) -> None:
        """Record metrics; ``__`` in a keyword stands for ``.`` in the name."""
        for key, value in values.items():
            self.metrics[key.replace("__", ".")] = float(value)

    def corpus_path(self, corpus: Dict[str, Any]) -> Path:
        return self.work / corpus["file"]

    # -- set-up and phase scaffolding ------------------------------------

    def setup(self, setup: Callable[[Stopwatch], Any], teardown: Callable[[Any], None]) -> Any:
        """Set the program up and return the last state.

        ``setup`` laps the stopwatch it is given between its steps; laps it
        closes with ``count=False`` (the harness's own bookkeeping) are not
        set-up time.  Untraced: ``setup_reps`` times, reporting the median
        as ``setup_s``.  Traced: once under the tracer, reporting where
        set-up time went.
        """
        if self.tracer is not None:
            tracer = self.tracer
            tracer.reset()
            with tracer:
                state = setup(Stopwatch())
            self.put(graph__io__read_s=tracer.inclusive_s("read_contact_text"),
                     core__encoder__compress_s=tracer.inclusive_s("compress"),
                     core__serialize__save_s=tracer.inclusive_s("save_compressed"),
                     core__serialize__load_mmap_s=tracer.inclusive_s("load_compressed"))
            return state
        times = []
        state = None
        for _rep in range(self.sizes.setup_reps):
            if state is not None:
                teardown(state)
                state = None
            gc.collect()
            watch = Stopwatch()
            state = setup(watch)
            watch.lap()
            times.append(watch.total_s)
        self.put(setup_s=statistics.median(times))
        return state

    def phase(self, run_half: Callable[[float, Optional[Tracer]], Phase]
              ) -> Tuple[Phase, Optional[Phase]]:
        """The measured phase: whole and untraced, or untraced then traced halves."""
        gc.collect()
        tracer = self.tracer
        if tracer is None:
            first = run_half(self.seconds, None)
            self._fold(first)
            return first, None
        half = self.seconds / 2
        first = run_half(half, None)
        tracer.reset()
        with tracer:
            second = run_half(half, tracer)
        self._fold(first)
        self._fold(second)
        threads = SERVE_CONNECTIONS if self.workload == "serve-store" else 1
        self_ns = tracer.self_ns()
        total = second.raw_s * 1e9 * threads
        for layer in LAYERS:
            self.metrics[f"self_share.{layer}"] = self_ns.get(layer, 0) / total
        program = sum(ns for layer, ns in self_ns.items()
                      if layer not in (HARNESS_LAYER, TRACER_LAYER))
        self.put(trace__coverage=program / total,
                 trace__overhead=first.point.rate() / max(second.point.rate(), 1e-9),
                 loop__drift=first.point.drift())
        self.trace_doc = {"wall_s": second.raw_s, "threads": threads,
                          "self_s": {k: v / 1e9 for k, v in sorted(self_ns.items())}}
        return first, second

    def _fold(self, phase: Phase) -> None:
        self.loop.merge(phase.point)
        if phase.scan is not None:
            self.loop.merge(phase.scan)

    def end_to_end(self, first: Phase) -> None:
        point = first.point
        self.put(ops_per_s=point.rate(), p50_us=point.p(0.50), p99_us=point.p(0.99),
                 scan_contacts_per_s=first.scan_rate())

    # -- single-layer measurements (traced runs) --------------------------

    def bits_micro(self, graphs: Sequence[TemporalGraph]) -> None:
        """ns per zeta code decoding the workload's own timestamp gaps, per
        tier, at the shrinking parameter the encoder picks for them."""
        k = select_timestamp_zeta_k(graphs[0])[0]
        gaps = gap_stream(graphs, self.sizes.gap_codes)
        writer = BitWriter()
        for gap in gaps:
            codes.write_zeta_natural(writer, gap, k)
        blob, nbits = writer.to_bytes(), writer.bit_length
        info = kernels.kernel_info()
        self.labels["bits.decode_kernel"] = (
            f"auto picks {kernels.plan(len(gaps))} for {len(gaps)} codes "
            f"(override={info['override']}, numpy={info['numpy_available']}, "
            f"numpy_min_run={info['numpy_min_run']})"
        )
        self.put(bits__numpy_tier=1.0 if kernels.plan(len(gaps)) == "numpy" else 0.0)
        for tier in ("table", "numpy"):
            if tier == "numpy" and not kernels.numpy_available():
                continue
            kernels.set_kernel(tier)
            try:
                runs = []
                for _ in range(5):
                    reader = BitReader(blob, nbits)
                    t0 = time.perf_counter_ns()
                    decoded = codes.read_many_zeta_natural(reader, len(gaps), k)
                    runs.append((time.perf_counter_ns() - t0) / len(gaps))
                    self.loop.check(decoded == gaps, True)
            finally:
                kernels.set_kernel(None)
            self.metrics[f"bits.zeta_ns_per_code.{tier}"] = statistics.median(runs)

    def ctx_overhead(self, calls: Sequence[Tuple[Callable[..., Any], tuple]]) -> None:
        """Per-query cost of a QueryContext(timeout, governor) over bare calls:
        median over blocks of 200 queries, each run once to warm the cache
        and then bare and governed in alternating order."""
        governor = Governor()
        clock = time.perf_counter_ns

        def timed(chunk: Sequence[Tuple[Callable[..., Any], tuple]], governed: bool) -> int:
            t0 = clock()
            for fn, args in chunk:
                if governed:
                    fn(*args, ctx=QueryContext(timeout=30.0, governor=governor))
                else:
                    fn(*args)
            return clock() - t0

        try:
            diffs = []
            for block in range(10):
                lo = (block * 200) % len(calls)
                chunk = calls[lo:lo + 200]
                timed(chunk, False)
                first = timed(chunk, block % 2 == 1)
                second = timed(chunk, block % 2 == 0)
                governed, bare = (first, second) if block % 2 else (second, first)
                diffs.append((governed - bare) / len(chunk) / 1e3)
            self.put(runtime__ctx_overhead_us=statistics.median(diffs))
        finally:
            governor.shutdown()

    def write_path_layers(self, commit_s: Sequence[float], seal_s: Sequence[float]) -> None:
        commits, seals = sorted(commit_s), sorted(seal_s)
        self.put(storage__commit_ms__p50=percentile(commits, 0.5) * 1e3,
                 storage__commit_ms__p99=percentile(commits, 0.99) * 1e3,
                 storage__seal_ms__p50=percentile(seals, 0.5) * 1e3)

    # -- library path: table5-hot and table5-cold --------------------------

    def _library_setup(self, watch: Stopwatch) -> Dict[str, Any]:
        """Contact text -> parse -> compress -> save -> mmap load, per corpus."""
        graphs, compress_s, bpc = {}, {}, {}
        contacts = bits = 0
        for corpus in self.plan["corpora"]:
            name = corpus["name"]
            g = read_contact_text(self.corpus_path(corpus))
            watch.lap()
            cg = compress(g)
            compress_s[name] = watch.lap()
            path = self.work / f"{name}.chrono"
            save_compressed(cg, path)
            contacts += cg.num_contacts
            bits += cg.size_in_bits
            bpc[name] = cg.bits_per_contact
            del g, cg
            graphs[name] = load_compressed(path, mmap=True)
            watch.lap()
        return {"graphs": list(graphs.values()), "compress_s": compress_s, "bpc": bpc,
                "contacts": contacts, "bits": bits}

    def library(self) -> None:
        cold = self.workload == "table5-cold"
        compress_s: Dict[str, List[float]] = {}

        def setup(watch: Stopwatch) -> Dict[str, Any]:
            state = self._library_setup(watch)
            for name, seconds in state["compress_s"].items():
                compress_s.setdefault(name, []).append(seconds)
            return state

        state = self.setup(setup, lambda _state: None)
        graphs = state["graphs"]
        if cold:
            graphs[0].configure_cache(max_bytes=COLD_CACHE_BYTES)
        self.put(bits_per_contact=state["bits"] / state["contacts"])
        expected = {int(k): v for k, v in self.plan["expected"].items()}
        scan_expected = {k: [tuple(e) for e in s]
                         for k, s in enumerate(self.plan["scan_expected"])}
        scans = self.plan["scans"]

        def point_calls() -> CallList:
            return [(graphs[ci].neighbors, (u, t1, t2), "neighbors") if op == 0
                    else (graphs[ci].has_edge, (u, v, t1, t2), "has_edge")
                    for op, ci, u, v, t1, t2 in self.plan["queries"]]

        # The hot loop runs cache-warm by design.  The cold one fills its
        # bounded cache with a prefix of the queries and measures from the
        # end of that prefix, so no measured window replays warm-up queries.
        calls = point_calls()
        first_op = self.sizes.warmup_ops if cold else 0
        for fn, args, _op in calls[:first_op or len(calls)]:
            fn(*args)
        gc.collect()
        self.put(rss_mib=rss_mib())
        window_ops = WINDOW_OPS[self.workload]
        scan_ops = min(len(scans), len(graphs))

        def covered(k: int) -> int:
            return graphs[scans[k % len(scans)][0]].num_contacts

        def run_half(seconds: float, tracer: Optional[Tracer]) -> Phase:
            # Point and scan blocks alternate, so both sample the whole phase.
            calls = point_calls()
            scan_calls = [(graphs[ci].snapshot, (t1, t2), "snapshot") for ci, t1, t2 in scans]
            point, scan = Loop(), Loop()
            cache = []  # (before, after) cache_stats() of every point block
            raw_s = 0.0
            block = seconds / PHASE_BLOCKS
            for _ in range(PHASE_BLOCKS):
                before = [g.cache_stats() for g in graphs]
                raw_s += closed_loop(block * 2 / 3, point, lambda raw: run_ops(
                    calls, expected, first_op + point.ops, window_ops, point, raw, tracer),
                    lambda k: 0).raw_s
                cache.append((before, [g.cache_stats() for g in graphs]))
                raw_s += closed_loop(block / 3, scan, lambda raw: run_ops(
                    scan_calls, scan_expected, scan.ops, scan_ops, scan, raw, tracer),
                    covered).raw_s
            return Phase(point, raw_s, scan, {"cache": cache})

        first, _second = self.phase(run_half)
        self.end_to_end(first)
        # More compresses per corpus after the phase, so the median spans
        # the whole run rather than its first seconds.
        for _ in range(COMPRESS_AFTER[self.workload]):
            for corpus in self.plan["corpora"]:
                g = read_contact_text(self.corpus_path(corpus))
                watch = Stopwatch()
                compress(g)
                compress_s[corpus["name"]].append(watch.lap())
        self.put(compress_contacts_per_s=state["contacts"]
                 / sum(median(times) for times in compress_s.values()))
        if self.trace:
            self._library_layers(first, state)

    def _library_layers(self, first: Phase, state: Dict[str, Any]) -> None:
        graphs = state["graphs"]
        point = first.point
        if self.workload == "table5-hot":
            for corpus in self.plan["corpora"]:
                name = corpus["name"]
                self.metrics[f"core.encoder.compress_s.{name}"] = state["compress_s"][name]
                self.metrics[f"core.encoder.bpc.{name}"] = state["bpc"][name]
        deltas = [(key, a[key] - b[key]) for before, after in first.extra["cache"]
                  for b, a in zip(before, after) for key in ("hits", "misses", "evictions")]
        hits, misses, evictions = (sum(d for k, d in deltas if k == key)
                                   for key in ("hits", "misses", "evictions"))
        self.put(core__compressed__neighbors_p50_us=point.op_p50("neighbors"),
                 core__compressed__has_edge_p50_us=point.op_p50("has_edge"),
                 core__compressed__snapshot_s=first.scan.op_p50("snapshot") / 1e6,
                 core__compressed__cache_hit_ratio=hits / max(1, hits + misses),
                 core__compressed__evictions_per_op=evictions / max(1, point.ops))
        pairs = [(graphs[ci].edge_timestamps, (u, v), "edge_timestamps")
                 for op, ci, u, v, _t1, _t2 in self.plan["queries"] if op == 1]
        timestamps = Loop()
        closed_loop(0.5, timestamps, lambda raw: run_ops(
            pairs, {}, timestamps.ops, 1024, timestamps, raw), lambda k: 0)
        self.put(core__compressed__edge_timestamps_p50_us=timestamps.op_p50("edge_timestamps"))
        # Record decode on freshly mapped graphs: nothing is cached yet.
        samples = []
        for corpus in self.plan["corpora"]:
            fresh = load_compressed(self.work / f"{corpus['name']}.chrono", mmap=True)
            fresh.contacts_of(0)  # settles the deferred stream checksums
            for u in range(1, fresh.num_nodes, max(1, fresh.num_nodes // 200)):
                t0 = time.perf_counter_ns()
                fresh.contacts_of(u)
                samples.append(time.perf_counter_ns() - t0)
        self.put(core__compressed__record_cold_us=percentile(sorted(samples), 0.5) / 1e3)
        t0 = time.perf_counter()
        for corpus in self.plan["corpora"]:
            load_compressed(self.work / f"{corpus['name']}.chrono", mmap=False)
        self.put(core__serialize__load_heap_s=time.perf_counter() - t0)
        self.ctx_overhead([(graphs[ci].neighbors, (u, t1, t2))
                           for op, ci, u, _v, t1, t2 in self.plan["queries"] if op == 0])
        temporal = [read_contact_text(self.corpus_path(c)) for c in self.plan["corpora"]]
        self.bits_micro(temporal)

    # -- stores: serve-store and ingest-compact ----------------------------

    def build_store(self, directory: Path, contacts: Sequence[Any], kind: Any,
                    watch: Stopwatch) -> Tuple[SegmentStore, Dict[str, Any]]:
        """A fresh store holding ``contacts``, ingested in batches (seals
        inline); returns it with the calibrated seconds of each non-sealing
        and each sealing ``ingest()`` call and the contacts each seal wrote."""
        if directory.exists():
            shutil.rmtree(directory)
        watch.lap(count=False)
        policy = StorePolicy(seal_contacts=self.sizes.seal_contacts)
        store = SegmentStore.create(directory, kind, policy=policy)
        commit_s: List[float] = []
        seal_s: List[float] = []
        sealed: List[int] = []
        try:
            for lo in range(0, len(contacts), BATCH):
                segments = len(store.manifest.segments)
                store.ingest(contacts[lo:lo + BATCH])
                seconds = watch.lap()
                if len(store.manifest.segments) != segments:
                    seal_s.append(seconds)
                    sealed.append(store.manifest.segments[-1].contacts)
                else:
                    commit_s.append(seconds)
        except BaseException:
            store.close()
            raise
        return store, {"commit_s": commit_s, "seal_s": seal_s, "sealed": sealed}

    def serve(self) -> None:
        corpus = self.plan["corpora"][0]
        store_dir = self.work / "store"
        builds: List[Dict[str, Any]] = []

        def setup(watch: Stopwatch) -> Server:
            g = read_contact_text(self.corpus_path(corpus))
            order = time_order(g)
            watch.lap()
            store, stats = self.build_store(store_dir, order, g.kind, watch)
            store.close()
            del g, order
            builds.append(stats)
            return start_server(store_dir)

        server = None
        try:
            server = self.setup(setup, stop_server)
            self._serve_measure(server[1], builds, store_dir)
        finally:
            if server is not None:
                stop_server(server)

    def _serve_measure(self, clients: List[ServiceClient], builds: List[Dict[str, Any]],
                       store_dir: Path) -> None:
        requests = self.plan["requests"]
        cover: Dict[int, int] = {}
        with SegmentStore.open(store_dir, read_only=True) as store:
            view = store.graph
            self.put(bits_per_contact=8 * store_bytes(store) / view.num_contacts)
            tail = view.num_contacts - sum(s.contacts for s in store.manifest.segments)
            for k, (op, args) in enumerate(requests):
                if op == "s":
                    cover[k] = tail + sum(s.contacts for s in view.plan(*args))
        # Encoder throughput of every sealing ingest() of every store build.
        self.put(compress_contacts_per_s=pooled(
            [event for b in builds for event in zip(b["sealed"], b["seal_s"])]))
        expected = {int(k): [tuple(e) for e in v] if requests[int(k)][0] == "s" else v
                    for k, v in self.plan["expected"].items()}
        for t, client in enumerate(clients):
            calls = request_calls(client, requests)
            for fn, args, _op in calls[t:self.sizes.warmup_ops:SERVE_CONNECTIONS]:
                fn(*args)
        served: Dict[int, Any] = {}
        window_ops = WINDOW_OPS["serve-store"]

        def run_half(seconds: float, tracer: Optional[Tracer]) -> Phase:
            per_client = [request_calls(c, requests) for c in clients]
            point = Loop()
            start = [0]

            def run_window(raw: Raw) -> None:
                # One thread per connection for the window's ops; the probe
                # after the window runs while both connections are idle.
                parts = [(Loop(), new_raw()) for _ in clients]
                first = start[0]
                start[0] += window_ops * SERVE_CONNECTIONS

                def connection(t: int) -> None:
                    run_ops(per_client[t], expected, first + t, window_ops, parts[t][0],
                            parts[t][1], tracer, stride=SERVE_CONNECTIONS, record=served)

                threads = [threading.Thread(target=connection, args=(t,))
                           for t in range(SERVE_CONNECTIONS)]
                try:
                    for thread in threads:
                        thread.start()
                finally:
                    for thread in threads:
                        if thread.ident is not None:
                            thread.join()
                lat, scans = raw
                for part, (part_lat, part_scans) in parts:
                    point.merge(part)
                    for op, values in part_lat.items():
                        lat.setdefault(op, array.array("q")).extend(values)
                    scans.extend(part_scans)

            watch = closed_loop(seconds, point, run_window, lambda k: cover[k % len(requests)])
            return Phase(point, watch.raw_s)

        first, _second = self.phase(run_half)
        self.end_to_end(first)
        stats = clients[0].stats()
        self.put(rss_mib=rss_mib(str(stats["pid"])))
        # Served answers must equal in-process answers on the same store.
        with SegmentStore.open(store_dir, read_only=True) as store:
            local = request_calls(store.graph, requests)
            for k, got in sorted(served.items()):
                fn, args, _op = local[k]
                self.loop.check(got, fn(*args))
            if self.trace:
                self._serve_layers(first, stats, store.graph, local, builds[-1])

    def _serve_layers(self, first: Phase, stats: Dict[str, Any], graph: Any,
                      local: CallList, build: Dict[str, Any]) -> None:
        point = first.point
        for op in ("neighbors", "has_edge", "edge_timestamps", "neighbors_many", "snapshot"):
            self.metrics[f"service.rtt_p50_us.{op}"] = point.op_p50(op)
        governor = stats["governor"]
        replay = Loop()
        closed_loop(1.0, replay, lambda raw: run_ops(local, {}, replay.ops, 1024, replay, raw),
                    lambda k: 0)
        neighbors = [(fn, args) for fn, args, op in local if op == "neighbors"]
        parts = [len(graph.plan(args[1], args[2])) + 1 for _fn, args in neighbors]
        self.put(runtime__governor__rejected=governor["rejected"],
                 runtime__governor__peak_in_flight=governor["peak_in_flight"],
                 storage__segments__parts_per_query=statistics.mean(parts),
                 storage__segments__neighbors_p50_us=replay.op_p50("neighbors"),
                 service__overhead_p50_us=point.op_p50("neighbors") - replay.op_p50("neighbors"))
        self.ctx_overhead(neighbors)
        self.write_path_layers(build["commit_s"], build["seal_s"])
        small = {"id": 1, "op": "neighbors", "params": {"args": [1, 2, 3]}}
        large = {"id": 1, "ok": True, "result": list(range(4096))}
        for name, message in (("small", small), ("large", large)):
            self.metrics[f"service.protocol.frame_us.{name}"] = frame_roundtrip_us(message)
        self.bits_micro([read_contact_text(self.corpus_path(self.plan["corpora"][0]))])

    def ingest(self) -> None:
        """The write path in cycles: each copies the store set up with 8
        sealed segments and ingests the same ``cycle_batches`` batches into
        it, so every cycle does the same work on the same store states."""
        corpus = self.plan["corpora"][0]
        pristine = self.work / "pristine"
        prefill = self.plan["prefill"]
        cycle: List[Any] = []

        def setup(watch: Stopwatch) -> None:
            g = read_contact_text(self.corpus_path(corpus))
            stream = time_order(g)
            watch.lap()
            store, _stats = self.build_store(pristine, stream[:prefill], g.kind, watch)
            store.close()
            cycle[:] = stream[prefill:prefill + self.sizes.cycle_batches * BATCH]

        self.setup(setup, lambda _state: None)
        batches = [cycle[lo:lo + BATCH] for lo in range(0, len(cycle), BATCH)]
        reads = {int(k): v for k, v in self.plan["expected_reads"].items()}
        scans = {int(k): [tuple(e) for e in v] for k, v in self.plan["expected_scans"].items()}
        pristine_segments = {p.name for p in pristine.iterdir()}
        final: Dict[str, float] = {}

        def run_half(seconds: float, tracer: Optional[Tracer]) -> Phase:
            point = Loop()
            stats: Dict[str, List[float]] = {
                "commit_s": [], "seal_s": [], "compact_s": [], "encoded": [],
                "read_s": [], "parts": [], "segment_bytes": [], "contacts": []}
            clock = time.perf_counter_ns
            deadline = clock() + int(seconds * 1e9)
            run_dir = self.work / "cycle"
            policy = StorePolicy(seal_contacts=self.sizes.seal_contacts)
            watch = Stopwatch()
            while True:
                if run_dir.exists():
                    shutil.rmtree(run_dir)
                shutil.copytree(pristine, run_dir)
                store = SegmentStore.open(run_dir, policy=policy)
                try:
                    watch.lap(count=False)
                    self._cycle(store, batches, watch, point, stats, reads, scans, tracer)
                    stats["segment_bytes"].append(sum(
                        s.size for s in store.manifest.segments
                        if s.name not in pristine_segments))
                    if not final:
                        final.update(bpc=8 * store_bytes(store) / store.graph.num_contacts,
                                     segments=len(store.manifest.segments))
                    final["rss"] = rss_mib()
                finally:
                    store.close()
                watch.lap(count=False)
                if clock() >= deadline:
                    break
            return Phase(point, watch.raw_s, None, stats)

        first, _second = self.phase(run_half)
        stats = first.extra
        self.end_to_end(first)
        self.put(compress_contacts_per_s=pooled(stats["encoded"]),
                 bits_per_contact=final["bpc"], rss_mib=final["rss"])
        if self.trace:
            cycles = len(stats["segment_bytes"])
            wal_bytes = sum(len(encode_batch(batch)) for batch in batches)
            wall = sum(w.seconds for w in first.point.windows)
            read_s = sorted(stats["read_s"])
            self.write_path_layers(stats["commit_s"], stats["seal_s"])
            self.put(storage__compact_ms__p50=percentile(sorted(stats["compact_s"]), 0.5) * 1e3,
                     storage__compact_share=sum(stats["compact_s"]) / wall,
                     storage__bytes_written_per_contact=(wal_bytes + median(
                         stats["segment_bytes"])) / len(cycle),
                     storage__segments_final=final["segments"],
                     storage__ingest_contacts_per_s=cycles * len(cycle) / wall,
                     storage__segments__neighbors_p50_us=percentile(read_s, 0.5) * 1e6,
                     storage__segments__neighbors_p99_us=percentile(read_s, 0.99) * 1e6,
                     storage__segments__parts_per_query=statistics.mean(stats["parts"]))
            width = self.plan["width"]
            t_last = cycle[-1].time
            # The last cycle's store, as that cycle left it.
            with SegmentStore.open(self.work / "cycle", read_only=True) as store:
                graph = store.graph
                self.ctx_overhead([(graph.neighbors, (c.u, t_last - width, t_last - 1))
                                   for c in cycle[::16]])
                kind, num_nodes = graph.kind, graph.num_nodes
            self.bits_micro([TemporalGraph(kind, num_nodes, cycle)])

    def _cycle(self, store: SegmentStore, batches: Sequence[Sequence[Any]], watch: Stopwatch,
               point: Loop, stats: Dict[str, List[float]], reads: Dict[int, Any],
               scans: Dict[int, Any], tracer: Optional[Tracer]) -> None:
        """One cycle, as one window: every batch is ingested, followed by the
        compaction it triggers, its reads and, once per seal's worth of
        batches, a window scan.  Each of these steps is one calibrated lap
        (see :func:`lapped`): a seal, a merge or a scan runs for a tenth of
        a second or more, and probes of its own follow the host better than
        probes around a whole batch."""
        clock = time.perf_counter_ns
        width = self.plan["width"]
        per_scan = self.sizes.seal_contacts // BATCH
        read_ns: List[float] = []
        cycle_s = 0.0

        def ingest(batch: Sequence[Any]) -> None:
            try:
                store.ingest(batch)
            except Exception as exc:  # counted as a failed op; the cycle goes on
                point.fail(exc)

        def merge() -> int:
            merged = sum(info.contacts for info in store.pick_merge())
            store.compact_once()
            return merged

        def read(nodes: Sequence[int], t1: int, t2: int) -> List[Tuple[int, Any]]:
            graph = store.graph
            out = []
            for u in nodes:
                t0 = clock()
                got = graph.neighbors(u, t1, t2)
                out.append((clock() - t0, got))
            return out

        for b, batch in enumerate(batches):
            if tracer is not None:
                tracer.set_request(b)
            segments = len(store.manifest.segments)
            _none, seconds = lapped(watch, tracer, ingest, batch)
            if len(store.manifest.segments) != segments:
                stats["seal_s"].append(seconds)
                stats["encoded"].append((store.manifest.segments[-1].contacts, seconds))
            else:
                stats["commit_s"].append(seconds)
            cycle_s += seconds
            while store.compaction_needed():
                merged, seconds = lapped(watch, tracer, merge)
                stats["compact_s"].append(seconds)
                stats["encoded"].append((merged, seconds))
                cycle_s += seconds
            t_last = batch[-1].time
            t1, t2 = t_last - width, t_last - 1
            nodes = self.plan["read_nodes"][b]
            answers, seconds = lapped(watch, tracer, read, nodes, t1, t2)
            cycle_s += seconds
            for j, (ns, got) in enumerate(answers):
                read_ns.append(ns * watch.scale)
                want = reads.get(b * READS_PER_BATCH + j, _MISSING)
                if want is not _MISSING:
                    point.check(got, want)
            graph = store.graph
            stats["parts"].append(len(graph.plan(t1, t2)) + 1)
            if b % per_scan == per_scan - 1:
                got, seconds = lapped(watch, tracer, graph.snapshot, t1, t2)
                cycle_s += seconds
                covered = graph.num_contacts - sum(
                    s.contacts for s in store.manifest.segments
                    if not s.overlaps(graph.kind, t1, t2))
                point.scans.append((covered, seconds))
                if b in scans:
                    point.check(got, scans[b])
        stats["read_s"].extend(ns / 1e9 for ns in read_ns)
        point.close(len(batches), cycle_s, {"neighbors": read_ns})

    # -- entry -------------------------------------------------------------

    def run(self) -> Dict[str, Any]:
        if self.workload in ("table5-hot", "table5-cold"):
            self.library()
        elif self.workload == "serve-store":
            self.serve()
        else:
            self.ingest()
        loop = self.loop
        result: Dict[str, Any] = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "digest": self.plan["digest"],
            "attempted": loop.ops,
            "failed": loop.failed + loop.wrong,
            "checked": loop.checked,
            "errors": loop.errors,
            "metrics": self.metrics,
            "labels": self.labels,
        }
        if self.tracer is not None:
            path = self.out / f"trace-{self.workload}.json"
            self.out.mkdir(parents=True, exist_ok=True)
            write_json(path, dict(self.trace_doc, workload=self.workload, seed=self.seed,
                                  spans=list(span_records(self.tracer.spans))))
            result["trace_file"] = str(path)
        return result


# -- service plumbing ----------------------------------------------------------


def request_calls(target: Any, requests: Sequence[Any]) -> CallList:
    """The serve request stream as calls on ``target``: a service connection
    or, for the in-process comparison, the store's query view."""
    names = {"n": "neighbors", "e": "has_edge", "t": "edge_timestamps",
             "m": "neighbors_many", "s": "snapshot"}
    out = []
    for op, args in requests:
        name = names[op]
        call_args = ([tuple(q) for q in args],) if op == "m" else tuple(args)
        out.append((getattr(target, name), call_args, name))
    return out


def start_server(store_dir: Path) -> Server:
    """``repro serve`` with one worker, plus connected clients.  The server
    inherits this process's single-vCPU affinity, so client and server
    share the vCPU the probes measure."""
    cmd = [sys.executable, "-m", "repro", "serve", str(store_dir),
           "--workers", "1", "--port", "0"]
    # Same process group as this process, so run.py's group kill on a
    # timeout reaches the server and its worker too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    clients: List[ServiceClient] = []
    worker = 0
    try:
        line = proc.stdout.readline()
        match = re.search(r"tcp://\S+", line)
        if match is None:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        for _ in range(SERVE_CONNECTIONS):
            client = ServiceClient.from_url(match.group(0))
            clients.append(client)
            worker = client.ping()["pid"]
    except BaseException:
        stop_server((proc, clients, worker))
        raise
    return proc, clients, worker


def stop_server(server: Server) -> None:
    """Close the clients, stop the server and wait for it.

    SIGINT is ``repro serve``'s clean shutdown: the supervisor stops and
    joins its worker.  If the supervisor does not exit, the worker is
    killed along with it, since an orphaned worker would live on."""
    proc, clients, worker = server
    for client in clients:
        client.close()
    try:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                # Only while it is still in this process group, i.e. not
                # reaped and its pid not reused.
                try:
                    if worker and os.getpgid(worker) == os.getpgrp():
                        os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.kill()
                proc.wait()
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def frame_roundtrip_us(message: Dict[str, Any], rounds: int = 2000) -> float:
    """Median send_message + recv_message time over a socketpair."""
    a, b = socket.socketpair()
    try:
        samples = []
        for _ in range(rounds):
            t0 = time.perf_counter_ns()
            send_message(a, message)
            recv_message(b)
            samples.append(time.perf_counter_ns() - t0)
        return percentile(sorted(samples), 0.5) / 1e3
    finally:
        a.close()
        b.close()


# -- entry point ---------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="one end-to-end benchmark child process")
    parser.add_argument("role", choices=("generate", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, help="measured phase (measure only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    # A launcher that ignores SIGINT (a background job, for one) would pass
    # that on to `repro serve`, whose clean shutdown is its SIGINT handler.
    # A caught signal reverts to the default across exec; an ignored one
    # stays ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sizes = QUICK if args.quick else FULL
    if args.role == "generate":
        generate(args.workload, args.seed, args.work, sizes)
        return 0
    if args.seconds is None:
        parser.error("measure needs --seconds")
    # One vCPU for everything measured, server included: the probes then
    # measure the vCPU the work ran on, and vCPUs that run at different
    # speeds never swap in the middle of a run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    measure = Measure(args.workload, args.seed, args.work, args.seconds,
                      bool(args.trace), args.out or args.work, sizes)
    write_json(args.work / "result.json", measure.run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
