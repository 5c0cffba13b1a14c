"""Span recording for the end-to-end benchmark's traced runs.

The program has no tracing of its own yet, so a traced run wraps, from the
outside, the public functions the benchmark calls into and the public
functions those call in turn (:data:`TARGETS`).  Nesting is what makes the
numbers per layer: a span's *self time* is its duration minus the time its
child spans cover, so ``CompressedChronoGraph.neighbors`` is charged only
for its query logic and cache lookup, while the record decode it triggers
lands on ``core.structure`` / ``core.timestamps`` and the bulk code reads
below them on ``bits``.

Every span updates per-name inclusive totals as it closes, and per-layer
self time when it runs under a harness section (a measured loop), so
aggregation covers the whole traced phase; only the first
:data:`SPAN_CAP` spans are kept verbatim for the trace file.  Each span holds
its id, parent id, name, layer, start and end (ns) and the request id the
harness set on the calling thread, so the spans of one request share it.
The harness's own loop runs in a span of layer :data:`HARNESS_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

__all__ = [
    "HARNESS_LAYER",
    "LAYERS",
    "PROGRAM_LAYERS",
    "SPAN_CAP",
    "TARGETS",
    "TRACER_LAYER",
    "Tracer",
    "self_times",
    "span_records",
]

#: Spans kept verbatim for the trace file; later spans are aggregated only.
SPAN_CAP = 20_000

#: (module, attribute path, layer) of every call a traced run times: the
#: calls each workload's set-up and loop make, and the decode and storage
#: calls below them.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graph.io", "read_contact_text", "graph.io"),
    ("repro.core.encoder", "compress", "core.encoder"),
    ("repro.core.serialize", "save_compressed", "core.serialize"),
    ("repro.core.serialize", "dumps_compressed", "core.serialize"),
    ("repro.core.serialize", "load_compressed", "core.serialize"),
    ("repro.core.serialize", "load_compressed_bytes", "core.serialize"),
    ("repro.core.compressed", "CompressedChronoGraph.neighbors", "core.compressed"),
    ("repro.core.compressed", "CompressedChronoGraph.has_edge", "core.compressed"),
    ("repro.core.compressed", "CompressedChronoGraph.snapshot", "core.compressed"),
    ("repro.core.structure", "decode_node_structure", "core.structure"),
    ("repro.core.timestamps", "decode_node_timestamps", "core.timestamps"),
    ("repro.bits.codes", "read_many_gamma_natural", "bits"),
    ("repro.bits.codes", "read_many_zeta_natural", "bits"),
    ("repro.bits.codes", "read_many_zeta_natural_pairs", "bits"),
    ("repro.storage.segments", "SegmentStore.ingest", "storage.segments"),
    ("repro.storage.segments", "SegmentStore.compact_once", "storage.segments"),
    ("repro.storage.segments", "SegmentedChronoGraph.neighbors", "storage.segments"),
    ("repro.storage.segments", "SegmentedChronoGraph.snapshot", "storage.segments"),
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal"),
    ("repro.storage.wal", "WriteAheadLog.commit", "storage.wal"),
    ("repro.storage.atomic", "atomic_write_bytes", "storage.atomic"),
    ("repro.service.client", "ServiceClient.neighbors", "service.client"),
    ("repro.service.client", "ServiceClient.has_edge", "service.client"),
    ("repro.service.client", "ServiceClient.edge_timestamps", "service.client"),
    ("repro.service.client", "ServiceClient.neighbors_many", "service.client"),
    ("repro.service.client", "ServiceClient.snapshot", "service.client"),
    ("repro.service.protocol", "send_message", "service.protocol"),
    ("repro.service.protocol", "recv_message", "service.protocol"),
)

#: Layer of the harness's loop spans: loop control, timing and answer checks.
HARNESS_LAYER = "bench"
#: Pseudo-layer charged with the tracer's own bookkeeping at span close.
TRACER_LAYER = "tracer"

#: Program layers the traced run reports a self-time share for, in report
#: order (``graph.io`` only runs in set-up, which has its own metrics).
PROGRAM_LAYERS: Tuple[str, ...] = (
    "core.encoder",
    "core.serialize",
    "core.compressed",
    "core.structure",
    "core.timestamps",
    "bits",
    "storage.segments",
    "storage.wal",
    "storage.atomic",
    "service.client",
    "service.protocol",
)
LAYERS: Tuple[str, ...] = PROGRAM_LAYERS + (HARNESS_LAYER, TRACER_LAYER)

#: Span tuple layout: (id, parent, name, layer, start_ns, end_ns, request).
Span = Tuple[int, int, str, str, int, int, int]


class _ThreadState:
    """Per-thread span stack and aggregates (merged when read)."""

    __slots__ = ("stack", "request", "self_ns", "calls")

    def __init__(self) -> None:
        self.stack: List[List[int]] = []  # [span id, child ns, parent id]
        self.request = 0
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, List[int]] = {}  # name -> [count, inclusive ns]


class Tracer:
    """Records spans from wrapped calls and harness-declared sections.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def set_request(self, request: int) -> None:
        """Tag the calling thread's next spans with ``request``."""
        self._state().request = request

    def _open(self, state: _ThreadState, section: bool = False) -> List[int]:
        """Push a frame ``[id, child ns, parent id, under a section]``."""
        stack = state.stack
        if stack:
            parent = stack[-1]
            frame = [next(self._ids), 0, parent[0], parent[3]]
        else:
            frame = [next(self._ids), 0, 0, int(section)]
        stack.append(frame)
        return frame

    def _close(self, state: _ThreadState, frame: List[int], name: str, layer: str,
               start: int, end: int) -> None:
        """Account one finished span.  Self time is summed only for spans
        under a harness section -- the measured loops -- so harness
        scaffolding between loops (reopening a store, say) counts in
        :meth:`calls` but not in the per-layer shares.  The bookkeeping
        after ``end`` is timed and charged to :data:`TRACER_LAYER`, and
        hidden from the parent, so tracing cost never inflates a program
        layer."""
        stack = state.stack
        stack.pop()
        duration = end - start
        self_ns = state.self_ns
        if frame[3]:
            self_ns[layer] = self_ns.get(layer, 0) + duration - frame[1]
        entry = state.calls.get(name)
        if entry is None:
            state.calls[name] = [1, duration]
        else:
            entry[0] += 1
            entry[1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], frame[2], name, layer, start, end, state.request))
        overhead = self.clock() - end
        if frame[3]:
            self_ns[TRACER_LAYER] = self_ns.get(TRACER_LAYER, 0) + overhead
        if stack:
            stack[-1][1] += duration + overhead

    def wrap(self, fn: Callable[..., Any], name: str, layer: str) -> Callable[..., Any]:
        """``fn`` wrapped so each call records one span."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            state = tracer._state()
            frame = tracer._open(state)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(state, frame, name, layer, start, clock())

        return traced

    def section(self, name: str) -> "_Section":
        """Context manager recording one :data:`HARNESS_LAYER` span around a
        block."""
        return _Section(self, name, HARNESS_LAYER)

    # -- instrumentation ----------------------------------------------

    def install(self) -> None:
        """Wrap every one of :data:`TARGETS`; module functions are also
        replaced wherever another loaded module imported them by name.

        Bound methods and function references taken before this call keep
        pointing at the originals, so callers build their call lists after
        installing."""
        # Import every target module first, so a module imported by a later
        # target still has its by-name imports of earlier targets replaced.
        for module_name, _path, _layer in TARGETS:
            importlib.import_module(module_name)
        for module_name, path, layer in TARGETS:
            module = sys.modules[module_name]
            owner: Any = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if inspect.isgeneratorfunction(original):
                raise TypeError(f"{module_name}.{path} is a generator; cannot time it")
            wrapped = self.wrap(original, path, layer)
            self._patch(owner, attr, original, wrapped)
            if outer:
                continue
            for other in list(sys.modules.values()):
                if other is module or other is None:
                    continue
                for key, value in list(getattr(other, "__dict__", {}).items()):
                    if value is original:
                        self._patch(other, key, original, wrapped)

    def _patch(self, owner: Any, attr: str, original: Any, wrapped: Any) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- reading -------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and aggregates (patches stay installed)."""
        with self._lock:
            for state in self._states:
                state.self_ns.clear()
                state.calls.clear()
        self.spans = []

    def self_ns(self) -> Dict[str, int]:
        """Self time per layer, summed over threads."""
        out: Dict[str, int] = {}
        with self._lock:
            for state in self._states:
                for layer, ns in state.self_ns.items():
                    out[layer] = out.get(layer, 0) + ns
        return out

    def calls(self) -> Dict[str, Tuple[int, int]]:
        """``name -> (count, inclusive ns)``, summed over threads."""
        out: Dict[str, List[int]] = {}
        with self._lock:
            for state in self._states:
                for name, (count, ns) in state.calls.items():
                    entry = out.setdefault(name, [0, 0])
                    entry[0] += count
                    entry[1] += ns
        return {name: (c, ns) for name, (c, ns) in out.items()}

    def inclusive_s(self, name: str) -> float:
        """Total inclusive seconds of spans named ``name``."""
        return self.calls().get(name, (0, 0))[1] / 1e9


class _Section:
    __slots__ = ("_tracer", "_name", "_layer", "_state", "_frame", "_start")

    def __init__(self, tracer: Tracer, name: str, layer: str) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __enter__(self) -> "_Section":
        self._start = self._tracer.clock()
        self._state = self._tracer._state()
        self._frame = self._tracer._open(self._state, section=True)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._close(self._state, self._frame, self._name, self._layer,
                            self._start, self._tracer.clock())


def self_times(spans: Iterable[Span]) -> Dict[str, int]:
    """Self time per layer from a span list: each span's duration minus the
    duration of its direct children.  The recorder computes the same sums
    online; this offline form is the reference the self-tests check."""
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for span_id, parent, _name, _layer, start, end, _req in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: Dict[str, int] = {}
    for span_id, _parent, _name, layer, start, end, _req in spans:
        out[layer] = out.get(layer, 0) + (end - start) - child_ns.get(span_id, 0)
    return out


def span_records(spans: Iterable[Span]) -> Iterator[Dict[str, Any]]:
    """Spans as JSON-ready dicts (times in microseconds)."""
    for span_id, parent, name, layer, start, end, request in spans:
        yield {
            "id": span_id,
            "parent": parent,
            "name": name,
            "layer": layer,
            "start_us": start / 1e3,
            "end_us": end / 1e3,
            "request": request,
        }
