#!/usr/bin/env python
"""Batch-query benchmark: ``neighbors_many`` vs a plain ``neighbors`` loop.

The batch API must beat the equivalent loop.  The workload is
cache-thrashy: the record cache is bounded far below the node count and
the queries come in shuffled order, so the loop re-decodes constantly
while ``neighbors_many`` groups the batch by node and decodes each node
once.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full run
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick    # smoke run
    PYTHONPATH=src python benchmarks/bench_parallel.py --check    # CI gate

``--check`` exits non-zero unless ``neighbors_many`` beats the loop by
at least ``MIN_SPEEDUP``; the win comes from decode deduplication, so it
holds on one CPU.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import compress  # noqa: E402
from repro.datasets.synthetic import comm_net  # noqa: E402
from repro.storage.atomic import atomic_write_text  # noqa: E402

#: Gate threshold: batched must be at least this many times faster than
#: the serial loop.  Kept deliberately loose; the observed ratio is > 2x.
MIN_SPEEDUP = 1.1


def _timed(fn, repeats: int) -> float:
    """Best-of-N wall time in seconds (min damps scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _thrashy_queries(cg, per_node: int, seed: int):
    """Shuffled window queries revisiting every node ``per_node`` times."""
    rng = random.Random(seed)
    queries = [
        (u, 0, 10**9)
        for u in range(cg.num_nodes)
        for _ in range(per_node)
    ]
    rng.shuffle(queries)
    return queries


def run(quick: bool) -> dict:
    """Time the batch against the loop; returns the result dict."""
    nodes = 120 if quick else 300
    steps = 80 if quick else 220
    repeats = 3 if quick else 5
    graph = comm_net(
        num_nodes=nodes, time_steps=steps, contacts_per_step=nodes // 8, seed=11
    )
    cg = compress(graph)
    # Bound the cache far below the node count: the serial shuffled loop
    # re-decodes constantly while the batch API groups by node first.
    cg.configure_cache(max_entries=8)
    queries = _thrashy_queries(cg, per_node=4, seed=17)

    serial_many = _timed(
        lambda: [cg.neighbors(u, a, b) for u, a, b in queries], repeats
    )
    batched_many = _timed(lambda: cg.neighbors_many(queries), repeats)
    assert cg.neighbors_many(queries) == [
        cg.neighbors(u, a, b) for u, a, b in queries
    ]

    return {
        "schema": "chronograph-bench-parallel/v2",
        "quick": quick,
        "graph": {"nodes": nodes, "contacts": graph.num_contacts},
        "neighbors_many": {
            "serial_s": serial_many,
            "batched_s": batched_many,
            "speedup": serial_many / batched_many,
            "queries": len(queries),
        },
    }


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smoke-sized run")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail unless neighbors_many speedup >= {MIN_SPEEDUP}x",
    )
    parser.add_argument("--out", type=Path, default=None, help="JSON output path")
    args = parser.parse_args(argv)

    result = run(quick=args.quick)
    r = result["neighbors_many"]
    print(
        f"neighbors_many: serial {r['serial_s'] * 1e3:8.2f} ms | "
        f"batched {r['batched_s'] * 1e3:8.2f} ms | speedup {r['speedup']:.2f}x"
    )
    if args.out:
        atomic_write_text(args.out, json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
    if args.check:
        speedup = result["neighbors_many"]["speedup"]
        if speedup < MIN_SPEEDUP:
            print(
                f"FAIL: neighbors_many speedup {speedup:.2f}x "
                f"< required {MIN_SPEEDUP}x"
            )
            return 1
        print(f"OK: neighbors_many speedup {speedup:.2f}x >= {MIN_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
