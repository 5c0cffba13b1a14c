"""Command-line interface: generate, compress, inspect, query, sweep.

Usage (also via ``python -m repro``)::

    python -m repro generate yahoo-sub --scale 0.2 --out flows.txt
    python -m repro compress flows.txt --out flows.chrono --resolution 60
    python -m repro inspect flows.chrono
    python -m repro query flows.chrono neighbors 17 100 200
    python -m repro query flows.chrono edge 17 44 100 200
    python -m repro sweep yahoo-sub --scale 0.2
    python -m repro gapstats flows.txt --strategy previous
    python -m repro ingest --init flows.store new_flows.txt
    python -m repro ingest flows.store more_flows.txt
    python -m repro compact flows.store
    python -m repro status flows.store
    python -m repro recover legacy.chrono   # -> legacy.chrono.store/

Every subcommand is a thin shell over the library API so scripted use and
programmatic use stay equivalent.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import List, Optional

from repro.analysis.gapstats import GAP_STRATEGIES, fraction_below, natural_gaps
from repro.analysis.powerlawfit import fit_discrete_power_law
from repro.baselines import get_compressor
from repro.bench.harness import BENCH_METHODS, format_table
from repro.core import ChronoGraphConfig, compress
from repro.core.serialize import load_compressed, save_compressed
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    LimitExceededError,
)
from repro.datasets import dataset_names, load
from repro.graph.io import read_contact_text, write_contact_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ChronoGraph temporal graph compression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a named dataset as a contact list")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compress", help="compress a contact list to .chrono")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--resolution", type=int, default=1,
                   help="time aggregation divisor (Section IV-C)")
    p.add_argument("--zeta", type=int, default=None,
                   help="timestamp zeta parameter; default auto-tunes")
    p.add_argument("--window", type=int, default=7,
                   help="reference window (Section IV-D2)")

    p = sub.add_parser("inspect", help="print a .chrono file's statistics")
    p.add_argument("input")

    p = sub.add_parser("query", help="run a neighbor or edge query")
    p.add_argument("input",
                   help=".chrono file, segment store dir, or tcp://host:port "
                        "of a running `repro serve`")
    p.add_argument("kind", choices=["neighbors", "edge", "timestamps"])
    p.add_argument("args", nargs="+", type=int,
                   help="neighbors: u t1 t2 | edge: u v t1 t2 | timestamps: u v")
    p.add_argument("--tenant", default=None,
                   help="tenant budget key (tcp:// targets only)")
    p.add_argument("--timeout-ms", type=int, default=None,
                   help="server-side deadline (tcp:// targets only)")
    p.add_argument("--allow-partial", action="store_true",
                   help="accept breaker-annotated subset answers "
                        "(tcp:// targets only)")

    p = sub.add_parser(
        "serve",
        help="serve a .chrono file or segment store over TCP "
             "(multi-process, memory-mapped)",
    )
    p.add_argument("input", help=".chrono file or segment store directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks a free port and prints it")
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes sharing one mapped store")
    p.add_argument("--max-concurrent", type=int, default=64,
                   help="per-worker admission cap before shedding")
    p.add_argument("--tenant-rate", type=float, default=None,
                   help="per-tenant sustained queries/second")
    p.add_argument("--tenant-burst", type=float, default=None,
                   help="per-tenant burst budget")
    p.add_argument("--max-timeout", type=float, default=30.0,
                   help="ceiling on client-requested deadlines, seconds")
    p.add_argument("--no-mmap", action="store_true",
                   help="load the store into each worker's heap instead "
                        "of memory-mapping it")

    p = sub.add_parser("sweep", help="Table IV row: every method on one dataset")
    p.add_argument("dataset", choices=dataset_names())
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--methods", nargs="*", default=list(BENCH_METHODS))

    p = sub.add_parser("gapstats", help="timestamp gap analysis (Figures 2-4)")
    p.add_argument("input", help="contact list file")
    p.add_argument("--strategy", choices=GAP_STRATEGIES, default="previous")
    p.add_argument("--resolution", type=int, default=1)

    p = sub.add_parser("stats", help="Table III-style summary of a contact list")
    p.add_argument("input", help="contact list file")

    p = sub.add_parser(
        "report", help="summarise benchmarks/out/ results (run the benches first)"
    )
    p.add_argument("--dir", default=None, help="alternative results directory")

    p = sub.add_parser("verify", help="validate a .chrono file's integrity")
    p.add_argument("input", help=".chrono file")
    p.add_argument("--against", default=None,
                   help="contact list to diff the decoded graph against")
    p.add_argument("--deep", action="store_true",
                   help="additionally decode every node front to back")
    p.add_argument("--salvage", action="store_true",
                   help="best-effort decode; report the longest valid prefix")

    p = sub.add_parser(
        "ingest", help="append contacts to a segment store directory",
    )
    p.add_argument("base", help="segment store dir")
    p.add_argument("input", help="contact list with the new contacts")
    p.add_argument("--batch", type=int, default=1024,
                   help="contacts per committed (fsynced) batch")
    p.add_argument("--init", action="store_true",
                   help="create a new segment store directory at BASE "
                        "(kind and resolution taken from the input)")
    p.add_argument("--resolution", type=int, default=1,
                   help="time aggregation divisor for a new store (--init)")
    p.add_argument("--seal", type=int, default=4096,
                   help="tail contacts per sealed segment")

    p = sub.add_parser(
        "recover",
        help="recover a segment store and report what survives, or "
             "convert a legacy .chrono + .wal pair into BASE.store/",
    )
    p.add_argument("base", help="segment store dir or legacy .chrono base")
    p.add_argument("--wal", default=None,
                   help="legacy WAL path (default: <base>.wal)")
    p.add_argument("--repair", action="store_true",
                   help="apply segment store repairs (quarantine renames, "
                        "orphan sweeps); legacy files are never modified")

    p = sub.add_parser(
        "compact", help="seal and merge a segment store's segments",
    )
    p.add_argument("base", help="segment store dir")

    p = sub.add_parser(
        "status",
        help="print a segment store's health report (read-only)",
    )
    p.add_argument("store", help="segment store directory")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report: health, per-segment "
                        "breaker states, governor stats and the resolved "
                        "decode kernel")

    p = sub.add_parser(
        "figures", help="export figure series (CSV) and tables (LaTeX)"
    )
    p.add_argument("--out", required=True, help="directory for the output files")
    p.add_argument("--dir", default=None, help="alternative results directory")
    p.add_argument("--latex", action="store_true",
                   help="also write LaTeX tabulars for Tables IV and V")

    return parser


def _cmd_generate(args) -> int:
    graph = load(args.dataset, scale=args.scale)
    write_contact_text(graph, args.out)
    print(f"{args.dataset}: wrote {graph.num_contacts} contacts "
          f"({graph.num_nodes} nodes, kind={graph.kind.value}) to {args.out}")
    return 0


def _cmd_compress(args) -> int:
    graph = read_contact_text(args.input)
    config = ChronoGraphConfig(
        resolution=args.resolution,
        timestamp_zeta_k=args.zeta,
        window=args.window,
    )
    start = time.perf_counter()
    cg = compress(graph, config)
    elapsed = time.perf_counter() - start
    nbytes = save_compressed(cg, args.out)
    print(f"compressed {graph.num_contacts} contacts in {elapsed:.2f}s")
    print(f"  {cg.bits_per_contact:.2f} bits/contact "
          f"(timestamps {cg.timestamp_bits_per_contact:.2f}), "
          f"zeta k={cg.config.timestamp_zeta_k}")
    print(f"  wrote {nbytes} bytes to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    cg = load_compressed(args.input)
    rows = [
        ["name", cg.name],
        ["kind", cg.kind.value],
        ["nodes", f"{cg.num_nodes:,}"],
        ["contacts", f"{cg.num_contacts:,}"],
        ["t_min", str(cg.t_min)],
        ["bits/contact", f"{cg.bits_per_contact:.2f}"],
        ["structure bits", f"{cg.structure_size_bits:,}"],
        ["timestamp bits", f"{cg.timestamp_size_bits:,}"],
        ["zeta k (gaps)", str(cg.config.timestamp_zeta_k)],
        ["zeta k (durations)", str(cg.config.duration_zeta_k)],
        ["resolution", str(cg.config.resolution)],
        ["reference window", str(cg.config.window)],
    ]
    print(format_table(["field", "value"], rows, title=args.input))
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import GraphService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_concurrent=args.max_concurrent,
        tenant_rate=args.tenant_rate,
        tenant_burst=args.tenant_burst,
        max_timeout=args.max_timeout,
        mmap=not args.no_mmap,
    )
    service = GraphService(args.input, config)
    host, port = service.start()
    mode = "heap" if args.no_mmap else "mmap"
    print(
        f"serving {args.input} on tcp://{host}:{port} "
        f"({config.workers} worker(s), {mode})",
        flush=True,
    )
    # SIGTERM takes the Ctrl-C path: the supervisor stops its workers and
    # closes the listener instead of dying and orphaning them.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # A second SIGTERM must not cut the shutdown short.
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        service.stop()
        signal.signal(signal.SIGTERM, previous)
    return 0


def _interrupt(_signum, _frame) -> None:
    """Signal handler: raise ``KeyboardInterrupt`` in the main thread."""
    raise KeyboardInterrupt


def _run_query(graph, args) -> int:
    """Print one query's answer; ``graph`` is local or a ServiceClient."""
    if args.kind == "neighbors":
        if len(args.args) != 3:
            print("neighbors query needs: u t_start t_end", file=sys.stderr)
            return 2
        result = graph.neighbors(*args.args)
        print(" ".join(map(str, result)) if result else "(none)")
    elif args.kind == "edge":
        if len(args.args) != 4:
            print("edge query needs: u v t_start t_end", file=sys.stderr)
            return 2
        print("active" if graph.has_edge(*args.args) else "inactive")
    else:
        if len(args.args) != 2:
            print("timestamps query needs: u v", file=sys.stderr)
            return 2
        result = graph.edge_timestamps(*args.args)
        print(" ".join(map(str, result)) if result else "(none)")
    return 0


def _query_remote(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    with ServiceClient.from_url(
        args.input,
        tenant=args.tenant,
        timeout_ms=args.timeout_ms,
        allow_partial=args.allow_partial,
    ) as client:
        try:
            code = _run_query(client, args)
        except ServiceError as exc:
            hint = (
                f" (retry in {exc.retry_after:.3g}s)"
                if exc.retry_after is not None else ""
            )
            print(f"error: {exc}{hint}", file=sys.stderr)
            return 2
        for skip in client.last_skipped:
            print(
                f"note: part {skip['part']} skipped: {skip['reason']}",
                file=sys.stderr,
            )
    return code


def _cmd_query(args) -> int:
    from repro.service.server import open_query_target

    if args.input.startswith("tcp://"):
        return _query_remote(args)
    return _run_query(open_query_target(args.input), args)


def _cmd_sweep(args) -> int:
    graph = load(args.dataset, scale=args.scale)
    rows = []
    for method in args.methods:
        compressor = get_compressor(method)
        start = time.perf_counter()
        compressed = compressor.compress(graph)
        elapsed = time.perf_counter() - start
        rows.append([
            method,
            f"{compressed.bits_per_contact:.2f}",
            f"{elapsed:.3f}",
        ])
    print(format_table(
        ["method", "bits/contact", "compress s"],
        rows,
        title=f"{args.dataset} (scale {args.scale}, "
              f"{graph.num_contacts} contacts)",
    ))
    return 0


def _cmd_gapstats(args) -> int:
    graph = read_contact_text(args.input)
    gaps = natural_gaps(graph, args.strategy, resolution=args.resolution)
    if not gaps:
        print("no contacts")
        return 0
    rows = [
        ["samples", f"{len(gaps):,}"],
        ["mean", f"{sum(gaps)/len(gaps):,.1f}"],
        ["max", f"{max(gaps):,}"],
        ["< 100", f"{fraction_below(gaps, 100)*100:.1f}%"],
        ["< 10000", f"{fraction_below(gaps, 10_000)*100:.1f}%"],
    ]
    try:
        fit = fit_discrete_power_law(gaps)
        rows.append(["power-law alpha", f"{fit.alpha:.2f}"])
    except ValueError:
        rows.append(["power-law alpha", "n/a (too few tail samples)"])
    print(format_table(
        ["statistic", "value"], rows,
        title=f"{args.input} -- {args.strategy} strategy, "
              f"resolution {args.resolution}",
    ))
    return 0


def _cmd_stats(args) -> int:
    from repro.analysis.burstiness import mean_burstiness, node_burstiness
    from repro.graph.stats import TABLE3_HEADERS, summarize

    graph = read_contact_text(args.input)
    summary = summarize(graph)
    print(format_table(TABLE3_HEADERS, [summary.as_row()], title=args.input))
    burst = mean_burstiness(node_burstiness(graph))
    print(f"max out-degree: {summary.max_out_degree}")
    print(f"mean node burstiness (Goh-Barabasi B): {burst:+.3f}")
    return 0


def _cmd_report(args) -> int:
    import pathlib

    from repro.bench.report import render_summary

    directory = pathlib.Path(args.dir) if args.dir else None
    print(render_summary(directory))
    return 0


def _cmd_verify(args) -> int:
    # Exit codes: 0 the container is sound, 1 it loaded or parsed as
    # corrupt, 2 it could not be read at all (missing file, bad magic,
    # truncated header, unknown version -- raised and mapped in main()).
    from repro.core.validate import salvage_scan, validate_compressed

    if args.salvage:
        report = load_compressed(args.input, salvage=True)
        print(report.summary())
        if report.graph is None:
            return 2
        return 0 if report.ok else 1

    try:
        compressed = load_compressed(args.input)
    except (ChecksumMismatchError, CorruptStreamError, LimitExceededError) as exc:
        print(f"corrupt: {exc}", file=sys.stderr)
        return 1

    if args.deep:
        scan = salvage_scan(compressed)
        if not scan.ok:
            for error in scan.errors:
                print(f"ERROR: {error}", file=sys.stderr)
            return 1
        print(f"deep scan: all {scan.nodes_recovered} nodes decode cleanly")

    reference = read_contact_text(args.against) if args.against else None
    report = validate_compressed(compressed, reference)
    print(f"checked {report.nodes_checked} nodes / "
          f"{report.contacts_checked} contacts")
    if report.ok:
        print("OK")
        return 0
    for error in report.errors:
        print(f"ERROR: {error}")
    return 1


def _not_a_store(path: str) -> int:
    print(f"error: {path} is not a segment store; convert a legacy .chrono "
          f"(+ .wal) with: repro recover {path}", file=sys.stderr)
    return 2


def _cmd_ingest(args) -> int:
    # Contacts land in the store's hot WAL tail and seal into immutable
    # segments past --seal.  Exit codes: 0 committed; 1 committed into a
    # degraded store (reported); 2 not a store, unreadable inputs, kind
    # mismatch, or backpressure (mapped in main()).
    from repro.core.config import ChronoGraphConfig
    from repro.storage.segments import SegmentStore, StorePolicy, is_segment_store

    policy = StorePolicy(seal_contacts=max(1, args.seal))
    if is_segment_store(args.base):
        incoming = read_contact_text(args.input)
        store = SegmentStore.open(args.base, policy=policy)
    elif args.init:
        incoming = read_contact_text(args.input)
        config = ChronoGraphConfig(resolution=args.resolution)
        store = SegmentStore.create(
            args.base, incoming.kind, config, policy=policy
        )
        print(f"created segment store at {args.base} "
              f"(kind={incoming.kind.value}, resolution={args.resolution})")
    else:
        return _not_a_store(args.base)
    try:
        if incoming.kind is not store.manifest.kind:
            print(f"error: {args.input} is {incoming.kind.value} but "
                  f"{args.base} is {store.manifest.kind.value}",
                  file=sys.stderr)
            return 2
        committed = 0
        batch_size = max(1, args.batch)
        contacts = incoming.contacts
        for start in range(0, len(contacts), batch_size):
            committed += store.ingest(contacts[start : start + batch_size])
        health = store.health()
        print(f"ingested {committed} contacts into {args.base} "
              f"(generation {health.generation}, {health.segments} "
              f"segment(s), {health.tail_contacts} in tail)")
        if not health.ok:
            print(health.summary(), file=sys.stderr)
            return 1
        return 0
    finally:
        store.close()


def _cmd_recover(args) -> int:
    # Exit codes: 0 clean; 1 the store is degraded, or the legacy
    # conversion dropped a torn tail or ignored a superseded log (loss is
    # reported, never silent); 2 unreadable inputs, a WAL bound to another
    # base, or an existing conversion target (raised and mapped in main()).
    from repro.storage.recovery import convert_legacy_pair, default_wal_path
    from repro.storage.segments import SegmentStore, is_segment_store

    if is_segment_store(args.base):
        # Without --repair the walk is read-only: report, change nothing.
        with SegmentStore.open(args.base, read_only=not args.repair) as store:
            health = store.health()
        print(health.summary())
        return 0 if health.ok else 1

    store_dir = args.base + ".store"
    report = convert_legacy_pair(
        args.base, args.wal or default_wal_path(args.base), store_dir
    )
    print(report.summary())
    print(f"converted into segment store {store_dir}")
    return 0 if report.ok else 1


def _cmd_compact(args) -> int:
    # Exit codes: 0 compacted cleanly; 1 compacted, but the store is
    # degraded (reported); 2 not a store or unreadable (mapped in main()).
    from repro.storage.segments import SegmentStore, is_segment_store

    if not is_segment_store(args.base):
        return _not_a_store(args.base)
    with SegmentStore.open(args.base) as store:
        merges = store.compact_all()
        health = store.health()
    print(f"compacted {args.base}: {merges} merge(s), "
          f"{health.segments} segment(s) remain "
          f"(generation {health.generation})")
    if not health.ok:
        print(health.summary(), file=sys.stderr)
        return 1
    return 0


def _cmd_status(args) -> int:
    # Exit codes: 0 full service; 1 degraded (quarantine, a sick
    # compactor, or an open circuit breaker); 2 not a store / unreadable
    # manifest (mapped in main()).  Identical semantics for --json.
    import dataclasses as _dataclasses
    import json as _json

    from repro.bits import kernels
    from repro.runtime.governor import default_governor
    from repro.storage.segments import SegmentStore, is_segment_store

    if not is_segment_store(args.store):
        print(f"error: {args.store} is not a segment store "
              "(no MANIFEST file)", file=sys.stderr)
        return 2
    with SegmentStore.open(args.store, read_only=True) as store:
        health = store.health()
    if args.json:
        doc = {
            "health": _dataclasses.asdict(health),
            "ok": health.ok,
            "governor": default_governor().stats(),
            "decode_kernel": kernels.kernel_info(),
        }
        print(_json.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        print(health.summary())
    return 0 if health.ok else 1


def _cmd_figures(args) -> int:
    import pathlib

    from repro.bench.export import export_figures

    results_dir = pathlib.Path(args.dir) if args.dir else None
    written = export_figures(pathlib.Path(args.out), results_dir)
    if args.latex:
        from repro.bench.latex import export_latex

        written += export_latex(pathlib.Path(args.out), results_dir)
    if not written:
        print("no figure results found; run: pytest benchmarks/ --benchmark-only")
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "compress": _cmd_compress,
    "inspect": _cmd_inspect,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "sweep": _cmd_sweep,
    "gapstats": _cmd_gapstats,
    "stats": _cmd_stats,
    "report": _cmd_report,
    "verify": _cmd_verify,
    "ingest": _cmd_ingest,
    "recover": _cmd_recover,
    "compact": _cmd_compact,
    "status": _cmd_status,
    "figures": _cmd_figures,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    User-input failures (missing files, malformed containers, bad values)
    print one diagnostic line and return 2; programming errors propagate.
    """
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        # FormatError subclasses ValueError, so malformed inputs and
        # unreadable paths (PermissionError et al.) land here: one line,
        # no traceback.  Embedded newlines are flattened so the one-line
        # contract holds for any message.
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
