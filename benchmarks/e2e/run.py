"""End-to-end benchmark: every workload, metric and answer check in one command.

    python benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
        [--trace [0|1]] [--out DIR] [--save FILE] [--quick]

Each workload runs in two fresh child processes with ``PYTHONHASHSEED=0``
(see ``workloads.py``): one generates the inputs and reference answers from
``--seed``, the other sets the program up, measures and checks.  The
program is imported from ``src/`` of the checkout this file sits in.

``--workload``, ``--seed``, ``--seconds`` and ``--trace`` are the arguments
BENCHMARK.json's ``command`` is run with.  ``--seconds`` may only repeat
``run_seconds`` from there: numbers are comparable only at that length.

Prints every metric BENCHMARK.json declares, by name and with its unit --
the end-to-end metrics on an untraced run, the per-layer metrics with
``--trace 1`` -- and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics`` for the last workload run.  Exits
1 when an answer was wrong, an operation failed or a run did not finish,
and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".bench_build" / "e2e"

#: Wall-clock budget of one workload run, child processes included.
RUN_BUDGET_S = 170.0
#: Share of the budget the input generator may use.
GENERATE_BUDGET_S = 60.0


class RunFailed(RuntimeError):
    """A child process failed or overran its budget."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_child(cmd: Sequence[str], env: Dict[str, str], timeout: float) -> None:
    """Run one child in its own process group; kill the group on overrun."""
    with subprocess.Popen(list(cmd), env=env, cwd=str(ROOT), stdout=sys.stderr,
                          start_new_session=True) as proc:
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except BaseException:
            # The group holds the child and anything it started (the serve
            # workload's server and its worker).
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
    if code != 0:
        raise RunFailed(f"{Path(cmd[1]).name} {cmd[2]} exited with code {code}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, out: Path,
                 quick: bool) -> Dict[str, Any]:
    """Generate, measure and return the measured child's result document."""
    started = time.monotonic()
    work = WORK_ROOT / f"work-{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    base = [sys.executable, str(HERE / "workloads.py")]
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    if quick:
        common.append("--quick")
    try:
        run_child(base + ["generate"] + common, env, GENERATE_BUDGET_S)
        remaining = RUN_BUDGET_S - (time.monotonic() - started)
        run_child(
            base + ["measure"] + common
            + ["--seconds", repr(seconds), "--trace", str(trace), "--out", str(out)],
            env, remaining,
        )
        with open(work / "result.json") as handle:
            return json.load(handle)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: over the {RUN_BUDGET_S:.0f} s budget") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)


def select_metrics(spec: Dict[str, Any], result: Dict[str, Any], trace: int
                   ) -> Dict[str, Dict[str, Any]]:
    """The declared metrics of this mode, with units; raises on drift between
    what the workload computed and what BENCHMARK.json declares."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    computed = result["metrics"]
    unknown = sorted(set(computed) - set(end_to_end) - set(per_layer))
    if unknown:
        raise RunFailed(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    declared = per_layer if trace else end_to_end
    out: Dict[str, Dict[str, Any]] = {}
    for name, meta in declared.items():
        if name in computed:
            value = computed[name]
        elif trace:
            value = 0.0  # a layer this workload does not exercise
        else:
            raise RunFailed(f"{result['workload']} did not measure {name}")
        out[name] = {"value": value, "unit": meta["unit"]}
    return out


def report(result: Dict[str, Any], metrics: Dict[str, Dict[str, Any]], trace: int) -> None:
    """Human-readable block for one workload."""
    print(f"== {result['workload']}  seed {result['seed']}  trace {trace}  "
          f"inputs sha256 {result['digest'][:16]}")
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"   {name:<{width}}  {entry['value']:>16.6g} {entry['unit']}")
    for name, label in sorted(result.get("labels", {}).items()):
        print(f"   {name:<{width}}  {label}")
    if trace:
        shares = {n[len("self_share."):]: e["value"] for n, e in metrics.items()
                  if n.startswith("self_share.")}
        print("   layer self time as a share of the traced half of the measured phase:")
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share > 0:
                print(f"     {layer:<18} {100 * share:6.2f} %")
        print(f"   program layers: {100 * metrics['trace.coverage']['value']:.1f} % "
              f"(harness {100 * shares['bench']:.1f} %, tracer {100 * shares['tracer']:.1f} %);  "
              f"tracing overhead: untraced/traced ops_per_s = "
              f"{metrics['trace.overhead']['value']:.3f}")
        print(f"   trace written to {result.get('trace_file')}")
    print(f"   {result['attempted']} ops attempted, {result['failed']} failed or wrong; "
          f"{result['checked']} sampled answers checked")
    for error in result.get("errors", []):
        print(f"   ! {error}")


def parse_args(argv: Optional[Sequence[str]], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="ChronoGraph end-to-end benchmark")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in BENCHMARK.json order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help=f"length of the measured phase; must be run_seconds = "
                             f"{spec['run_seconds']}, the only length results are compared at")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: traced run printing the per-layer metrics")
    parser.add_argument("--out", type=Path, default=WORK_ROOT / "traces",
                        help="directory for trace-<workload>.json")
    parser.add_argument("--save", type=Path,
                        help="also write every workload's result to this JSON file, under "
                             "'untraced' or 'traced' (the other mode's entry is kept)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one set-up and 1 s phases, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be run_seconds ({spec['run_seconds']}); "
                     "numbers of other lengths are not comparable")
    args.seconds = 1.0 if args.quick else float(spec["run_seconds"])
    args.workloads = [args.workload] if args.workload else names
    return args


def _exit_on_sigterm(signum: int, _frame: Any) -> None:
    # Unwinds through run_child, which kills and reaps the child's group.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: no program to benchmark under {ROOT} (need src/repro and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    saved: Dict[str, Any] = {}
    final: Optional[Dict[str, Any]] = None
    ok = True
    for workload in args.workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace,
                                  args.out.resolve(), args.quick)
            metrics = select_metrics(spec, result, args.trace)
        except RunFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        bad = [n for n in metrics if not args.trace and not metrics[n]["value"] > 0]
        failed = result["failed"] + len(bad)
        for name in bad:
            result["errors"].append(f"end-to-end metric {name} is not positive")
        report(result, metrics, args.trace)
        final = {"correct": failed == 0, "attempted": max(1, result["attempted"]),
                 "failed": failed, "metrics": metrics}
        ok = ok and failed == 0
        saved[workload] = {"digest": result["digest"], "checked": result["checked"],
                           **{k: final[k] for k in ("correct", "attempted", "failed")},
                           "metrics": {n: e["value"] for n, e in metrics.items()}}
    if args.save is not None:
        sys.path.insert(0, str(SRC))
        from repro.storage.atomic import atomic_write_text

        doc: Dict[str, Any] = {}
        if args.save.is_file():
            with open(args.save) as handle:
                doc = json.load(handle)
        doc.update(seed=args.seed, seconds=args.seconds)
        doc["traced" if args.trace else "untraced"] = saved
        atomic_write_text(args.save, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
