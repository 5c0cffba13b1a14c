"""Command-line driver: ``python -m repro.analysis [paths]``.

Exit codes: 0 clean, 1 findings (or file errors), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import baseline as baseline_mod
from repro.analysis import report
from repro.analysis.framework import Rule, all_rules, collect_files, run_rules

__all__ = ["main"]

_DEFAULT_BASELINE = "analysis-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Project-specific static analysis: lock discipline "
            "(CG002), exception taxonomy (CG003), atomic writes "
            "(CG004), decode-budget charging (CG005), buffer-copy "
            "discipline (CG006), checkpoint coverage (CG007), resource "
            "lifecycle (CG008), stale suppressions (CG009)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "benchmarks"],
        help="files or directories to analyse (default: src benchmarks)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "github"),
        default=None,
        help=(
            "output format: human (default), json (stable machine-readable "
            "document), github (workflow-command annotations for Actions)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="shorthand for --format json (kept for compatibility)",
    )
    parser.add_argument(
        "--baseline",
        default=_DEFAULT_BASELINE,
        help=f"baseline file of accepted findings (default: {_DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept every current finding into the baseline file and exit",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    return parser


def _selected_rules(
    select: Optional[str], ignore: Optional[str]
) -> Optional[List[Rule]]:
    rules = all_rules()
    known = {r.id for r in rules}

    def parse(raw: Optional[str]) -> Optional[List[str]]:
        if raw is None:
            return None
        ids = [part.strip() for part in raw.split(",") if part.strip()]
        unknown = [i for i in ids if i not in known]
        if unknown:
            raise SystemExit(
                f"error: unknown rule id(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        return ids

    try:
        selected = parse(select)
        ignored = parse(ignore) or []
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        raise SystemExit(2) from exc
    if selected is not None:
        rules = [r for r in rules if r.id in selected]
    return [r for r in rules if r.id not in ignored]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the analyzer; returns the process exit code (0/1/2)."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(report.render_rule_list(all_rules()))
        return 0

    rules = _selected_rules(args.select, args.ignore)
    findings, errors = run_rules(args.paths, rules)
    files_checked = len(collect_files(args.paths))

    baseline_path = Path(args.baseline)
    if args.write_baseline:
        count = baseline_mod.write_baseline(baseline_path, findings)
        print(f"wrote {count} entr{'y' if count == 1 else 'ies'} to {baseline_path}")
        return 0

    accepted = 0
    if not args.no_baseline:
        try:
            entries = baseline_mod.load_baseline(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, accepted = baseline_mod.filter_findings(findings, entries)

    fmt = args.format or ("json" if args.json else "human")
    if args.format and args.json and args.format != "json":
        print("error: --json conflicts with --format " + args.format, file=sys.stderr)
        return 2
    render = {
        "human": report.render_human,
        "json": report.render_json,
        "github": report.render_github,
    }[fmt]
    print(render(findings, errors, accepted, files_checked))
    return 1 if findings or errors else 0
