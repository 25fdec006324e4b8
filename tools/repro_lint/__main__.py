"""Command-line entry point: ``python -m tools.repro_lint``.

Exit codes: 0 = clean (or ``--report-only``), 1 = non-baselined
findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tools.repro_lint.core import (
    all_rules,
    apply_baseline,
    load_baseline,
    report_json,
    report_text,
    run_paths,
    write_baseline,
)

DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description="AST-based invariant checkers for the repro codebase.",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to scan")
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=str(DEFAULT_BASELINE),
        help="baseline file of grandfathered findings (default: %(default)s)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
    )
    parser.add_argument(
        "--report-only",
        action="store_true",
        help="always exit 0; report findings without gating",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass through.
        return int(exc.code or 0)

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id} [{rule.severity}] {rule.name}: {rule.description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("python -m tools.repro_lint: error: the following arguments are required: paths", file=sys.stderr)
        return 2

    select = [s.strip() for s in args.select.split(",") if s.strip()] if args.select else None
    known = set(all_rules())
    if select and not set(s.upper() for s in select) <= known:
        unknown = sorted(set(s.upper() for s in select) - known)
        print(f"repro-lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
        return 2

    project, findings = run_paths(args.paths, select=select)

    if args.write_baseline:
        write_baseline(Path(args.baseline), findings)
        print(f"repro-lint: wrote {len(findings)} finding(s) to {args.baseline}")
        return 0

    if args.no_baseline:
        fresh = list(findings)
    else:
        baseline = load_baseline(Path(args.baseline))
        fresh = apply_baseline(findings, baseline)

    if args.format == "json":
        rendered = json.dumps(report_json(project, fresh), indent=2)
    else:
        rendered = report_text(project, fresh)
    print(rendered)
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")

    if args.report_only:
        return 0
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
