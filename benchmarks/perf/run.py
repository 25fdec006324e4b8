#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload batch_hot --seed 1 \\
        --seconds 10 --trace 0

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Exits non-zero without a result line
when the program under test is not there to be measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]


def stop_helper_processes() -> None:
    """Stop what ``multiprocessing`` started besides the shard workers.

    The spawn context starts a resource tracker that outlives its parent by
    the moment it takes to see the pipe close; a run has ended only when
    every process it started has, so the tracker is stopped and waited for.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed window (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--expect-digest", default=None,
        help="fail every request unless the answers hash to this digest",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the full result document (counts, digest) here",
    )
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"nothing to measure: {REPO_ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # The program under test, and this directory's parent so that the
    # benchmark imports as the package ``perf``.  Spawned shard workers
    # inherit sys.path and re-import this file as ``__mp_main__``, which is
    # why everything heavier than this lives under the __main__ guard.
    sys.path[:0] = [str(REPO_ROOT / "src"), str(PERF_DIR.parent)]
    from perf.harness import execute, render
    from perf.workloads import WORKLOADS

    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = execute(
            WORKLOADS[args.workload],
            seed=args.seed,
            seconds=seconds,
            trace=bool(args.trace),
            expect_digest=args.expect_digest,
            out=args.out,
        )
    finally:
        stop_helper_processes()
    print(render(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
