#!/usr/bin/env python3
"""A/A gate: do two sets of runs of the *same* code agree within the bounds?

Runs two interleaved sets (A B A B ...) of ``--runs`` full runs, run *i* of
each set on seed ``base + i``, through the command in ``BENCHMARK.json``.
For every (workload, end-to-end metric) it prints each set's quartile
distance over its median (``statistics.quantiles(values, n=4)``) and the
shift of set B's median against set A's in the metric's worse direction.
Exits non-zero when a spread (``setup_s`` excepted, as in the driver) or a
shift exceeds the metric's bound, when a run is incorrect, or when a count or
the answer digest differs between the two runs of one seed.

``--save NAME`` keeps the session's table under ``aa_sessions/``;
``--write-bounds`` derives the bounds in ``BENCHMARK.json`` from every saved
session: max(floor, 2.5 x the worst spread seen), rounded up to 0.05;
``--recheck`` judges every saved session by the bounds now in the file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
SESSIONS_DIR = PERF_DIR / "aa_sessions"
OUT_DIR = PERF_DIR / "out"

#: Smallest bound per metric: 0.10 for times, 0.05 for counts and memory.
FLOORS = {
    "setup_s": 0.25,  # one raw sample per run: the widest bound, by rule
    "qps": 0.10,
    "call_p50_ms": 0.10,
    "call_p95_ms": 0.10,
    "page_reads_per_query": 0.05,
    "store_bytes_per_visit": 0.05,
    "peak_rss_mb": 0.05,
}
#: The contract's ceiling for any bound.
BOUND_CAP = 0.25
#: Counts that must repeat exactly for one seed.
EXACT = ("page_reads_per_query", "store_bytes_per_visit")


def spread(values: list[float]) -> float:
    """Quartile distance over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(first: list[float], second: list[float], better: str) -> float:
    """Relative shift of the second median in the worse direction."""
    a, b = statistics.median(first), statistics.median(second)
    return (a - b) / a if better == "higher" else (b - a) / a


def run_once(spec: dict, workload: str, seed: int, seconds: float, tag: str) -> dict:
    out = OUT_DIR / "aa" / f"{tag}-{workload}-{seed}.json"
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--out", str(out),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    document = json.loads(out.read_text())
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if last != document["result"]:
        raise SystemExit("the last stdout line and the --out document disagree")
    document["wall_s"] = wall
    return document


def collect(spec: dict, workloads: list[str], runs: int, base: int, seconds: float) -> dict:
    """``{workload: {"A": [documents], "B": [documents]}}``, interleaved."""
    sets: dict = {w: {"A": [], "B": []} for w in workloads}
    for i in range(runs):
        for label in ("A", "B"):
            for workload in workloads:
                document = run_once(spec, workload, base + i, seconds, label)
                sets[workload][label].append(document)
                print(
                    f"  set {label} run {i} {workload:<20} seed {base + i} "
                    f"{document['wall_s']:6.1f} s  correct={document['result']['correct']}",
                    flush=True,
                )
    return sets


def analyse(spec: dict, sets: dict) -> tuple[list[dict], list[str]]:
    rows: list[dict] = []
    problems: list[str] = []
    for workload, pair in sets.items():
        for a, b in zip(pair["A"], pair["B"]):
            for document in (a, b):
                if not document["result"]["correct"] or document["result"]["failed"]:
                    problems.append(f"{workload} seed {document['seed']}: incorrect run")
            if a["digest"] != b["digest"]:
                problems.append(f"{workload} seed {a['seed']}: answer digests differ")
            for name in EXACT:
                va = a["result"]["metrics"][name]["value"]
                vb = b["result"]["metrics"][name]["value"]
                if va != vb:
                    problems.append(f"{workload} seed {a['seed']}: {name} {va} != {vb}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                label: [d["result"]["metrics"][name]["value"] for d in pair[label]]
                for label in ("A", "B")
            }
            row = {
                "workload": workload,
                "metric": name,
                "bound": metric["bound"],
                "median_a": statistics.median(values["A"]),
                "median_b": statistics.median(values["B"]),
                "spread_a": spread(values["A"]),
                "spread_b": spread(values["B"]),
                "shift": worsening(values["A"], values["B"], metric["better"]),
            }
            rows.append(row)
    return rows, problems + bound_problems(rows)


def bound_problems(rows: list[dict]) -> list[str]:
    """Rows whose spread (``setup_s`` excepted) or shift exceeds their bound."""
    problems = []
    for row in rows:
        where = f"{row['workload']}/{row['metric']}"
        if row["metric"] != "setup_s" and max(row["spread_a"], row["spread_b"]) > row["bound"]:
            problems.append(f"{where}: spread above bound {row['bound']}")
        if row["shift"] > row["bound"]:
            problems.append(f"{where}: median shift above bound {row['bound']}")
    return problems


def recheck(spec: dict) -> int:
    """Re-judge every saved session by the bounds now in ``BENCHMARK.json``."""
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    failed = 0
    for path in sorted(SESSIONS_DIR.glob("*.json")):
        session = json.loads(path.read_text())
        for row in session["rows"]:
            row["bound"] = bounds[row["metric"]]
        kept = [p for p in session["problems"] if "above bound" not in p]
        session["problems"] = kept + bound_problems(session["rows"])
        path.write_text(json.dumps(session, indent=2) + "\n")
        print(f"{path.name}: {len(session['problems'])} problems")
        for problem in session["problems"]:
            print(f"FAIL {problem}")
        failed += len(session["problems"])
    return 1 if failed else 0


def raw_rows(sets: dict) -> list[dict]:
    """Spread of the uncorrected median pass time next to the probe's factor:
    what the machine did, and what the correction had to remove."""
    rows = []
    for workload, pair in sets.items():
        row: dict = {"workload": workload}
        for label in ("A", "B"):
            raw = [d["counts"]["raw_pass_ms_p50"] for d in pair[label]]
            factor = [d["counts"]["probe_speed_factor"] for d in pair[label]]
            row[f"raw_pass_ms_{label.lower()}"] = statistics.median(raw)
            row[f"raw_spread_{label.lower()}"] = spread(raw)
            row[f"factor_{label.lower()}"] = statistics.median(factor)
            row[f"factor_spread_{label.lower()}"] = spread(factor)
        rows.append(row)
    return rows


def table(rows: list[dict]) -> str:
    lines = [
        "| workload | metric | median A | median B | spread A | spread B | shift | bound |",
        "|---|---|---:|---:|---:|---:|---:|---:|",
    ]
    for r in rows:
        lines.append(
            f"| {r['workload']} | {r['metric']} | {r['median_a']:.4g} | {r['median_b']:.4g} "
            f"| {r['spread_a']:.4f} | {r['spread_b']:.4f} | {r['shift']:+.4f} | {r['bound']} |"
        )
    return "\n".join(lines)


def write_bounds(spec: dict) -> None:
    """Bounds from every saved session: max(floor, 2.5 x worst spread)."""
    worst: dict[str, float] = {}
    for path in sorted(SESSIONS_DIR.glob("*.json")):
        for row in json.loads(path.read_text())["rows"]:
            if row["metric"] == "setup_s":
                continue
            seen = max(row["spread_a"], row["spread_b"], abs(row["shift"]))
            worst[row["metric"]] = max(worst.get(row["metric"], 0.0), seen)
    for metric in spec["end_to_end"]:
        needed = max(FLOORS[metric["name"]], 2.5 * worst.get(metric["name"], 0.0))
        metric["bound"] = min(BOUND_CAP, math.ceil(round(needed / 0.05, 6)) * 0.05)
        metric["bound"] = round(metric["bound"], 2)
        print(f"  {metric['name']:<24} worst {worst.get(metric['name'], 0.0):.4f} -> bound {metric['bound']}")
    BENCHMARK_JSON.write_text(json.dumps(spec, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set (default 5)")
    parser.add_argument("--base-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--save", default=None, help="keep the table as aa_sessions/NAME.json")
    parser.add_argument("--write-bounds", action="store_true")
    parser.add_argument("--recheck", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK_JSON.read_text())
    if args.write_bounds:
        write_bounds(spec)
        return 0
    if args.recheck:
        return recheck(spec)
    if args.runs < 2:
        parser.error("quartiles need at least 2 runs per set")
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    )
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    started = time.strftime("%Y-%m-%d %H:%M:%S")
    sets = collect(spec, workloads, args.runs, args.base_seed, seconds)
    rows, problems = analyse(spec, sets)
    print(table(rows))
    raw = raw_rows(sets)
    for row in raw:
        print(
            f"raw pass {row['workload']:<20} median {row['raw_pass_ms_a']:.1f} / "
            f"{row['raw_pass_ms_b']:.1f} ms, spread {row['raw_spread_a']:.4f} / "
            f"{row['raw_spread_b']:.4f}; probe factor {row['factor_a']:.3f} / {row['factor_b']:.3f}"
        )
    walls = [d["wall_s"] for pair in sets.values() for docs in pair.values() for d in docs]
    print(f"{len(walls)} runs, {sum(walls):.0f} s in total, slowest {max(walls):.1f} s")
    if args.save:
        SESSIONS_DIR.mkdir(exist_ok=True)
        (SESSIONS_DIR / f"{args.save}.json").write_text(
            json.dumps(
                {
                    "started": started,
                    "runs_per_set": args.runs,
                    "base_seed": args.base_seed,
                    "seconds": seconds,
                    "total_wall_s": sum(walls),
                    "rows": rows,
                    "raw_rows": raw,
                    "problems": problems,
                },
                indent=2,
            )
            + "\n"
        )
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
