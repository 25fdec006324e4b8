"""Tier-1 smoke test of the performance benchmark (no timings asserted).

One pass per workload on the sub-second test city: the emitted document
matches ``BENCHMARK.json`` name for name and unit for unit, counts and
digests repeat across runs of one seed, a wrong expected digest fails every
request, and page reads per query stay within their bound across seeds.
Everything written lands under the untracked ``benchmarks/perf/out``.
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.api.client import ReachabilityClient

from . import harness
from .inputs import SMOKE, InputGenerator
from .workloads import WORKLOADS, build_engine

SPEC = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
SEED = 7
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def smoke_run():
    """``run(name, trace=False, expect=None)`` on one shared test city."""
    network, database, _, _ = harness.load_city(SMOKE, use_cache=False)
    patch = pytest.MonkeyPatch()
    patch.setattr(
        harness, "load_city", lambda config, use_cache: (network, database, 0.0, True)
    )
    done: dict = {}

    def run(name: str, trace: bool = False, expect: str | None = None):
        key = (name, trace, expect)
        if key not in done:
            done[key] = harness.execute(
                WORKLOADS[name], SEED, seconds=0.0, trace=trace, config=SMOKE,
                expect_digest=expect,
            )
        return done[key]

    yield run
    patch.undo()


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()
    ]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_document_matches_benchmark_json(smoke_run, name):
    result = smoke_run(name)
    assert result.notes == []
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_traced_document_matches_benchmark_json(smoke_run):
    result = smoke_run("batch_hot", trace=True)
    line = json.loads(result.line())
    assert line["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    # The predicted contrasts: every region reused, nothing expanded, no
    # serving or durability layer in a single-process in-RAM workload.
    assert metrics["core.region_cache.hit_ratio"] == 1.0
    assert metrics["core.sqmb.region_ms_per_query"] == 0.0
    assert metrics["bench.trace_coverage"] >= 0.9
    assert all(
        value == 0.0
        for name, value in metrics.items()
        if name.startswith(("serving.", "storage.filedisk.", "io.persist."))
    )


def test_counts_and_digests_repeat_and_a_wrong_digest_fails_every_request(smoke_run):
    first = smoke_run("batch_hot")
    again = smoke_run("batch_hot", trace=True)
    wrong = smoke_run("batch_hot", expect="0" * 64)
    for other in (again, wrong):
        assert other.digest == first.digest
    assert again.counts["page_reads_per_pass"] == first.counts["page_reads_per_pass"]
    assert again.counts["store_bytes"] == first.counts["store_bytes"]
    line = json.loads(wrong.line())
    assert line["correct"] is False and line["failed"] == line["attempted"]
    accepted = smoke_run("batch_hot", expect=first.digest)
    assert json.loads(accepted.line())["correct"] is True


def test_page_reads_per_query_stay_within_bound_across_seeds(smoke_run):
    network, database, _, _ = harness.load_city(SMOKE, use_cache=False)
    # Enough requests per seed for quartiles of eight seeds to mean something
    # on a city of 80 roads.
    config = replace(SMOKE, batches=4, batch_s=12, batch_m=4)
    context = harness.RunContext(config, None, network, database, None, None)
    engine, _ = build_engine(context)
    per_query = []
    with ReachabilityClient(engine) as client:
        for seed in range(8):
            inputs = InputGenerator(network, database, config, seed).generate()
            reports = [client.run_batch(batch) for batch in inputs.batches]
            per_query.append(
                sum(r.io.page_reads for r in reports) / sum(len(r.results) for r in reports)
            )
    q1, _, q3 = statistics.quantiles(per_query, n=4)
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "page_reads_per_query")
    assert (q3 - q1) / statistics.median(per_query) <= bound


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    """The driver also runs the command where only the benchmark exists."""
    shutil.copy(harness.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.PERF_DIR, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "batch_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
