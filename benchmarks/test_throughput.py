"""Throughput: a mixed workload of random downtown queries.

Beyond the paper's single-location figures, a deployed service answers a
stream of queries at varying locations and times.  This bench runs a
deterministic random workload (generated by
:class:`repro.eval.workload.QueryWorkload`) through both algorithms and
reports aggregate running time.
"""

import pytest

from client_protocol import s_query
from repro.eval.tables import format_table
from repro.eval.workload import QueryWorkload


@pytest.fixture(scope="module")
def workload(bench_dataset):
    return QueryWorkload(bench_dataset.network, seed=17, center_fraction=0.4)


@pytest.fixture(scope="module")
def queries(workload):
    return workload.s_queries(10, duration_s=600, prob=0.2)


def _total_cost(client, queries, algorithm):
    """(running time ms, simulated-I/O ms, page reads, region segments)."""
    total = io_ms = 0.0
    reads = regions = 0
    for query in queries:
        result = s_query(client, query, algorithm=algorithm)
        total += result.cost.total_cost_ms
        io_ms += result.cost.simulated_io_ms
        reads += result.cost.io.page_reads
        regions += len(result.segments)
    return total, io_ms, reads, regions


def _table(metric, ours_ms, es_ms, extra_rows):
    return format_table(
        "Throughput — 10 random downtown s-queries (L=10min, Prob=20%), "
        + metric,
        [
            ("SQMB+TBS total", f"{ours_ms:,.0f} ms"),
            ("ES total", f"{es_ms:,.0f} ms"),
            ("saving", f"{100 * (1 - ours_ms / es_ms):.0f}%"),
        ]
        + extra_rows,
    )


def test_throughput_comparison(bench_client, queries, emit, benchmark):
    ours_ms, ours_io_ms, ours_reads, ours_regions = benchmark.pedantic(
        lambda: _total_cost(bench_client, queries, "sqmb_tbs"),
        rounds=1, iterations=1,
    )
    es_ms, es_io_ms, es_reads, es_regions = _total_cost(
        bench_client, queries, "es"
    )
    extra_rows = [
        ("page reads (ours/es)", f"{ours_reads:,}/{es_reads:,}"),
        ("region segments (ours/es)", f"{ours_regions}/{es_regions}"),
    ]
    emit(
        "throughput",
        _table("simulated I/O", ours_io_ms, es_io_ms, extra_rows),
        _table("running time", ours_ms, es_ms, extra_rows),
    )
    assert ours_ms < es_ms


def test_bench_workload_sqmb(bench_client, queries, benchmark):
    def run():
        return sum(
            len(s_query(bench_client, q, warm=True).segments) for q in queries
        )

    total = benchmark(run)
    assert total >= 0


def test_bench_workload_mixed_times(bench_client, workload, benchmark):
    batch = workload.s_queries(5, duration_s=600, prob=0.2)

    def run():
        return [
            s_query(bench_client, q, warm=True).cost.probability_checks
            for q in batch
        ]

    checks = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert len(checks) == 5
