"""Fig 4.8: m-query (MQMB+TBS) vs repeated s-query (SQMB+TBS x N).

(a) 3 locations, running time over duration L — m-query consistently
    cheaper, up to ~70% at L = 35 min in the paper;
(b) running time over the number of locations (T = 10:00, L = 20 min) —
    s-query cost grows linearly with N, m-query stays near-constant
    (up to ~90% saving at 9 locations in the paper); with a single
    location the two coincide.
"""

import pytest

from client_protocol import m_query
from repro.core.query import MQuery
from repro.eval import config
from repro.eval.runner import run_location_count_sweep, run_mquery_duration_sweep
from repro.trajectory.model import day_time


@pytest.fixture(scope="module")
def duration_sweep(bench_engine, emit_running_time):
    points = run_mquery_duration_sweep(
        bench_engine,
        config.M_QUERY_LOCATIONS[:3],
        config.DURATIONS_S,
        config.DEFAULT_SETTINGS.start_time_s,
        prob=0.2,
    )
    emit_running_time(
        "fig48a_duration", "Fig 4.8(a) — m-query vs 3x s-query {} (ms) over L",
        points, "L (min)",
    )
    return points


@pytest.fixture(scope="module")
def count_sweep(bench_engine, emit_running_time):
    points = run_location_count_sweep(
        bench_engine,
        config.M_QUERY_LOCATIONS,
        config.LOCATION_COUNTS,
        day_time(10),
        duration_s=1200,
        prob=0.2,
    )
    emit_running_time(
        "fig48b_locations",
        "Fig 4.8(b) — m-query vs s-query {} (ms) over #locations",
        points, "#locs",
    )
    return points


def test_fig48a_mquery_wins_at_every_duration(duration_sweep):
    ours = {p.x: p for p in duration_sweep if p.label == "m-query"}
    naive = {p.x: p for p in duration_sweep if p.label == "s-query"}
    for minutes in ours:
        # The decisive, deterministic term: MQMB never costs more I/O
        # than the per-location baseline.
        assert ours[minutes].io_ms <= naive[minutes].io_ms
        if minutes >= 10:
            # Regions overlap from L=10min on and the shared expansion
            # wins outright, wall time included.
            assert (
                ours[minutes].running_time_ms
                <= naive[minutes].running_time_ms
            )
        else:
            # At L=5min the three regions are still disjoint, the I/O
            # ties exactly, and the total differs only by ~ms-scale wall
            # noise — allow 5% on top of the strict I/O bound.
            assert (
                ours[minutes].running_time_ms
                <= 1.05 * naive[minutes].running_time_ms
            )


def test_fig48b_linear_vs_constant(count_sweep):
    ours = {p.x: p.running_time_ms for p in count_sweep if p.label == "m-query"}
    naive = {p.x: p.running_time_ms for p in count_sweep if p.label == "s-query"}
    # Naive grows steeply with N; m-query grows much more slowly.
    assert naive[9] > 3.0 * naive[1]
    assert ours[9] < 0.66 * naive[9]  # >= 34% saving at 9 locations
    # With a single location the two algorithms essentially coincide.
    assert ours[1] == pytest.approx(naive[1], rel=0.35)


def test_fig48_region_agreement(bench_client):
    query = MQuery(
        config.M_QUERY_LOCATIONS[:3], day_time(10), 1200, 0.2
    )
    merged = m_query(bench_client, query, algorithm="mqmb_tbs")
    naive = m_query(bench_client, query, algorithm="sqmb_tbs_each")
    union = merged.segments | naive.segments
    assert union
    jaccard = len(merged.segments & naive.segments) / len(union)
    assert jaccard >= 0.9


def test_bench_mqmb_three_locations(bench_client, benchmark, duration_sweep):
    query = MQuery(config.M_QUERY_LOCATIONS[:3], day_time(10), 1200, 0.2)
    result = benchmark(lambda: m_query(bench_client, query))
    assert result.segments


def test_bench_naive_three_locations(bench_client, benchmark, count_sweep):
    query = MQuery(config.M_QUERY_LOCATIONS[:3], day_time(10), 1200, 0.2)
    result = benchmark.pedantic(
        lambda: m_query(bench_client, query, algorithm="sqmb_tbs_each"),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert result.segments
