"""Fig 4.7: effect of the index granularity Δt ∈ {1, 5, 10, 20} min.

Expected shape: SQMB+TBS running time roughly flat in Δt, always below ES.
Runs on the reduced dataset — the Δt = 1 min index has 1440 temporal slots
and is the most expensive index this suite builds.
"""

import pytest

from client_protocol import s_query
from repro.core.query import SQuery
from repro.eval import config
from repro.eval.runner import run_interval_sweep


@pytest.fixture(scope="module")
def sweep(small_engine, emit_running_time):
    points = run_interval_sweep(
        small_engine,
        config.CENTER_LOCATION,
        config.INTERVALS_S,
        config.DEFAULT_SETTINGS.start_time_s,
        durations_s=(300, 600),
        prob=0.2,
        include_es=True,
    )
    emit_running_time(
        "fig47_interval", "Fig 4.7 — {} (ms) vs time interval Δt (min)",
        points, "Δt (min)",
    )
    return points


def test_fig47_sqmb_below_es(sweep):
    ours = {p.x: p for p in sweep
            if p.algorithm == "sqmb_tbs" and p.label == "L=10min"}
    es = {p.x: p for p in sweep if p.label == "ES"}
    for delta in ours:
        assert ours[delta].running_time_ms < es[delta].running_time_ms


def test_fig47_roughly_flat(sweep):
    """SQMB+TBS is stable in Δt: no order-of-magnitude swings."""
    ours = [
        p.running_time_ms for p in sweep
        if p.algorithm == "sqmb_tbs" and p.label == "L=10min"
    ]
    assert max(ours) < 10 * max(min(ours), 1e-9)


def test_bench_query_at_one_minute_granularity(small_client, benchmark, sweep):
    query = SQuery(
        config.CENTER_LOCATION,
        config.DEFAULT_SETTINGS.start_time_s,
        600,
        0.2,
    )
    result = benchmark.pedantic(
        lambda: s_query(small_client, query, delta_t_s=60),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert isinstance(result.segments, set)
