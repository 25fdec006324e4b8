"""Fig 4.1: effect of the query duration L.

(a) running time of ES vs SQMB+TBS (Δt = 5, 10 min) as L grows 5..35 min —
    expected shape: SQMB+TBS far below ES, savings largest at small L;
(b) reachable road length vs L — grows with L, insensitive to Δt.
"""

import pytest

from client_protocol import s_query
from repro.core.query import SQuery
from repro.eval import config
from repro.eval.runner import run_duration_sweep
from repro.eval.tables import format_savings, format_series


@pytest.fixture(scope="module")
def sweep(bench_engine, emit, emit_running_time):
    points = run_duration_sweep(
        bench_engine,
        config.CENTER_LOCATION,
        config.DURATIONS_S,
        config.DEFAULT_SETTINGS.start_time_s,
        config.DEFAULT_SETTINGS.prob,
        delta_ts=(300, 600),
        include_es=True,
    )
    emit_running_time(
        "fig41a_runtime", "Fig 4.1(a) — {} (ms) vs duration L (min)",
        points, "L (min)",
    )
    emit(
        "fig41b_length",
        format_series(
            "Fig 4.1(b) — reachable road length (km) vs duration L (min)",
            points, metric="road_length_km", x_name="L (min)",
            value_format="{:.2f}",
        ),
    )
    emit(
        "fig41_savings",
        format_savings(
            "Fig 4.1 — SQMB+TBS simulated-I/O saving over ES",
            points, ours="sqmb_tbs Δt=5min", baseline="ES", x_name="L (min)",
            metric="io_ms",
        ),
    )
    return points


def _curve(points, label):
    return {p.x: p for p in points if (p.label or p.algorithm) == label}


def test_fig41_shapes(sweep):
    ours = _curve(sweep, "sqmb_tbs Δt=5min") or {
        p.x: p for p in sweep if p.algorithm == "sqmb_tbs" and "5" in p.label
    }
    es = {p.x: p for p in sweep if p.label == "ES"}
    assert ours and es
    for minutes in ours:
        # SQMB+TBS always at least 50% cheaper than ES (paper: 50-90%).
        assert ours[minutes].running_time_ms < 0.5 * es[minutes].running_time_ms
    # Road length grows with L.
    lengths = [ours[x].road_length_km for x in sorted(ours)]
    assert lengths[-1] > lengths[0]
    # SQMB+TBS running time grows with L (bounding region expands).
    times = [ours[x].running_time_ms for x in sorted(ours)]
    assert times[-1] > times[0]


def test_fig41_length_insensitive_to_delta_t(sweep):
    d5 = {p.x: p.road_length_km for p in sweep
          if p.algorithm == "sqmb_tbs" and p.label == "Δt=5min"}
    d10 = {p.x: p.road_length_km for p in sweep
           if p.algorithm == "sqmb_tbs" and p.label == "Δt=10min"}
    for x in d5:
        if d5[x] > 1.0:
            assert d10[x] == pytest.approx(d5[x], rel=0.8)


def test_bench_sqmb_tbs_duration(bench_client, benchmark, sweep):
    query = SQuery(
        config.CENTER_LOCATION,
        config.DEFAULT_SETTINGS.start_time_s,
        600,
        config.DEFAULT_SETTINGS.prob,
    )
    result = benchmark(lambda: s_query(bench_client, query, algorithm="sqmb_tbs"))
    assert result.segments


def test_bench_es_duration(bench_client, benchmark, sweep):
    query = SQuery(
        config.CENTER_LOCATION,
        config.DEFAULT_SETTINGS.start_time_s,
        600,
        config.DEFAULT_SETTINGS.prob,
    )
    result = benchmark.pedantic(
        lambda: s_query(bench_client, query, algorithm="es"),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert result.segments
