"""Fig 4.5: effect of the start time T over the day.

(a) running time vs T — dips around the 07:45 and 18:00 rush hours
    (slower speeds -> smaller bounding regions -> fewer candidates);
(b) reachable road length vs T — same dips.
"""

import pytest

from client_protocol import s_query
from repro.core.query import SQuery
from repro.eval import config
from repro.eval.runner import run_start_time_sweep
from repro.eval.tables import format_series
from repro.trajectory.model import day_time


@pytest.fixture(scope="module")
def sweep(bench_engine, emit, emit_running_time):
    points = run_start_time_sweep(
        bench_engine,
        config.CENTER_LOCATION,
        config.START_TIMES_S,
        durations_s=(300, 600),
        prob=0.2,
        delta_t_s=config.DEFAULT_SETTINGS.delta_t_s,
    )
    for point in points:
        point.x = point.x / 3600.0  # hours for readability
    emit_running_time(
        "fig45a_runtime", "Fig 4.5(a) — {} (ms) vs start time (h)",
        points, "T (h)",
    )
    emit(
        "fig45b_length",
        format_series(
            "Fig 4.5(b) — reachable road length (km) vs start time (h)",
            points, metric="road_length_km", x_name="T (h)",
            value_format="{:.2f}",
        ),
    )
    return points


def test_fig45_rush_hour_dips(sweep):
    curve = {
        p.x: p.road_length_km for p in sweep
        if p.algorithm == "sqmb_tbs" and p.label == "L=10min"
    }
    rush = min(curve.get(8.0, 1e9), curve.get(18.0, 1e9))
    offpeak = max(curve.get(12.0, 0.0), curve.get(14.0, 0.0), curve.get(2.0, 0.0))
    assert rush < offpeak, "rush-hour region must be smaller than off-peak"


def test_fig45_runtime_tracks_region(sweep):
    times = {
        p.x: p.running_time_ms for p in sweep
        if p.algorithm == "sqmb_tbs" and p.label == "L=10min"
    }
    lengths = {
        p.x: p.road_length_km for p in sweep
        if p.algorithm == "sqmb_tbs" and p.label == "L=10min"
    }
    # Correlation sign check: the largest-region hour should not be the
    # cheapest hour, and the smallest-region hour not the dearest.
    biggest = max(lengths, key=lengths.get)
    smallest = min(lengths, key=lengths.get)
    assert times[biggest] >= times[smallest]


def test_bench_rush_hour_query(bench_client, benchmark, sweep):
    query = SQuery(config.CENTER_LOCATION, day_time(18), 600, 0.2)
    result = benchmark(lambda: s_query(bench_client, query))
    assert isinstance(result.segments, set)
