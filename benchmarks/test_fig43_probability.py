"""Fig 4.3: effect of the query probability Prob.

(a) running time vs Prob ∈ {20..100}% for SQMB+TBS (L = 10, 15 min) and ES
    — expected shape: ES flat and high (it verifies everything regardless
    of Prob), SQMB+TBS well below it at every Prob;
(b) reachable road length vs Prob — decreases as Prob grows.
"""

import pytest

from client_protocol import s_query
from repro.core.query import SQuery
from repro.eval import config
from repro.eval.runner import run_probability_sweep
from repro.eval.tables import format_series


@pytest.fixture(scope="module")
def sweep(bench_engine, emit, emit_running_time):
    points = run_probability_sweep(
        bench_engine,
        config.CENTER_LOCATION,
        config.PROBABILITIES,
        config.DEFAULT_SETTINGS.start_time_s,
        durations_s=(600, 900),
        delta_t_s=config.DEFAULT_SETTINGS.delta_t_s,
    )
    emit_running_time(
        "fig43a_runtime", "Fig 4.3(a) — {} (ms) vs probability (%)",
        points, "Prob (%)",
    )
    emit(
        "fig43b_length",
        format_series(
            "Fig 4.3(b) — reachable road length (km) vs probability (%)",
            points, metric="road_length_km", x_name="Prob (%)",
            value_format="{:.2f}",
        ),
    )
    return points


def test_fig43_shapes(sweep):
    ours = {p.x: p for p in sweep
            if p.algorithm == "sqmb_tbs" and p.label == "L=10min"}
    es = {p.x: p for p in sweep if p.label == "ES"}
    # SQMB+TBS beats ES at every probability.
    for prob in ours:
        assert ours[prob].running_time_ms < es[prob].running_time_ms
    # ES cost is flat in Prob (it always verifies the whole network).
    es_times = [es[x].probability_checks for x in sorted(es)]
    assert max(es_times) == min(es_times)
    # Road length decreases as Prob grows.
    lengths = [ours[x].road_length_km for x in sorted(ours)]
    assert lengths[0] >= lengths[-1]
    assert lengths[0] > 0


def test_bench_sqmb_tbs_high_prob(bench_client, benchmark, sweep):
    query = SQuery(
        config.CENTER_LOCATION,
        config.DEFAULT_SETTINGS.start_time_s,
        600,
        0.8,
    )
    result = benchmark(lambda: s_query(bench_client, query))
    assert isinstance(result.segments, set)
