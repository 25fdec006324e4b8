"""Ablation: baseline strength — ES (paper) vs support-pruned ES vs SQMB+TBS.

The paper's ES verifies every road-connected segment.  A smarter baseline
(not in the paper) prunes branches with zero historical support.  This
ablation quantifies how much of SQMB+TBS's advantage survives against the
stronger baseline — i.e. how much is due to the Con-Index bounds rather
than to the weak baseline.
"""

from client_protocol import s_query
from repro.core.query import SQuery
from repro.eval import config
from repro.eval.tables import format_table


def _query(minutes: int) -> SQuery:
    return SQuery(
        config.CENTER_LOCATION,
        config.DEFAULT_SETTINGS.start_time_s,
        minutes * 60,
        0.2,
    )


def test_ablation_baseline_strength(bench_client, benchmark, emit):
    io_rows, wall_rows = [], []
    for minutes in (10, 20, 35):
        ours = s_query(bench_client, _query(minutes), algorithm="sqmb_tbs")
        pruned = s_query(bench_client, _query(minutes), algorithm="es_pruned")
        full = s_query(bench_client, _query(minutes), algorithm="es")
        for rows, metric in (
            (io_rows, "simulated_io_ms"),
            (wall_rows, "total_cost_ms"),
        ):
            rows.append(
                (
                    f"L={minutes}min",
                    f"sqmb={getattr(ours.cost, metric):8.0f}ms  "
                    f"es_pruned={getattr(pruned.cost, metric):8.0f}ms  "
                    f"es={getattr(full.cost, metric):8.0f}ms",
                )
            )
        assert ours.cost.total_cost_ms < full.cost.total_cost_ms
        assert pruned.cost.total_cost_ms <= full.cost.total_cost_ms
    emit(
        "ablation_baselines",
        format_table("Ablation — baseline strength (simulated I/O)", io_rows),
        format_table("Ablation — baseline strength (running time)", wall_rows),
    )
    result = benchmark.pedantic(
        lambda: s_query(bench_client, _query(10), algorithm="es_pruned"),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert result.segments
