"""Ablation: Con-Index construction — lazy vs eager, and entry reuse.

The paper builds the Con-Index offline; this reproduction supports both
eager precomputation and lazy on-first-use materialisation.  The ablation
measures (a) the cost of precomputing one slot for the whole network,
(b) the first-touch vs warm cost of SQMB, demonstrating why sweeps reuse
memoised entries.
"""

from repro.core.con_index import ConnectionIndex
from repro.core.sqmb import sqmb_bounding_region
from repro.eval import config
from repro.eval.tables import format_table


def test_ablation_precompute_one_slot(bench_dataset, benchmark, emit):
    def precompute():
        con = ConnectionIndex(
            bench_dataset.network,
            bench_dataset.database,
            config.DEFAULT_SETTINGS.delta_t_s,
        )
        slot = con.slot_of(config.DEFAULT_SETTINGS.start_time_s)
        built = con.precompute(slots=[slot])
        return con, built

    con, built = benchmark.pedantic(precompute, rounds=1, iterations=1)
    assert built == bench_dataset.network.num_segments
    emit(
        "ablation_conindex",
        format_table(
            "Ablation — Con-Index construction",
            [
                ("entries per slot", str(built)),
                ("expansions run", str(con.expansions)),
            ],
        ),
    )


def test_ablation_lazy_first_touch_vs_warm(bench_dataset):
    con = ConnectionIndex(
        bench_dataset.network,
        bench_dataset.database,
        config.DEFAULT_SETTINGS.delta_t_s,
    )
    import time

    st_like_start = next(iter(bench_dataset.network.segment_ids()))
    t0 = time.perf_counter()
    sqmb_bounding_region(
        con, st_like_start, config.DEFAULT_SETTINGS.start_time_s, 1200
    )
    cold = time.perf_counter() - t0
    expansions_after_cold = con.expansions
    t0 = time.perf_counter()
    sqmb_bounding_region(
        con, st_like_start, config.DEFAULT_SETTINGS.start_time_s, 1200
    )
    warm = time.perf_counter() - t0
    assert con.expansions == expansions_after_cold  # fully memoised
    assert warm <= cold
