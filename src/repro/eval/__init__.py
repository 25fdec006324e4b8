"""Evaluation harness: workloads, sweeps, metrics and table printers.

One module per concern:

* :mod:`~repro.eval.config` — the benchmark configurations of Table 4.2.
* :mod:`~repro.eval.metrics` — running time / road length metrics.
* :mod:`~repro.eval.workload` — query workload generators.
* :mod:`~repro.eval.runner` — parameter sweeps for every figure.
* :mod:`~repro.eval.tables` — ASCII table/series formatting.
"""

from repro.eval.config import (
    BenchmarkSettings,
    DEFAULT_SETTINGS,
    SMALL_SETTINGS,
)
from repro.eval.metrics import region_road_length_km
from repro.eval.runner import (
    SweepPoint,
    run_duration_sweep,
    run_interval_sweep,
    run_location_count_sweep,
    run_mquery_duration_sweep,
    run_probability_sweep,
    run_start_time_sweep,
)
from repro.eval.tables import format_series, format_table
from repro.eval.workload import QueryWorkload

__all__ = [
    "BenchmarkSettings",
    "DEFAULT_SETTINGS",
    "SMALL_SETTINGS",
    "region_road_length_km",
    "SweepPoint",
    "run_duration_sweep",
    "run_probability_sweep",
    "run_start_time_sweep",
    "run_interval_sweep",
    "run_mquery_duration_sweep",
    "run_location_count_sweep",
    "format_table",
    "format_series",
    "QueryWorkload",
]
