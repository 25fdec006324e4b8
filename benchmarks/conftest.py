"""Shared benchmark fixtures: engines and clients over the benchmark
datasets.

Datasets and indexes are built once per session; each figure module then
runs its parameter sweep, prints the paper-style series, writes it to
``benchmarks/results/`` and feeds one representative query per curve to
pytest-benchmark.  All query execution goes through the
:class:`~repro.api.client.ReachabilityClient` API (see
``client_protocol.py`` for the cold per-query helpers).

The tracked tables under ``benchmarks/results/`` carry only values that
repeat exactly (simulated-I/O milliseconds, page reads, counts, road
lengths), so a diff there means behaviour changed; the paper's headline
"running time" adds measured wall time and goes to the git-ignored
``benchmarks/results/wall/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from client_protocol import s_query
from repro.api.client import ReachabilityClient
from repro.core.engine import ReachabilityEngine
from repro.core.query import SQuery
from repro.datasets.shenzhen_like import default_dataset
from repro.eval.config import DEFAULT_SETTINGS, SMALL_SETTINGS
from repro.eval.tables import format_series

RESULTS_DIR = Path(__file__).parent / "results"
WALL_DIR = RESULTS_DIR / "wall"


@pytest.fixture(scope="session")
def bench_dataset():
    """The full-size benchmark dataset (ShenzhenLike defaults)."""
    return default_dataset(DEFAULT_SETTINGS.dataset)


@pytest.fixture(scope="session")
def bench_engine(bench_dataset):
    """Engine over the benchmark dataset with the 5-minute index built and
    the downtown Con-Index entries warmed (index construction is offline
    work in the paper's model)."""
    engine = ReachabilityEngine(bench_dataset.network, bench_dataset.database)
    engine.st_index(DEFAULT_SETTINGS.delta_t_s)
    # Warm the downtown con-index entries for the default start time by
    # running the longest default query once.
    with ReachabilityClient(engine) as warmer:
        s_query(
            warmer,
            SQuery(
                DEFAULT_SETTINGS.location,
                DEFAULT_SETTINGS.start_time_s,
                35 * 60,
                DEFAULT_SETTINGS.prob,
            ),
            delta_t_s=DEFAULT_SETTINGS.delta_t_s,
        )
    return engine


@pytest.fixture(scope="session")
def bench_client(bench_engine):
    """Session client over the benchmark engine (cold-protocol sends)."""
    with ReachabilityClient(bench_engine) as client:
        yield client


@pytest.fixture(scope="session")
def small_dataset():
    """Reduced dataset for the expensive Δt-granularity sweeps."""
    return default_dataset(SMALL_SETTINGS.dataset)


@pytest.fixture(scope="session")
def small_engine(small_dataset):
    engine = ReachabilityEngine(small_dataset.network, small_dataset.database)
    engine.st_index(SMALL_SETTINGS.delta_t_s)
    return engine


@pytest.fixture(scope="session")
def small_client(small_engine):
    with ReachabilityClient(small_engine) as client:
        yield client


@pytest.fixture(scope="session")
def emit():
    """Print a named results block and persist it under benchmarks/results.

    ``wall_text``, the variant of the block that includes measured wall
    time, is printed too but written to the untracked ``results/wall``.
    """
    WALL_DIR.mkdir(parents=True, exist_ok=True)

    def _emit(name: str, text: str, wall_text: str | None = None) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if wall_text is not None:
            print(f"{wall_text}\n")
            (WALL_DIR / f"{name}.txt").write_text(wall_text + "\n")

    return _emit


@pytest.fixture(scope="session")
def emit_running_time(emit):
    """Emit one running-time figure: ``title`` has a ``{}`` for the metric
    name — simulated I/O in the tracked table, running time in the wall one."""

    def _emit(name: str, title: str, points, x_name: str) -> None:
        emit(
            name,
            format_series(
                title.format("simulated I/O"), points, metric="io_ms", x_name=x_name
            ),
            format_series(
                title.format("running time"),
                points,
                metric="running_time_ms",
                x_name=x_name,
            ),
        )

    return _emit
