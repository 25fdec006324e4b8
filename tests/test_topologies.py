"""End-to-end checks on alternative city topologies.

The evaluation uses the grid city; these tests prove the whole stack —
generation, indexing, bounding regions, trace-back — is topology-agnostic
by running it on ring-radial and random-planar networks.
"""

import pytest

from benchmarks.client_protocol import s_query
from repro.core.engine import ReachabilityEngine
from repro.core.query import SQuery
from repro.datasets.shenzhen_like import ShenzhenLikeConfig, build_shenzhen_like
from repro.trajectory.model import day_time


def small_config(topology: str) -> ShenzhenLikeConfig:
    return ShenzhenLikeConfig(
        topology=topology,
        grid_rows=5,
        grid_cols=6,
        spacing_m=1200.0,
        granularity_m=600.0,
        num_taxis=20,
        num_days=6,
        seed=9,
    )


@pytest.fixture(scope="module", params=["ring_radial", "random_planar"])
def topo_engine(request):
    dataset = build_shenzhen_like(small_config(request.param))
    engine = ReachabilityEngine(dataset.network, dataset.database)
    engine.st_index(300)
    return dataset, engine


class TestTopologyVariants:
    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_shenzhen_like(small_config("mobius"))

    def test_network_valid(self, topo_engine):
        dataset, _ = topo_engine
        dataset.network.check_invariants()
        assert dataset.network.num_segments > 0

    def test_query_answers(self, topo_engine):
        dataset, engine = topo_engine
        center = dataset.network.bounds().center
        query = SQuery(center, day_time(11), 600, 0.2)
        ours = s_query(engine, query)
        baseline = s_query(engine, query, algorithm="es")
        assert ours.segments == baseline.segments

    def test_region_grows_with_duration(self, topo_engine):
        dataset, engine = topo_engine
        center = dataset.network.bounds().center
        short = s_query(engine, SQuery(center, day_time(11), 300, 0.2))
        long = s_query(engine, SQuery(center, day_time(11), 1200, 0.2))
        assert len(long.segments) >= len(short.segments)

    def test_determinism(self, topo_engine):
        dataset, _ = topo_engine
        rebuilt = build_shenzhen_like(dataset.config)
        assert (
            rebuilt.database.stats().num_visits
            == dataset.database.stats().num_visits
        )
