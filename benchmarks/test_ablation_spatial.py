"""Ablation: start-segment lookup — vector pass vs R-tree vs grid vs linear.

The paper's ST-Index resolves a query location to its road segment with an
R-tree (§3.2.1); SETI-style systems use grids (§5.1); this reproduction's
ST-Index uses one exact vector pass over every polyline edge
(``repro.network.locator``).  This ablation compares the four lookup
strategies on the benchmark network.
"""

import random

import pytest

from repro.eval.tables import format_table
from repro.network.locator import SegmentLocator
from repro.spatial.geometry import BBox, Point
from repro.spatial.grid import GridIndex
from repro.spatial.rtree import RTree


@pytest.fixture(scope="module")
def lookups(bench_dataset):
    network = bench_dataset.network
    rtree = RTree.bulk_load(
        [(seg.bbox, seg.segment_id) for seg in network.segments()]
    )
    grid = GridIndex(network.bounds(), cell_size=500.0)
    for seg in network.segments():
        grid.insert(seg.bbox, seg.segment_id)

    def exact(point: Point, sid: int) -> float:
        return network.segment(sid).distance_to_point(point)

    return network, rtree, grid, exact


@pytest.fixture(scope="module")
def probes(bench_dataset):
    rng = random.Random(11)
    bounds = bench_dataset.network.bounds()
    return [
        Point(
            rng.uniform(bounds.min_x, bounds.max_x),
            rng.uniform(bounds.min_y, bounds.max_y),
        )
        for _ in range(50)
    ]


def test_all_strategies_agree(lookups, probes):
    network, rtree, grid, exact = lookups
    locator = SegmentLocator(network)
    for probe in probes:
        linear = network.nearest_segment_linear(probe)
        via_rtree = rtree.nearest(probe, k=1, distance=exact)[0]
        via_grid = grid.nearest(probe, k=1, distance=exact)[0]
        d_linear = exact(probe, linear)
        assert exact(probe, via_rtree) == pytest.approx(d_linear)
        assert exact(probe, via_grid) == pytest.approx(d_linear)
        assert exact(probe, locator.nearest(probe)) == d_linear


def test_bench_vector_lookup(lookups, probes, benchmark):
    locator = SegmentLocator(lookups[0])
    result = benchmark(lambda: locator.locate(probes))
    assert len(result) == len(probes)


def test_bench_rtree_lookup(lookups, probes, benchmark):
    _, rtree, _, exact = lookups
    result = benchmark(
        lambda: [rtree.nearest(p, k=1, distance=exact)[0] for p in probes]
    )
    assert len(result) == len(probes)


def test_bench_grid_lookup(lookups, probes, benchmark):
    _, _, grid, exact = lookups
    result = benchmark(
        lambda: [grid.nearest(p, k=1, distance=exact)[0] for p in probes]
    )
    assert len(result) == len(probes)


def test_bench_linear_lookup(lookups, probes, benchmark, emit):
    network, _, _, _ = lookups
    result = benchmark(
        lambda: [network.nearest_segment_linear(p) for p in probes]
    )
    assert len(result) == len(probes)
    emit(
        "ablation_spatial",
        format_table(
            "Ablation — start-segment lookup strategies",
            [("strategies", "vector / rtree / grid / linear (see benchmark table)"),
             ("probes", str(len(probes)))],
        ),
    )
