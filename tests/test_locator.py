"""The one start-segment resolver (Fig. 3.4's location -> ``r0``).

The vector pass plus exact re-scoring must equal the brute-force
``min((segment.distance_to_point(p), segment_id))`` for every point —
random points, polyline vertices, intersection nodes, points on two-way
roads (the twin tie goes to the smaller id), points far outside the
network — one at a time and as a batch; a non-finite location is a typed
error; and the sharded dispatcher routes every location to a shard whose
worker resolves the same start segment.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import ReachabilityEngine
from repro.network.locator import SegmentLocator
from repro.network.model import RoadNetwork, RoadSegment
from repro.spatial.geometry import Point


def brute_force(network: RoadNetwork, point: Point) -> int:
    return min(
        (segment.distance_to_point(point), segment.segment_id)
        for segment in network.segments()
    )[1]


def bent_network() -> RoadNetwork:
    """Multi-edge polylines (the per-segment minimum runs), a repeated
    vertex (a zero-length edge), two-way and one-way roads."""
    network = RoadNetwork()
    for node_id, (x, y) in enumerate(((0, 0), (1000, 0), (1000, 800), (0, 800))):
        network.add_node(node_id, Point(float(x), float(y)))
    roads = (
        (0, 1, ((0, 0), (400, 150), (1000, 0)), True),
        (1, 2, ((1000, 0), (1000, 0), (1200, 400), (1000, 800)), True),
        (2, 3, ((1000, 800), (0, 800)), False),
        (3, 0, ((0, 800), (300, 400), (-200, 200), (0, 0)), False),
    )
    next_id = 0
    for start, end, shape, two_way in roads:
        points = tuple(Point(float(x), float(y)) for x, y in shape)
        twin = next_id + 1 if two_way else None
        network.add_segment(RoadSegment(next_id, start, end, points, twin_id=twin))
        if two_way:
            network.add_segment(
                RoadSegment(twin, end, start, points[::-1], twin_id=next_id)
            )
        next_id += 2 if two_way else 1
    return network


def point_along(segment: RoadSegment, edge: int, fraction: float) -> Point:
    a = segment.shape[edge % (len(segment.shape) - 1)]
    b = segment.shape[edge % (len(segment.shape) - 1) + 1]
    return Point(a.x + fraction * (b.x - a.x), a.y + fraction * (b.y - a.y))


@pytest.fixture(scope="module", params=["test-city", "bent"])
def network(request, test_dataset) -> RoadNetwork:
    return test_dataset.network if request.param == "test-city" else bent_network()


def points_on(network: RoadNetwork):
    """Points drawn where ties and rounding live, plus anywhere at all."""
    segments = sorted(network.segments(), key=lambda segment: segment.segment_id)
    bounds = network.bounds()
    vertices = [point for segment in segments for point in segment.shape]
    nodes = [point for _, point in network.nodes()]
    coordinate = st.floats(-1e7, 1e7, allow_nan=False)
    return st.one_of(
        st.builds(
            Point,
            st.floats(bounds.min_x - 500, bounds.max_x + 500),
            st.floats(bounds.min_y - 500, bounds.max_y + 500),
        ),
        st.sampled_from(vertices + nodes),
        st.builds(
            point_along,
            st.sampled_from(segments),
            st.integers(0, 8),
            st.sampled_from([0.0, 0.25, 0.5, 1 / 3, 0.999, 1.0]) | st.floats(0, 1),
        ),
        st.builds(Point, coordinate, coordinate),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_resolver_is_the_brute_force_minimum(network, data):
    locator = SegmentLocator(network)
    points = data.draw(st.lists(points_on(network), min_size=1, max_size=12))
    expected = [brute_force(network, point) for point in points]
    assert [locator.nearest(point) for point in points] == expected
    assert locator.locate(points, chunk=5) == expected


def test_two_way_roads_resolve_to_the_smaller_id(test_dataset):
    network = test_dataset.network
    locator = SegmentLocator(network)
    two_way = [segment for segment in network.segments() if segment.twin_id is not None]
    assert two_way
    for segment in two_way:
        for fraction in (0.1, 0.5, 0.9):
            point = point_along(segment, 0, fraction)
            assert locator.nearest(point) == min(segment.segment_id, segment.twin_id)


@pytest.mark.parametrize(
    "bad", [Point(math.inf, 0.0), Point(0.0, -math.inf), Point(math.nan, 0.0)]
)
def test_non_finite_location_is_a_typed_error(test_dataset, bad):
    locator = SegmentLocator(test_dataset.network)
    with pytest.raises(ValueError, match="location must be finite"):
        locator.nearest(bad)
    with pytest.raises(ValueError, match="location must be finite"):
        locator.locate([Point(0.0, 0.0), bad])


def test_empty_network_is_a_typed_error():
    with pytest.raises(ValueError, match="empty spatial index"):
        SegmentLocator(RoadNetwork()).nearest(Point(0.0, 0.0))


@pytest.mark.sharded
def test_dispatcher_owner_resolves_the_routed_start_segment(test_dataset, tmp_path):
    """Every ``interactive_unique`` request (smoke config, two routing
    groups): the group the dispatcher routes it to owns the start segment
    the resolver gives on the full network — for a whole m-query, the most
    of its locations' (the first such group on a tie) — and a worker's
    replica engine resolves the same segments."""
    from benchmarks.perf.inputs import SMOKE, InputGenerator
    from repro.serving import ShardedEngine
    from repro.serving.partition import export_shard_payload
    from repro.serving.worker import build_shard_engine

    network, database = test_dataset.network, test_dataset.database
    requests = InputGenerator(network, database, SMOKE, seed=1).interactive()
    engine = ReachabilityEngine(network, database)
    resolver = engine.st_index(SMOKE.delta_t_s).locator
    with ShardedEngine(engine, shards=SMOKE.shards, delta_t_s=SMOKE.delta_t_s) as sharded:
        dispatch = sharded.plan_dispatch(requests)
        owner_of = sharded.plan.owner_of
    replica = build_shard_engine(
        export_shard_payload(engine, SMOKE.delta_t_s, tmp_path)
    ).st_index(SMOKE.delta_t_s)
    assert not dispatch.fallback
    routed = 0
    for shard_id, entries in dispatch.per_shard.items():
        for _, _, request in entries:
            query = request.query
            locations = getattr(query, "locations", None) or (query.location,)
            starts = [resolver.nearest(location) for location in locations]
            owners = [owner_of[start] for start in starts]
            assert max(owners, key=owners.count) == shard_id
            for location, start in zip(locations, starts):
                assert replica.find_start_segment(location) == start
            routed += len(locations)
    assert routed == sum(
        len(getattr(r.query, "locations", None) or (r.query.location,)) for r in requests
    )
