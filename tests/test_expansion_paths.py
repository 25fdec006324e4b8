"""Tests for time-bounded network expansion and shortest paths."""

import pytest

from repro.network.expansion import time_bounded_expansion
from repro.network.generator import grid_city
from repro.network.paths import (
    dijkstra_from_segment,
    network_distance,
    shortest_path_segments,
)


def uniform_time(seconds: float):
    return lambda sid: seconds


class TestExpansion:
    def test_negative_budget_rejected(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        with pytest.raises(ValueError):
            time_bounded_expansion(tiny_network, start, -1.0, uniform_time(1))

    def test_zero_budget_covers_start_only(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        result = time_bounded_expansion(tiny_network, start, 0.0, uniform_time(10))
        assert result.cover == {start}

    def test_cover_grows_with_budget(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        small = time_bounded_expansion(tiny_network, start, 10.0, uniform_time(10))
        large = time_bounded_expansion(tiny_network, start, 30.0, uniform_time(10))
        assert small.cover <= large.cover
        assert len(large.cover) > len(small.cover)

    def test_arrival_times_are_hop_counts(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        result = time_bounded_expansion(tiny_network, start, 25.0, uniform_time(10))
        assert result.arrival[start] == 0.0
        for segment, arrival in result.arrival.items():
            assert arrival in (0.0, 10.0, 20.0)

    def test_impassable_blocks(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))

        def travel(sid: int) -> float:
            return float("inf") if sid != start else 1.0

        result = time_bounded_expansion(tiny_network, start, 100.0, travel)
        assert result.cover == {start}

    def test_cover_is_closed_within_budget(self, tiny_network):
        """A successor that can be traversed within the budget after a
        member's arrival is in the cover, arriving no later than that."""
        start = next(iter(tiny_network.segment_ids()))
        result = time_bounded_expansion(tiny_network, start, 20.0, uniform_time(10))
        assert len(result.cover) > 1
        for segment, arrived in result.arrival.items():
            for succ in tiny_network.successors(segment):
                if arrived + 10.0 <= 20.0:
                    assert succ in result.cover
                    assert result.arrival[succ] <= arrived + 10.0

    def test_every_member_is_reached_from_a_covered_predecessor(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        result = time_bounded_expansion(tiny_network, start, 40.0, uniform_time(10))
        assert result.arrival[start] == 0.0
        for segment, arrived in result.arrival.items():
            if segment == start:
                continue
            assert 0.0 < arrived <= 40.0
            assert any(
                result.arrival.get(pred) == pytest.approx(arrived - 10.0)
                for pred in tiny_network.predecessors(segment)
            )

    def test_whole_network_reached_with_big_budget(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        result = time_bounded_expansion(
            tiny_network, start, 1e9, uniform_time(1.0)
        )
        assert len(result.cover) == tiny_network.num_segments


class TestDijkstra:
    def test_distance_to_self_zero(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        assert network_distance(tiny_network, start, start) == 0.0

    def test_default_cost_is_length(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        dist = dijkstra_from_segment(tiny_network, start)
        succ = tiny_network.successors(start)[0]
        assert dist[succ] == pytest.approx(tiny_network.segment(succ).length)

    def test_max_cost_limits(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        capped = dijkstra_from_segment(tiny_network, start, max_cost=600.0)
        assert all(d <= 600.0 for d in capped.values())
        full = dijkstra_from_segment(tiny_network, start)
        assert len(full) > len(capped)

    def test_targets_early_exit(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        full = dijkstra_from_segment(tiny_network, start)
        far = max(full, key=full.get)
        partial = dijkstra_from_segment(tiny_network, start, targets={far})
        assert partial[far] == full[far]

    def test_triangle_inequality_over_network(self, tiny_network):
        sids = sorted(tiny_network.segment_ids())
        a, b, c = sids[0], sids[7], sids[15]
        ab = network_distance(tiny_network, a, b)
        bc = network_distance(tiny_network, b, c)
        ac = network_distance(tiny_network, a, c)
        assert ac <= ab + bc + 1e-6


class TestShortestPath:
    def test_path_to_self(self, tiny_network):
        start = next(iter(tiny_network.segment_ids()))
        assert shortest_path_segments(tiny_network, start, start) == [start]

    def test_path_is_connected_and_minimal(self, tiny_network):
        sids = sorted(tiny_network.segment_ids())
        start, end = sids[0], sids[-1]
        path = shortest_path_segments(tiny_network, start, end)
        assert path is not None
        assert path[0] == start and path[-1] == end
        for a, b in zip(path, path[1:]):
            assert b in tiny_network.successors(a)
        cost = sum(tiny_network.segment(s).length for s in path[1:])
        assert cost == pytest.approx(network_distance(tiny_network, start, end))

    def test_unreachable_returns_none(self):
        # Two disconnected one-way islands.
        from repro.network.model import RoadNetwork, RoadSegment
        from repro.spatial.geometry import Point

        net = RoadNetwork()
        for i, (x, y) in enumerate([(0, 0), (10, 0), (100, 0), (110, 0)]):
            net.add_node(i, Point(x, y))
        net.add_segment(RoadSegment(0, 0, 1, (Point(0, 0), Point(10, 0))))
        net.add_segment(RoadSegment(1, 2, 3, (Point(100, 0), Point(110, 0))))
        assert shortest_path_segments(net, 0, 1) is None

    def test_infinite_cost_blocks(self, tiny_network):
        sids = sorted(tiny_network.segment_ids())
        start, end = sids[0], sids[-1]

        def cost(sid: int) -> float:
            return float("inf") if sid == end else tiny_network.segment(sid).length

        assert shortest_path_segments(tiny_network, start, end, cost=cost) is None
