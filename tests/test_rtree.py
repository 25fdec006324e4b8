"""Unit and property tests for the R-tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.geometry import BBox, Point
from repro.spatial.rtree import RTree


def box_at(x: float, y: float, size: float = 1.0) -> BBox:
    return BBox(x, y, x + size, y + size)


def random_boxes(n: int, seed: int = 0) -> list[tuple[BBox, int]]:
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.uniform(0, 1000), rng.uniform(0, 1000)
        items.append((box_at(x, y, rng.uniform(0.5, 20)), i))
    return items


class TestConstruction:
    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            RTree(max_entries=1)

    def test_invalid_min_entries(self):
        with pytest.raises(ValueError):
            RTree(max_entries=8, min_entries=7)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert tree.search(BBox(0, 0, 1, 1)) == []
        assert tree.nearest(Point(0, 0)) == []

    def test_bulk_load_empty(self):
        tree = RTree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_sizes(self):
        for n in (1, 5, 16, 17, 100, 333):
            tree = RTree.bulk_load(random_boxes(n), max_entries=8)
            assert len(tree) == n
            tree.check_invariants()
            assert sorted(tree.items()) == list(range(n))


class TestInsert:
    def test_insert_and_search(self):
        tree = RTree(max_entries=4)
        for i in range(50):
            tree.insert(box_at(i * 10, 0), i)
        tree.check_invariants()
        found = tree.search(BBox(95, -1, 125, 2))
        assert sorted(found) == [10, 11, 12]

    def test_insert_many_keeps_invariants(self):
        tree = RTree(max_entries=4)
        for box, item in random_boxes(200, seed=3):
            tree.insert(box, item)
        tree.check_invariants()
        assert len(tree) == 200

    def test_search_point(self):
        tree = RTree(max_entries=4)
        tree.insert(BBox(0, 0, 10, 10), "a")
        tree.insert(BBox(5, 5, 15, 15), "b")
        assert sorted(tree.search(BBox(7, 7, 7, 7))) == ["a", "b"]
        assert tree.search(BBox(12, 2, 12, 2)) == []


class TestSearchCorrectness:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_window_query_matches_brute_force(self, seed):
        rng = random.Random(seed)
        items = random_boxes(rng.randint(1, 120), seed=seed)
        tree = RTree.bulk_load(items, max_entries=6)
        window = BBox(
            rng.uniform(0, 800), rng.uniform(0, 800),
            rng.uniform(800, 1100), rng.uniform(800, 1100),
        )
        expected = sorted(i for box, i in items if box.intersects(window))
        assert sorted(tree.search(window)) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_insert_path_matches_bulk_load_results(self, seed):
        items = random_boxes(60, seed=seed)
        bulk = RTree.bulk_load(items, max_entries=5)
        incremental = RTree(max_entries=5)
        for box, item in items:
            incremental.insert(box, item)
        window = BBox(100, 100, 500, 500)
        assert sorted(bulk.search(window)) == sorted(incremental.search(window))


class TestNearest:
    def test_nearest_single(self):
        items = [(box_at(x * 100, 0, 1), x) for x in range(10)]
        tree = RTree.bulk_load(items)
        assert tree.nearest(Point(420, 0), k=1) == [4]

    def test_nearest_k_ordering(self):
        items = [(box_at(x * 100, 0, 1), x) for x in range(10)]
        tree = RTree.bulk_load(items)
        assert tree.nearest(Point(0, 0), k=3) == [0, 1, 2]

    def test_nearest_k_zero(self):
        tree = RTree.bulk_load(random_boxes(10))
        assert tree.nearest(Point(0, 0), k=0) == []

    def test_nearest_k_larger_than_size(self):
        tree = RTree.bulk_load(random_boxes(5))
        assert len(tree.nearest(Point(0, 0), k=50)) == 5

    def test_nearest_with_exact_distance(self):
        # Items are (x, y) pairs; exact distance uses the true point, which
        # differs from the bbox corner for fat boxes.
        items = [(BBox(0, 0, 100, 100), (90.0, 90.0)), (BBox(40, 40, 60, 60), (50.0, 50.0))]
        tree = RTree.bulk_load(items)
        nearest = tree.nearest(
            Point(85, 85),
            k=1,
            distance=lambda p, it: p.distance_to(Point(it[0], it[1])),
        )
        assert nearest == [(90.0, 90.0)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_nearest_matches_brute_force(self, seed):
        rng = random.Random(seed)
        items = random_boxes(rng.randint(1, 80), seed=seed + 1)
        tree = RTree.bulk_load(items, max_entries=6)
        probe = Point(rng.uniform(0, 1000), rng.uniform(0, 1000))
        expected = min(items, key=lambda pair: pair[0].distance_to_point(probe))[1]
        got = tree.nearest(probe, k=1)[0]
        got_box = items[got][0]
        expected_box = items[expected][0]
        assert got_box.distance_to_point(probe) == pytest.approx(
            expected_box.distance_to_point(probe)
        )
