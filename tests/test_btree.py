"""Unit and property tests for the B+-tree comparator (the paper's
temporal index, kept under ``tests/reference/``)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from reference.btree import BPlusTree


class TestBasics:
    def test_invalid_order(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_empty(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.get(5) is None
        assert 5 not in tree
        assert list(tree.range(0, 100)) == []
        assert tree.floor(5) is None

    def test_insert_get(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(i, i * 10)
        assert len(tree) == 20
        assert tree.get(7) == 70
        assert tree.get(100, default=-1) == -1
        assert 7 in tree and 100 not in tree

    def test_overwrite_does_not_grow(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert len(tree) == 1
        assert tree.get(1) == "b"

    def test_items_sorted(self):
        tree = BPlusTree(order=4)
        keys = [5, 3, 9, 1, 7, 2, 8]
        for k in keys:
            tree.insert(k, str(k))
        assert [k for k, _ in tree.items()] == sorted(keys)


class TestRange:
    def test_range_inclusive(self):
        tree = BPlusTree(order=4)
        for i in range(0, 100, 10):
            tree.insert(i, i)
        assert [k for k, _ in tree.range(20, 50)] == [20, 30, 40, 50]

    def test_range_empty_when_low_above_high(self):
        tree = BPlusTree(order=4)
        tree.insert(1, 1)
        assert list(tree.range(5, 2)) == []

    def test_range_spans_leaves(self):
        tree = BPlusTree(order=3)
        for i in range(50):
            tree.insert(i, i)
        assert [k for k, _ in tree.range(10, 40)] == list(range(10, 41))


class TestFloor:
    def test_floor_exact(self):
        tree = BPlusTree(order=4)
        for i in range(0, 100, 10):
            tree.insert(i, f"slot{i}")
        assert tree.floor(30) == (30, "slot30")

    def test_floor_between_keys(self):
        tree = BPlusTree(order=4)
        for i in range(0, 100, 10):
            tree.insert(i, i)
        assert tree.floor(34) == (30, 30)

    def test_floor_below_min(self):
        tree = BPlusTree(order=4)
        tree.insert(10, "x")
        assert tree.floor(5) is None

    def test_floor_above_max(self):
        tree = BPlusTree(order=4)
        for i in range(0, 50, 10):
            tree.insert(i, i)
        assert tree.floor(1000) == (40, 40)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=400),
           st.integers(3, 16))
    def test_matches_dict_semantics(self, keys, order):
        tree = BPlusTree(order=order)
        reference = {}
        for key in keys:
            tree.insert(key, key * 2)
            reference[key] = key * 2
        tree.check_invariants()
        assert len(tree) == len(reference)
        assert list(tree.items()) == sorted(reference.items())
        for probe in keys[:20]:
            assert tree.get(probe) == reference[probe]

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200),
           st.integers(0, 1000), st.integers(0, 1000))
    def test_range_matches_filter(self, keys, a, b):
        low, high = min(a, b), max(a, b)
        tree = BPlusTree(order=5)
        for key in keys:
            tree.insert(key, key)
        expected = sorted(k for k in set(keys) if low <= k <= high)
        assert [k for k, _ in tree.range(low, high)] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200),
           st.integers(-10, 1010))
    def test_floor_matches_max_leq(self, keys, probe):
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, key)
        eligible = [k for k in set(keys) if k <= probe]
        found = tree.floor(probe)
        if eligible:
            assert found == (max(eligible), max(eligible))
        else:
            assert found is None

    def test_large_sequential_and_random(self):
        for order, count in ((3, 500), (32, 2000)):
            tree = BPlusTree(order=order)
            keys = list(range(count))
            random.Random(1).shuffle(keys)
            for key in keys:
                tree.insert(key, key)
            tree.check_invariants()
            assert list(tree.keys()) == list(range(count))
