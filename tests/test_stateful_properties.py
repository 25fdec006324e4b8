"""Stateful property-based tests (hypothesis RuleBasedStateMachine).

The spatial index structures back every query the system answers, so they
get the strongest testing: stateful machines that interleave operations
and continuously compare against a trivially correct model.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from reference.btree import BPlusTree
from reference.rtree import RTree
from repro.core.directory import DIRECTORY_COLUMNS, TimeListDirectory
from repro.spatial.geometry import BBox, Point
from repro.storage.disk import SimulatedDisk
from repro.storage.pagestore import BufferPool, PageStore

keys = st.integers(0, 500)
values = st.integers(-1000, 1000)
coords = st.floats(0, 1000, allow_nan=False, allow_infinity=False)


class BPlusTreeMachine(RuleBasedStateMachine):
    """B+-tree vs dict, with range and floor cross-checks."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model: dict[int, int] = {}

    @rule(key=keys, value=values)
    def insert(self, key, value):
        self.tree.insert(key, value)
        self.model[key] = value

    @rule(key=keys)
    def lookup(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule(low=keys, high=keys)
    def range_query(self, low, high):
        got = [(k, v) for k, v in self.tree.range(low, high)]
        expected = sorted(
            (k, v) for k, v in self.model.items() if low <= k <= high
        )
        assert got == expected

    @rule(probe=keys)
    def floor_query(self, probe):
        eligible = [k for k in self.model if k <= probe]
        found = self.tree.floor(probe)
        if eligible:
            best = max(eligible)
            assert found == (best, self.model[best])
        else:
            assert found is None

    @invariant()
    def structurally_sound(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)


class RTreeMachine(RuleBasedStateMachine):
    """R-tree vs list, with window query cross-checks."""

    def __init__(self):
        super().__init__()
        self.tree = RTree(max_entries=4)
        self.model: list[tuple[BBox, int]] = []
        self.counter = 0

    @rule(x=coords, y=coords, w=st.floats(0.1, 50), h=st.floats(0.1, 50))
    def insert(self, x, y, w, h):
        box = BBox(x, y, x + w, y + h)
        self.tree.insert(box, self.counter)
        self.model.append((box, self.counter))
        self.counter += 1

    @rule(x=coords, y=coords, w=st.floats(1, 400), h=st.floats(1, 400))
    def window_query(self, x, y, w, h):
        window = BBox(x, y, x + w, y + h)
        expected = sorted(i for box, i in self.model if box.intersects(window))
        assert sorted(self.tree.search(window)) == expected

    @rule(x=coords, y=coords)
    def nearest_query(self, x, y):
        if not self.model:
            return
        probe = Point(x, y)
        got = self.tree.nearest(probe, k=1)[0]
        best = min(self.model, key=lambda p: p[0].distance_to_point(probe))
        got_box = next(box for box, i in self.model if i == got)
        assert got_box.distance_to_point(probe) == pytest.approx(
            best[0].distance_to_point(probe)
        )

    @invariant()
    def structurally_sound(self):
        if self.model:
            self.tree.check_invariants()
        assert len(self.tree) == len(self.model)


class PageStoreMachine(RuleBasedStateMachine):
    """Append/read records through a small pool; payloads never corrupt."""

    def __init__(self):
        super().__init__()
        self.disk = SimulatedDisk(page_size=32)
        self.store = PageStore(self.disk)
        self.pool = BufferPool(self.disk, capacity=4)
        self.records: list[tuple[object, bytes]] = []

    @rule(payload=st.binary(min_size=0, max_size=120))
    def append(self, payload):
        pointer = self.store.append(payload)
        self.records.append((pointer, payload))

    @rule(data=st.data())
    def read_back(self, data):
        if not self.records:
            return
        index = data.draw(st.integers(0, len(self.records) - 1))
        pointer, payload = self.records[index]
        assert self.store.read(pointer, pool=self.pool) == payload

    @rule(data=st.data())
    def read_back_without_pool(self, data):
        if not self.records:
            return
        index = data.draw(st.integers(0, len(self.records) - 1))
        pointer, payload = self.records[index]
        assert self.store.read(pointer) == payload


directory_keys = st.tuples(st.integers(0, 6), st.integers(0, 3))


class DirectoryMachine(RuleBasedStateMachine):
    """The ST-Index directory vs ``dict[(segment, slot)] -> [pointer]``."""

    NUM_SLOTS, NUM_PAGES, PAGE_SIZE = 4, 10_000, 64

    def __init__(self):
        super().__init__()
        self.model: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        self.directory = TimeListDirectory(self.NUM_SLOTS)
        self.records = 0

    def new_rows(self, keys):
        """One fresh pointer per key, recorded in the model."""
        rows = []
        for key in keys:
            pointer = (self.records, 1 + self.records % 3, self.records % 7, 8)
            self.records += 1
            self.model.setdefault(key, []).append(pointer)
            rows.append((*key, *pointer))
        return rows

    def model_rows(self, segments=None):
        return [
            (*key, position, *pointer)
            for key in sorted(self.model)
            if segments is None or key[0] in segments
            for position, pointer in enumerate(self.model[key])
        ]

    @staticmethod
    def rows_of(directory):
        columns = directory.columns()
        assert tuple(columns) == DIRECTORY_COLUMNS
        return list(zip(*(column.tolist() for column in columns.values())))

    @initialize(keys=st.lists(directory_keys, max_size=20))
    def load_bulk_rows(self, keys):
        # Chains arrive scattered over the rows, positions in row order.
        seen: dict[tuple[int, int], int] = {}
        table = []
        for row in self.new_rows(keys):
            position = seen.get(row[:2], 0)
            seen[row[:2]] = position + 1
            table.append((*row[:2], position, *row[2:]))
        table = np.array(table, dtype=np.int64).reshape(-1, 7)
        self.directory = TimeListDirectory.from_columns(
            dict(zip(DIRECTORY_COLUMNS, table.T)),
            self.NUM_SLOTS, self.NUM_PAGES, self.PAGE_SIZE, "bulk rows",
        )

    @rule(keys=st.lists(directory_keys, max_size=6))
    def append(self, keys):
        self.directory.extend(
            self.new_rows(keys), self.NUM_PAGES, self.PAGE_SIZE, "appended rows"
        )

    @rule(
        segments=st.lists(st.integers(-1, 8), max_size=5),
        slots=st.lists(st.integers(0, 3), max_size=4),
        repeats=st.integers(0, 2),
    )
    def probe_wave(self, segments, slots, repeats):
        """The columnar probe vs the chains of the model: absent keys, a
        segment named more than once in one wave, chains split between
        adopted rows and appended overflow."""
        segments = segments + segments[:repeats]
        pairs, rows = self.directory.probe(segments, slots)
        expected = [
            (pair, pointer)
            for pair, key in enumerate(
                (segment, slot) for segment in segments for slot in slots
            )
            for pointer in self.model.get(key, ())
        ]
        assert pairs.dtype == rows.dtype == np.int64
        assert rows.shape == (len(expected), 4)
        assert list(zip(pairs.tolist(), map(tuple, rows.tolist()))) == expected

    @rule()
    def merge(self):
        """Fold the appended overflow into the sorted rows, as an export
        does; probes afterwards must see the same chains."""
        self.directory.columns()

    @rule()
    def export_and_reload(self):
        rows = self.model_rows()
        assert self.rows_of(self.directory) == rows
        pages = {page for row in rows for page in range(row[3], row[3] + row[4])}
        assert self.directory.page_ids().tolist() == sorted(pages)
        self.directory = TimeListDirectory.from_columns(
            self.directory.columns(),
            self.NUM_SLOTS, self.NUM_PAGES, self.PAGE_SIZE, "exported rows",
        )
        assert self.rows_of(self.directory) == self.model_rows()

    @rule()
    def record_bytes(self):
        segment, volume = self.directory.record_bytes()
        totals: dict[int, int] = {}
        for seg, weight in zip(segment.tolist(), volume.tolist()):
            totals[seg] = totals.get(seg, 0) + weight
        expected: dict[int, int] = {}
        for (seg, _), chain in self.model.items():
            expected[seg] = expected.get(seg, 0) + sum(p[3] for p in chain)
        assert totals == expected

    @invariant()
    def counts_distinct_keys(self):
        assert len(self.directory) == len(self.model)


TestBPlusTreeStateful = BPlusTreeMachine.TestCase
TestBPlusTreeStateful.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)
TestRTreeStateful = RTreeMachine.TestCase
TestRTreeStateful.settings = settings(
    max_examples=10, stateful_step_count=30, deadline=None
)
TestDirectoryStateful = DirectoryMachine.TestCase
TestDirectoryStateful.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestPageStoreStateful = PageStoreMachine.TestCase
TestPageStoreStateful.settings = settings(
    max_examples=15, stateful_step_count=40, deadline=None
)
