"""The Δt day clock (:mod:`repro.core.slots`) against its definitions.

A window plan is checked three ways: against the midnight split and the
brute-force set of slots each part overlaps, against the paper's temporal
B+-tree (``tests/reference/btree.py``, which the ST-Index used to build)
outside the band its ``hi - 1e-9`` range edge got wrong, and through the
indexes, the planner and the client that read it.  The one Δt check is
pinned at every entry point that takes a Δt from outside.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.btree import BPlusTree
from reference.legacy_probability import trajectories_in_window
from repro.api.client import ReachabilityClient
from repro.api.envelope import QueryOptions
from repro.core import slots
from repro.core.con_index import ConnectionIndex
from repro.core.engine import ReachabilityEngine
from repro.core.planner import plan_query
from repro.core.query import SQuery
from repro.core.st_index import STIndex
from repro.io.persist import PersistFormatError, open_store, save_store
from repro.network.generator import grid_city
from repro.spatial.geometry import Point
from repro.trajectory.model import SECONDS_PER_DAY as DAY
from repro.trajectory.model import MatchedTrajectory, SegmentVisit
from repro.trajectory.store import TrajectoryDatabase

NAMED_DELTA_TS = (1, 7, 60, 300, 301, 3600, 86399, 86400)
delta_ts = st.sampled_from(NAMED_DELTA_TS) | st.integers(1, DAY)
NETWORK = grid_city(rows=2, cols=2, spacing=500.0, primary_every=0, seed=1)


def one_visit_database() -> TrajectoryDatabase:
    """Trajectory 0 of date 0 on segment 5 at second 600 (slot 2 at Δt 300)."""
    database = TrajectoryDatabase(num_taxis=1, num_days=1)
    database.add(MatchedTrajectory(0, 0, 0, [SegmentVisit(5, 600.0, 5.0)]))
    database.finalize()
    return database


DATABASE = one_visit_database()


@functools.lru_cache(maxsize=16)
def temporal_tree(delta_t: int) -> BPlusTree:
    """The ST-Index's former temporal index: slot start second -> slot."""
    tree = BPlusTree(order=64)
    for slot in range(slots.slots_per_day(delta_t)):
        tree.insert(slot * delta_t, slot)
    return tree


def tree_slot_of(time_s: float, delta_t: int) -> int:
    return temporal_tree(delta_t).floor(min(max(0.0, time_s), DAY - 1))[1]


def tree_plan(parts, delta_t: int):
    """The plan the B+-tree gave for the same parts (``IndexError`` when
    its range came back empty)."""
    plan = []
    for lo, hi in parts:
        first_start = tree_slot_of(lo, delta_t) * delta_t
        found = [slot for _, slot in temporal_tree(delta_t).range(first_start, hi - 1e-9)]
        plan.append((lo, hi, found[0], found[-1]))
    return tuple(plan)


def midnight_split(start_s: float, end_s: float) -> list[tuple[float, float]]:
    """``[start_s, end_s)`` folded onto the day: the definition."""
    span = end_s - start_s
    if span <= 0:
        return []
    if span >= DAY:
        return [(0, DAY)]
    lo = start_s % DAY
    hi = lo + span
    return [(lo, min(hi, DAY))] + ([(0, hi - DAY)] if hi > DAY else [])


def overlapped_slots(lo: float, hi: float, delta_t: int) -> list[int]:
    """Every slot ``s`` with ``s·Δt < hi`` and ``(s+1)·Δt > lo``."""
    starts = np.arange(slots.slots_per_day(delta_t), dtype=np.int64) * delta_t
    return np.flatnonzero((starts < hi) & (starts + delta_t > lo)).tolist()


@st.composite
def windows(draw):
    delta_t = draw(delta_ts)
    slot = draw(st.integers(-slots.slots_per_day(delta_t), 2 * slots.slots_per_day(delta_t)))
    start = draw(
        st.floats(-DAY, 2 * DAY, exclude_max=True)
        | st.sampled_from((0.0, 1e-10, -1e-10, 0.5, -0.5)).map(
            lambda offset: slot * delta_t + offset
        )
    )
    span = draw(
        st.sampled_from((0.0, 1e-10, 5e-10))
        | st.floats(0.0, 1e-9, exclude_max=True)
        | st.integers(1, 3).map(lambda k: float(k * delta_t))
        | st.floats(0.0, 3 * DAY)
        | st.floats(DAY, 3 * DAY)
    )
    return delta_t, start, start + span


class TestWindowPlan:
    @settings(max_examples=400, deadline=None)
    @given(windows())
    def test_plan_is_the_definition(self, window):
        delta_t, start, end = window
        plan = slots.window_plan(start, end, delta_t)
        assert [(lo, hi) for lo, hi, _, _ in plan] == midnight_split(start, end)
        for lo, hi, first, last in plan:
            assert list(range(first, last + 1)) == overlapped_slots(lo, hi, delta_t)

    @settings(max_examples=400, deadline=None)
    @given(windows())
    def test_plan_matches_the_btree_outside_its_band(self, window):
        """The tree read ``hi - 1e-9`` as the last second of a part: an end
        in ``(k·Δt, k·Δt + 1e-9]`` lost slot ``k``, and a part whose range
        came back empty raised.  A start within half an ulp below midnight
        folds to ``lo == DAY``, an empty part the tree's clamp gave slot
        ``num_slots - 1``.  Everywhere else the two agree."""
        delta_t, start, end = window
        plan = slots.window_plan(start, end, delta_t)
        parts = [(lo, hi) for lo, hi, _, _ in plan]
        if any(0 < hi % delta_t <= 1e-9 or lo == DAY for lo, hi in parts):
            return
        try:
            expected = tree_plan(parts, delta_t)
        except IndexError:
            assert any(first > last for _, _, first, last in plan)
            return
        assert plan == expected

    @settings(max_examples=300, deadline=None)
    @given(delta_ts, st.floats(-DAY, 2 * DAY, exclude_max=True))
    def test_slot_of_is_the_clamped_btree_floor(self, delta_t, time_s):
        assert slots.slot_of(time_s, delta_t) == tree_slot_of(time_s, delta_t)

    @settings(max_examples=200, deadline=None)
    @given(delta_ts, st.floats(-2 * DAY, 3 * DAY))
    def test_con_index_slot_wraps_onto_the_clock(self, delta_t, time_s):
        con = ConnectionIndex(NETWORK, DATABASE, delta_t)
        wrapped = slots.slot_of(time_s % DAY, delta_t)
        assert con.slot_of(time_s) == wrapped
        assert wrapped == min(int((time_s % DAY) // delta_t), con.num_slots - 1)


class TestWindowEdges:
    """Windows the B+-tree's ``1e-9`` edge broke."""

    def test_sub_nanosecond_window_has_a_plan(self):
        assert slots.window_plan(300, 300 + 1e-10, 300) == ((300, 300 + 1e-10, 1, 1),)

    def test_end_just_past_a_slot_start_keeps_that_slot(self):
        index = STIndex(NETWORK, 300)
        index.build(DATABASE)
        assert [(first, last) for _, _, first, last in index.window_plan(500, 600 + 1e-10)] == [
            (1, 2)
        ]
        assert trajectories_in_window(index, 5, 500, 600 + 1e-10) == {0: {0}}

    def test_sub_nanosecond_query_is_answered(self, engine):
        """Any positive duration passes the envelope, so it must get an
        answer; the tree's range for ``[28800, 28800 + 1e-10)`` was empty."""
        response = ReachabilityClient(engine).send(SQuery(Point(0.0, 0.0), 28800.0, 1e-10, 0.2))
        assert response.plan.start_slot == 96
        assert isinstance(response.segments, set)


BAD_DELTA_TS = [300.5, True, False, 0, -300, DAY + 1, 100_000, "300", np.float64(300.0)]


def _store_with_delta_t(delta_t, tmp_path):
    store = save_store(ReachabilityEngine(NETWORK, DATABASE), tmp_path / "store", 300)
    config = json.loads((store / "store.json").read_text())
    (store / "store.json").write_text(json.dumps({**config, "delta_t_s": delta_t}))
    return open_store(store)


ENTRY_POINTS = {
    "envelope": (lambda delta_t, _: QueryOptions(delta_t_s=delta_t), ValueError, "granularity"),
    "planner": (
        lambda delta_t, _: plan_query(
            "s", SQuery(Point(0.0, 0.0), 0.0, 600.0, 0.5), "sqmb_tbs", delta_t
        ),
        ValueError,
        "granularity",
    ),
    "st_index": (lambda delta_t, _: STIndex(NETWORK, delta_t), ValueError, "granularity"),
    "con_index": (
        lambda delta_t, _: ConnectionIndex(NETWORK, DATABASE, delta_t),
        ValueError,
        "granularity",
    ),
    "store.json": (_store_with_delta_t, PersistFormatError, "store.json delta_t_s is"),
}


class TestDeltaTCheck:
    @pytest.mark.parametrize("delta_t", BAD_DELTA_TS, ids=repr)
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_bad_delta_t_is_a_typed_error(self, entry, delta_t, tmp_path):
        build, error, message = ENTRY_POINTS[entry]
        with pytest.raises(error, match=message):
            build(delta_t, tmp_path)

    @pytest.mark.parametrize("delta_t", [np.int64(300), np.int32(300), np.uint16(300)])
    def test_numpy_integers_pass_as_ints(self, delta_t):
        assert QueryOptions(delta_t_s=delta_t).delta_t_s == 300
        plan = plan_query("s", SQuery(Point(0.0, 0.0), 0.0, 600.0, 0.5), "sqmb_tbs", delta_t)
        for checked in (plan.delta_t_s, STIndex(NETWORK, delta_t).delta_t_s):
            assert checked == 300 and type(checked) is int
