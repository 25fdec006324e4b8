"""Kernel-equivalence tests: CSR expansion vs the classic set/heap code.

The vectorized kernels of :mod:`repro.network.csr` must produce *identical*
covers, boundaries and seed assignments to the legacy implementations kept
in :mod:`reference.legacy_expansion`, on randomized networks, for all
three bounding strategies (SQMB / MQMB / reverse) and both Near and Far
kinds — that is the contract that lets the query algorithms swap the hot
path without changing any query result.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.con_index import ConnectionIndex
from reference.legacy_expansion import (
    mqmb_bounding_region_reference,
    reverse_bounding_region_reference,
    slot_aware_expansion_reference,
    sqmb_bounding_region_reference,
    time_bounded_expansion_reference,
)
from repro.core.mqmb import mqmb_bounding_region
from repro.core.reverse import reverse_bounding_region
from repro.core.sqmb import slot_aware_expansion, sqmb_bounding_region
from repro.network.expansion import time_bounded_expansion
from repro.network.generator import grid_city, random_planar_city, ring_radial_city
from repro.trajectory.model import (
    SECONDS_PER_DAY,
    MatchedTrajectory,
    SegmentVisit,
    day_time,
)
from repro.trajectory.store import TrajectoryDatabase


def make_network(kind: str, seed: int):
    if kind == "grid":
        return grid_city(rows=5, cols=5, spacing=500.0, primary_every=2, seed=seed)
    if kind == "ring":
        return ring_radial_city(rings=3, spokes=6, ring_spacing=600.0, seed=seed)
    return random_planar_city(num_nodes=40, extent=3000.0, seed=seed)


def random_database(network, seed: int, num_days: int = 3) -> TrajectoryDatabase:
    """Random walks with random speeds at several hours (incl. near midnight)."""
    rng = random.Random(seed)
    segment_ids = sorted(network.segment_ids())
    db = TrajectoryDatabase(num_taxis=8, num_days=num_days)
    trajectory_id = 0
    for date in range(num_days):
        for hour in (0, 7, 11, 23):
            for _ in range(3):
                current = rng.choice(segment_ids)
                t = day_time(hour) + rng.uniform(0, 600)
                visits = []
                for _ in range(rng.randint(5, 25)):
                    speed = rng.uniform(1.5, 14.0)
                    visits.append(
                        SegmentVisit(current, min(t, SECONDS_PER_DAY - 1), speed)
                    )
                    successors = network.successors(current)
                    if not successors:
                        break
                    current = rng.choice(successors)
                    t += network.segment(current).length / speed
                db.add(
                    MatchedTrajectory(trajectory_id, trajectory_id % 8, date, visits)
                )
                trajectory_id += 1
    db.finalize()
    return db


def assert_regions_equal(actual, reference):
    assert actual.cover == reference.cover
    assert actual.boundary == reference.boundary
    assert actual.seed_of == reference.seed_of


@pytest.mark.parametrize("topology", ["grid", "ring", "planar"])
class TestTimeBoundedExpansion:
    def test_matches_reference_random_costs(self, topology):
        network = make_network(topology, seed=11)
        rng = random.Random(42)
        segment_ids = sorted(network.segment_ids())
        cost_of = {
            sid: (float("inf") if rng.random() < 0.1 else rng.uniform(5.0, 120.0))
            for sid in segment_ids
        }
        for reverse in (False, True):
            for budget in (0.0, 90.0, 300.0, 1200.0):
                start = rng.choice(segment_ids)
                new = time_bounded_expansion(
                    network, start, budget, cost_of.__getitem__, reverse=reverse
                )
                old = time_bounded_expansion_reference(
                    network, start, budget, cost_of.__getitem__, reverse=reverse
                )
                assert new.arrival == old.arrival
                assert new.frontier == old.frontier

    def test_vector_and_callable_paths_agree(self, topology):
        network = make_network(topology, seed=5)
        csr = network.csr()
        rng = np.random.default_rng(7)
        vector = rng.uniform(10.0, 200.0, csr.n)
        vector[rng.random(csr.n) < 0.15] = np.inf
        start = int(csr.ids[0])
        via_vector = time_bounded_expansion(network, start, 600.0, vector)
        via_callable = time_bounded_expansion(
            network, start, 600.0,
            lambda sid: float(vector[csr.row_of(sid)]),
        )
        assert via_vector.arrival == via_callable.arrival
        assert via_vector.frontier == via_callable.frontier


@pytest.mark.parametrize("topology", ["grid", "ring", "planar"])
@pytest.mark.parametrize("seed", [1, 2])
class TestStrategyEquivalence:
    """All three bounding strategies, Near and Far, on randomized data."""

    @pytest.fixture()
    def con(self, topology, seed):
        network = make_network(topology, seed=seed)
        database = random_database(network, seed=seed * 13)
        return ConnectionIndex(network, database, delta_t_s=300)

    # Start times cover mid-day, an oddly aligned time, and the midnight
    # wrap (T + L crosses SECONDS_PER_DAY).
    START_TIMES = (day_time(11), 7 * 3600 + 123.0, SECONDS_PER_DAY - 400.0)

    def test_slot_aware_expansion_matches_reference(self, con, topology, seed):
        rng = random.Random(seed)
        segment_ids = sorted(con.network.segment_ids())
        for start_time in self.START_TIMES:
            seeds = sorted(rng.sample(segment_ids, 2))
            for kind in ("far", "near", "far_rev"):
                new = slot_aware_expansion(con, seeds, start_time, 900.0, kind)
                old = slot_aware_expansion_reference(
                    con, seeds, start_time, 900.0, kind
                )
                assert new == old

    def test_sqmb_matches_reference(self, con, topology, seed):
        rng = random.Random(seed + 100)
        segment_ids = sorted(con.network.segment_ids())
        for start_time in self.START_TIMES:
            start = rng.choice(segment_ids)
            for kind in ("far", "near"):
                for duration in (200.0, 900.0):
                    assert_regions_equal(
                        sqmb_bounding_region(con, start, start_time, duration, kind),
                        sqmb_bounding_region_reference(
                            con, start, start_time, duration, kind
                        ),
                    )

    def test_mqmb_matches_reference(self, con, topology, seed):
        rng = random.Random(seed + 200)
        segment_ids = sorted(con.network.segment_ids())
        for start_time in self.START_TIMES:
            seeds = rng.sample(segment_ids, 3)
            for kind in ("far", "near"):
                assert_regions_equal(
                    mqmb_bounding_region(con, seeds, start_time, 900.0, kind),
                    mqmb_bounding_region_reference(
                        con, seeds, start_time, 900.0, kind
                    ),
                )

    def test_reverse_matches_reference(self, con, topology, seed):
        rng = random.Random(seed + 300)
        segment_ids = sorted(con.network.segment_ids())
        for start_time in self.START_TIMES:
            target = rng.choice(segment_ids)
            for kind in ("far", "near"):
                assert_regions_equal(
                    reverse_bounding_region(con, target, start_time, 900.0, kind),
                    reverse_bounding_region_reference(
                        con, target, start_time, 900.0, kind
                    ),
                )


class TestForcedKernelPath:
    """The adaptive scalar fast path normally serves small test networks;
    force the pure vectorized kernel (and the scalar-to-kernel handoff)
    and re-check equivalence so both execution paths stay covered."""

    @pytest.fixture()
    def con(self):
        network = make_network("grid", seed=6)
        database = random_database(network, seed=21)
        return ConnectionIndex(network, database, delta_t_s=300)

    def test_pure_kernel_equivalence(self, con, monkeypatch):
        import repro.network.csr as csr_mod

        monkeypatch.setattr(csr_mod, "SCALAR_PATH_MAX_N", 0)
        segment_ids = sorted(con.network.segment_ids())
        start = segment_ids[len(segment_ids) // 2]
        T = float(day_time(11))
        for kind in ("far", "near"):
            assert_regions_equal(
                sqmb_bounding_region(con, start, T, 900.0, kind),
                sqmb_bounding_region_reference(con, start, T, 900.0, kind),
            )
        new = slot_aware_expansion(con, [start], T, 900.0, "far")
        old = slot_aware_expansion_reference(con, [start], T, 900.0, "far")
        assert new == old
        vector = con.travel_time_vector("far", con.slot_of(T))
        row_of = con.network.csr().row_of
        a = time_bounded_expansion(con.network, start, 900.0, vector)
        b = time_bounded_expansion_reference(
            con.network, start, 900.0, lambda sid: float(vector[row_of(sid)])
        )
        assert a.arrival == b.arrival
        assert a.frontier == b.frontier

    def test_escalation_handoff_equivalence(self, con, monkeypatch):
        """Covers larger than the escalation threshold cross the
        scalar-to-kernel handoff mid-expansion; force a tiny threshold so
        even small covers exercise it."""
        import repro.network.csr as csr_mod

        monkeypatch.setattr(csr_mod, "ESCALATE_COVER", 3)
        segment_ids = sorted(con.network.segment_ids())
        start = segment_ids[0]
        T = float(day_time(11))
        for kind in ("far", "near"):
            assert_regions_equal(
                sqmb_bounding_region(con, start, T, 1200.0, kind),
                sqmb_bounding_region_reference(con, start, T, 1200.0, kind),
            )
        new = slot_aware_expansion(con, [start], T, 1200.0, "far")
        old = slot_aware_expansion_reference(con, [start], T, 1200.0, "far")
        assert new == old
        vector = con.travel_time_vector("far", con.slot_of(T))
        row_of = con.network.csr().row_of

        def cost_of(segment_id):
            return float(vector[row_of(segment_id)])

        expected = time_bounded_expansion_reference(
            con.network, start, 1200.0, cost_of
        )
        assert len(expected.arrival) > 3  # the handoff really happened
        for travel_time in (vector, cost_of):
            actual = time_bounded_expansion(
                con.network, start, 1200.0, travel_time
            )
            assert actual.arrival == expected.arrival
            assert actual.frontier == expected.frontier

    @settings(max_examples=60, deadline=None)
    @given(
        topology=st.sampled_from(["grid", "ring", "planar"]),
        seed=st.integers(0, 10_000),
        budget=st.floats(0.0, 2500.0),
        reverse=st.booleans(),
        escalate_cover=st.sampled_from([0, 1, 3, 10, 256]),
        scalar_path_max_n=st.sampled_from([0, 4096]),
    )
    def test_one_window_expansion_is_the_reference_dijkstra(
        self, topology, seed, budget, reverse, escalate_cover, scalar_path_max_n
    ):
        """A fixed cost vector is the one-window case of the slotted
        expansion: whichever way the composition's two thresholds send
        it, its arrivals are the reference Dijkstra's, in both result
        shapes."""
        import repro.network.csr as csr_mod

        network = make_network(topology, seed=seed % 7)
        csr = network.csr()
        rng = np.random.default_rng(seed)
        vector = rng.uniform(5.0, 400.0, csr.n)
        vector[rng.random(csr.n) < 0.15] = np.inf
        start_row = int(rng.integers(csr.n))
        start = int(csr.ids[start_row])
        expected = time_bounded_expansion_reference(
            network, start, budget,
            lambda sid: float(vector[csr.row_of(sid)]), reverse=reverse,
        ).arrival
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(csr_mod, "ESCALATE_COVER", escalate_cover)
            patch.setattr(csr_mod, "SCALAR_PATH_MAX_N", scalar_path_max_n)
            dist = csr_mod.expand_slotted(
                csr, np.array([start_row]), budget, float("inf"),
                lambda phase: vector, reverse=reverse,
            )
            result = time_bounded_expansion(
                network, start, budget, vector, reverse=reverse
            )
        rows = np.flatnonzero(np.isfinite(dist))
        assert dict(zip(csr.ids[rows].tolist(), dist[rows].tolist())) == expected
        assert result.arrival == expected


class TestCSRView:
    def test_csr_matches_adjacency(self):
        network = grid_city(rows=4, cols=4, spacing=500.0, primary_every=0, seed=1)
        csr = network.csr()
        for row, segment_id in enumerate(csr.ids.tolist()):
            lo, hi = csr.indptr_out[row], csr.indptr_out[row + 1]
            succ = sorted(csr.ids_of(csr.indices_out[lo:hi]).tolist())
            assert succ == sorted(network.successors(segment_id))
            lo, hi = csr.indptr_in[row], csr.indptr_in[row + 1]
            pred = sorted(csr.ids_of(csr.indices_in[lo:hi]).tolist())
            assert pred == sorted(network.predecessors(segment_id))
            twin = network.segment(segment_id).twin_id
            twin_row = int(csr.twin_row[row])
            if twin is None:
                assert twin_row == -1
            else:
                assert int(csr.ids[twin_row]) == twin

    def test_csr_invalidated_on_topology_change(self):
        from repro.network.model import RoadSegment
        from repro.spatial.geometry import Point

        network = grid_city(rows=3, cols=3, spacing=500.0, primary_every=0, seed=2)
        before = network.csr()
        node_a = network.next_node_id()
        network.add_node(node_a, Point(9999.0, 9999.0))
        node_b = network.next_node_id()
        network.add_node(node_b, Point(9999.0, 9500.0))
        network.add_segment(
            RoadSegment(
                segment_id=network.next_segment_id(),
                start_node=node_a,
                end_node=node_b,
                shape=(Point(9999.0, 9999.0), Point(9999.0, 9500.0)),
            )
        )
        after = network.csr()
        assert after is not before
        assert after.n == before.n + 1

    def test_travel_time_caches_follow_topology_change(self):
        """Cached per-hour cost vectors are tied to the CSR view: adding a
        segment rebuilds them at the new row count instead of feeding a
        stale shorter vector into the kernel."""
        from repro.core.con_index import ConnectionIndex
        from repro.network.model import RoadSegment
        from repro.spatial.geometry import Point
        from repro.trajectory.store import TrajectoryDatabase

        network = grid_city(rows=3, cols=3, spacing=500.0, primary_every=0, seed=2)
        database = random_database(network, seed=5)
        con = ConnectionIndex(network, database, delta_t_s=300)
        before = con.travel_time_vector("far", 0)
        assert before.size == network.csr().n
        node_a = network.next_node_id()
        network.add_node(node_a, Point(9000.0, 9000.0))
        node_b = network.next_node_id()
        network.add_node(node_b, Point(9000.0, 8500.0))
        network.add_segment(
            RoadSegment(
                segment_id=network.next_segment_id(),
                start_node=node_a,
                end_node=node_b,
                shape=(Point(9000.0, 9000.0), Point(9000.0, 8500.0)),
            )
        )
        after = con.travel_time_vector("far", 0)
        assert after.size == network.csr().n == before.size + 1
        assert len(con.travel_time_list("far", 0)) == after.size
