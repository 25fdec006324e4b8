"""Tests for SQMB, TBS, MQMB and the baselines on the shared test dataset.

These exercise the algorithms through the engine against the session-scoped
synthetic dataset, checking both structural invariants (covers nest, bounds
bracket the result) and agreement between the paper's algorithm and the
exhaustive baseline.
"""

import pytest

from benchmarks.client_protocol import m_query, s_query
from repro.core.mqmb import mqmb_bounding_region
from repro.core.query import MQuery, SQuery
from repro.core.sqmb import close_under_twins, sqmb_bounding_region
from repro.spatial.geometry import Point
from repro.trajectory.model import day_time
from reference.min_speed_index import MinSpeedConnectionIndex

CENTER = Point(0.0, 0.0)
T = day_time(11)


@pytest.fixture(scope="module")
def con(engine):
    return engine.con_index(300)


@pytest.fixture(scope="module")
def r0(engine):
    return engine.st_index(300).find_start_segment(CENTER)


@pytest.fixture(scope="module")
def near_con(engine):
    """The paper's Near list: Bmin is a bounding region built on it."""
    return MinSpeedConnectionIndex(engine.network, engine.database, 300)


class TestSQMB:
    def test_cover_contains_both_carriageways_of_start(self, engine, con, r0):
        region = sqmb_bounding_region(con, r0, T, 600)
        assert r0 in region.cover
        twin = engine.network.segment(r0).twin_id
        if twin is not None:
            assert twin in region.cover

    def test_cover_grows_with_duration(self, con, r0):
        small = sqmb_bounding_region(con, r0, T, 300)
        large = sqmb_bounding_region(con, r0, T, 1200)
        assert small.cover <= large.cover
        assert len(large.cover) > len(small.cover)

    def test_near_within_far(self, con, near_con, r0):
        """Bmin lies inside Bmax, which is why Bmax alone is the ring."""
        strictly_inside = 0
        for start_time in (T, day_time(8), day_time(23) + 1500):
            for duration in (60, 300, 600, 900):
                near = sqmb_bounding_region(near_con, r0, start_time, duration)
                far = sqmb_bounding_region(con, r0, start_time, duration)
                assert near.cover <= far.cover
                strictly_inside += near.cover < far.cover
        assert strictly_inside  # the two speed models do differ here

    def test_sub_delta_duration_takes_one_hop(self, con, r0):
        tiny = sqmb_bounding_region(con, r0, T, 60)
        one_hop = sqmb_bounding_region(con, r0, T, 300)
        assert tiny.cover == one_hop.cover

    def test_twin_closure_helper(self, engine):
        network = engine.network
        seg = next(iter(network.segment_ids()))
        cover = {seg}
        close_under_twins(network, cover)
        twin = network.segment(seg).twin_id
        if twin is not None:
            assert twin in cover


class TestMQMB:
    def test_empty_seeds_rejected(self, con):
        with pytest.raises(ValueError):
            mqmb_bounding_region(con, [], T, 600)

    def test_single_seed_matches_sqmb(self, con, r0):
        single = sqmb_bounding_region(con, r0, T, 900)
        multi = mqmb_bounding_region(con, [r0], T, 900)
        assert multi.cover == single.cover

    def test_union_covers_each_seed_region(self, engine, con, r0):
        st = engine.st_index(300)
        other = st.find_start_segment(Point(1500.0, 1000.0))
        merged = mqmb_bounding_region(con, [r0, other], T, 600)
        for seed in (r0, other):
            assert seed in merged.cover

    def test_cover_grows_with_duration(self, engine, con, r0):
        other = engine.st_index(300).find_start_segment(Point(1500.0, 1000.0))
        small = mqmb_bounding_region(con, [r0, other], T, 300)
        large = mqmb_bounding_region(con, [r0, other], T, 1200)
        assert small.cover <= large.cover
        assert len(large.cover) > len(small.cover)

    def test_near_within_far(self, engine, con, near_con, r0):
        other = engine.st_index(300).find_start_segment(Point(1500.0, 1000.0))
        for duration in (60, 300, 600, 900):
            near = mqmb_bounding_region(near_con, [r0, other], T, duration)
            far = mqmb_bounding_region(con, [r0, other], T, duration)
            assert near.cover <= far.cover

    def test_duplicate_seeds_deduped(self, con, r0):
        merged = mqmb_bounding_region(con, [r0, r0, r0], T, 600)
        single = mqmb_bounding_region(con, [r0], T, 600)
        assert merged.cover == single.cover


class TestSQueryAgreement:
    @pytest.mark.parametrize("duration_s", [300, 600, 900])
    def test_sqmb_tbs_matches_es(self, engine, duration_s):
        """TBS returns exactly what ES finds."""
        query = SQuery(CENTER, T, duration_s, 0.2)
        ours = s_query(engine, query, algorithm="sqmb_tbs")
        baseline = s_query(engine, query, algorithm="es")
        if not (ours.segments | baseline.segments):
            pytest.skip("empty region on the small dataset")
        assert ours.segments == baseline.segments

    @pytest.mark.parametrize("prob", [0.2, 0.5, 0.8])
    def test_result_within_max_bound(self, engine, prob):
        query = SQuery(CENTER, T, 600, prob)
        result = s_query(engine, query)
        if result.max_region is not None:
            assert result.segments <= result.max_region.cover

    def test_region_shrinks_with_probability(self, engine):
        low = s_query(engine, SQuery(CENTER, T, 600, 0.2))
        high = s_query(engine, SQuery(CENTER, T, 600, 0.9))
        assert len(high.segments) <= len(low.segments)

    def test_region_grows_with_duration(self, engine):
        short = s_query(engine, SQuery(CENTER, T, 300, 0.2))
        long = s_query(engine, SQuery(CENTER, T, 1500, 0.2))
        assert len(long.segments) >= len(short.segments)

    def test_passed_probabilities_meet_threshold(self, engine):
        query = SQuery(CENTER, T, 600, 0.4)
        result = s_query(engine, query, algorithm="es")
        for segment in result.segments:
            assert result.probabilities[segment] >= 0.4

    def test_es_pruned_matches_es_region(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        full = s_query(engine, query, algorithm="es")
        pruned = s_query(engine, query, algorithm="es_pruned")
        # The pruned baseline may miss regions beyond zero-support gaps but
        # must otherwise agree; on this dense dataset they should be equal.
        assert pruned.segments == full.segments

    def test_es_pruned_cheaper_than_es(self, engine):
        query = SQuery(CENTER, T, 600, 0.2)
        full = s_query(engine, query, algorithm="es")
        pruned = s_query(engine, query, algorithm="es_pruned")
        assert (
            pruned.cost.probability_checks <= full.cost.probability_checks
        )


class TestMQueryAgreement:
    LOCATIONS = (CENTER, Point(1200.0, 800.0), Point(-1000.0, -600.0))

    def test_mqmb_matches_naive_union(self, engine):
        query = MQuery(self.LOCATIONS, T, 600, 0.2)
        ours = m_query(engine, query, algorithm="mqmb_tbs")
        naive = m_query(engine, query, algorithm="sqmb_tbs_each")
        union = ours.segments | naive.segments
        if not union:
            pytest.skip("empty region")
        jaccard = len(ours.segments & naive.segments) / len(union)
        assert jaccard >= 0.9

    def test_m_query_single_location_matches_s_query(self, engine):
        s_result = s_query(engine, SQuery(CENTER, T, 600, 0.2))
        m_result = m_query(engine, MQuery((CENTER,), T, 600, 0.2))
        assert m_result.segments == s_result.segments

    def test_m_query_superset_of_any_single(self, engine):
        m_result = m_query(engine, MQuery(self.LOCATIONS, T, 600, 0.2))
        s_result = s_query(engine, SQuery(CENTER, T, 600, 0.2))
        missing = s_result.segments - m_result.segments
        # The union must essentially contain the single-seed region (tiny
        # boundary discrepancies from seed attribution are tolerated).
        assert len(missing) <= max(2, len(s_result.segments) // 10)

    def test_es_each_is_most_expensive(self, engine):
        query = MQuery(self.LOCATIONS, T, 600, 0.2)
        mqmb = m_query(engine, query, algorithm="mqmb_tbs")
        es_each = m_query(engine, query, algorithm="es_each")
        assert mqmb.cost.probability_checks < es_each.cost.probability_checks
