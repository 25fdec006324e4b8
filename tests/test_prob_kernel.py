"""Columnar probability-kernel equivalence tests.

The vectorized Eq. 3.1 path (:mod:`repro.core.prob_kernel`, the ring-probe
TBS and the wave-based ES) must produce *identical* probabilities, result regions, examined
counts, ``checks`` counters and page-read accounting to the scalar
reference kept in :mod:`reference.legacy_probability`, on randomized
datasets — twin merging, midnight-crossing windows, sub-slot durations,
multi-seed m-queries and all four executor families included.
That is the contract that lets the hot path swap without changing any
query result or any cost the paper's evaluation reports.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from test_expansion_kernel import make_network, random_database

from benchmarks.client_protocol import m_query, r_query, run_batch, s_query
from repro.core.engine import ReachabilityEngine
from reference.st_index_build import decode_time_list, encode_time_list, entry_keys
from reference.legacy_probability import (
    LegacyProbabilityEstimator,
    LegacyReverseProbabilityEstimator,
    exhaustive_search_reference,
    legacy_probability_path,
    trace_back_search_reference,
    trajectories_in_window,
)
from repro.core.baseline import exhaustive_search, exhaustive_search_pruned
from repro.core.probability import ProbabilityEstimator
from repro.core.query import MQuery, SQuery
from repro.core.reverse import ReverseProbabilityEstimator
from repro.core.st_index import STIndex, decode_time_list_columns
from repro.core.tbs import trace_back_search
from repro.spatial.geometry import Point
from repro.storage.serialization import SerializationError
from repro.trajectory.model import SECONDS_PER_DAY, day_time

# Mid-day, sub-slot duration, and a window wrapping past midnight.
WINDOWS = (
    (float(day_time(11)), 900.0),
    (float(day_time(7)) + 123.0, 200.0),
    (SECONDS_PER_DAY - 400.0, 900.0),
)


def build_index(network, database, delta_t_s: int = 300) -> STIndex:
    index = STIndex(network, delta_t_s)
    index.build(database)
    return index


class TestColumnarDecode:
    def test_columns_match_dict_decode(self):
        per_date = {
            3: [(1, 10), (2, 20), (2, 25)],
            7: [(5, 100)],
            9: [],
        }
        payload = encode_time_list(per_date)
        columns = decode_time_list_columns(payload)
        reference = decode_time_list(payload)
        expected = [
            ((date << 32) | tid, second)
            for date in sorted(reference)
            for tid, second in reference[date]
        ]
        assert list(zip(columns.keys.tolist(), columns.offsets.tolist())) \
            == expected

    def test_empty_and_malformed(self):
        assert decode_time_list_columns(encode_time_list({})).num_visits == 0
        with pytest.raises(SerializationError):
            decode_time_list_columns(b"\x01\x00\x00")
        payload = encode_time_list({1: [(2, 10), (3, 20)]})
        with pytest.raises(SerializationError):
            decode_time_list_columns(payload[:-4])
        with pytest.raises(SerializationError):
            decode_time_list_columns(payload + b"\x00\x00\x00\x00")


@pytest.mark.parametrize("topology", ["grid", "ring", "planar"])
@pytest.mark.parametrize("seed", [1, 2])
class TestEstimatorEquivalence:
    """Kernel vs scalar estimator on randomized trajectory data."""

    @pytest.fixture()
    def setting(self, topology, seed):
        network = make_network(topology, seed=seed)
        database = random_database(network, seed=seed * 17)
        return network, database, build_index(network, database)

    def test_forward_probabilities_match(self, setting, topology, seed):
        network, database, index = setting
        rng = random.Random(seed)
        segment_ids = sorted(network.segment_ids())
        for start_time, duration in WINDOWS:
            start = rng.choice(segment_ids)
            new = ProbabilityEstimator(
                index, start, start_time, duration, database.num_days
            )
            old = LegacyProbabilityEstimator(
                index, start, start_time, duration, database.num_days
            )
            assert new.start_days == old.start_days
            for segment_id in segment_ids:
                assert new.probability(segment_id) == old.probability(
                    segment_id
                ), (start_time, duration, segment_id)
            assert new.checks == old.checks

    def test_reached_days_is_m_star(self, setting, topology, seed):
        """``reached_days`` is the numerator of ``probability`` as a set:
        same days for both carriageways, none (and no read) when nothing
        left the start road in the departure window."""
        network, database, index = setting
        rng = random.Random(seed + 25)
        segment_ids = sorted(network.segment_ids())
        for start_time, duration in WINDOWS:
            start = rng.choice(segment_ids)
            new = ProbabilityEstimator(
                index, start, start_time, duration, database.num_days
            )
            old = LegacyProbabilityEstimator(
                index, start, start_time, duration, database.num_days
            )
            for segment_id in segment_ids:
                days = new.reached_days(segment_id)
                assert days == sorted(set(days))
                assert len(days) / database.num_days == old.probability(
                    segment_id
                ), (start_time, duration, segment_id)
                twin = network.segment(segment_id).twin_id
                if twin is not None:
                    assert new.reached_days(twin) == days
        dead = ProbabilityEstimator(
            index, segment_ids[0], float(day_time(17)), 900.0, database.num_days
        )
        assert dead.start_days == 0
        reads = dead.batched_record_reads
        assert dead.reached_days(segment_ids[1]) == []
        assert dead.batched_record_reads == reads

    def test_reverse_probabilities_match(self, setting, topology, seed):
        network, database, index = setting
        rng = random.Random(seed + 50)
        segment_ids = sorted(network.segment_ids())
        for start_time, duration in WINDOWS:
            target = rng.choice(segment_ids)
            new = ReverseProbabilityEstimator(
                index, target, start_time, duration, database.num_days
            )
            old = LegacyReverseProbabilityEstimator(
                index, target, start_time, duration, database.num_days
            )
            assert new.start_days == old.start_days
            for segment_id in segment_ids:
                assert new.probability(segment_id) == old.probability(
                    segment_id
                )
            assert new.checks == old.checks

    def test_batch_matches_scalar_calls(self, setting, topology, seed):
        """One probabilities() call == per-id probability() calls, with
        duplicate ids and twin pairs in the batch."""
        network, database, index = setting
        rng = random.Random(seed + 99)
        segment_ids = sorted(network.segment_ids())
        start_time, duration = WINDOWS[0]
        start = rng.choice(segment_ids)
        batch: list[int] = []
        for segment_id in rng.sample(segment_ids, min(20, len(segment_ids))):
            batch.append(segment_id)
            twin = network.segment(segment_id).twin_id
            if twin is not None and network.has_segment(twin):
                batch.append(twin)  # twin pair in one wave
        batch.extend(batch[:5])  # duplicates
        batched = ProbabilityEstimator(
            index, start, start_time, duration, database.num_days
        )
        scalar = ProbabilityEstimator(
            index, start, start_time, duration, database.num_days
        )
        values = batched.probabilities(batch)
        assert values == [scalar.probability(s) for s in batch]
        assert batched.checks == scalar.checks

    def test_forced_kernel_and_scalar_paths_agree(
        self, setting, topology, seed, monkeypatch
    ):
        """The threshold only sorts evaluations into the kernel and scalar
        counters; the values are the same on either side of it."""
        import repro.core.prob_kernel as kernel_mod

        network, database, index = setting
        segment_ids = sorted(network.segment_ids())
        start = segment_ids[len(segment_ids) // 2]
        start_time, duration = WINDOWS[0]

        monkeypatch.setattr(kernel_mod, "SCALAR_EVAL_MAX_VISITS", 0)
        forced_kernel = ProbabilityEstimator(
            index, start, start_time, duration, database.num_days
        )
        kernel_values = forced_kernel.probabilities(segment_ids)
        assert forced_kernel.scalar_evals == 0

        monkeypatch.setattr(kernel_mod, "SCALAR_EVAL_MAX_VISITS", 10**9)
        forced_scalar = ProbabilityEstimator(
            index, start, start_time, duration, database.num_days
        )
        scalar_values = forced_scalar.probabilities(segment_ids)
        assert forced_scalar.kernel_evals == 0
        assert kernel_values == scalar_values


@pytest.mark.parametrize("topology", ["grid", "planar"])
@pytest.mark.parametrize("seed", [3, 4])
class TestSearchEquivalence:
    """The columnar TBS/ES vs the scalar one-segment-at-a-time references."""

    @pytest.fixture()
    def engine(self, topology, seed):
        network = make_network(topology, seed=seed)
        database = random_database(network, seed=seed * 23)
        return ReachabilityEngine(network, database)

    def assert_same_search(self, a, b):
        assert a.region == b.region
        assert a.failed == b.failed
        assert a.probabilities == b.probabilities
        assert a.examined == b.examined

    def test_trace_back_waves_match_reference(self, engine, topology, seed):
        from repro.core.executors import ExecutionContext

        st = engine.st_index(300)
        database = engine.database
        rng = random.Random(seed)
        segment_ids = sorted(engine.network.segment_ids())
        context = ExecutionContext(engine, 300)
        for start_time, duration in WINDOWS:
            start = rng.choice(segment_ids)
            maximum = context.bounding_region(
                "sqmb", (start,), start_time, duration, "far"
            )
            minimum = context.bounding_region(
                "sqmb", (start,), start_time, duration, "near"
            )
            for prob in (0.05, 0.3):
                new = trace_back_search(
                    engine.network,
                    {start: ProbabilityEstimator(
                        st, start, start_time, duration, database.num_days
                    )},
                    prob, maximum, minimum,
                )
                old = trace_back_search_reference(
                    engine.network,
                    {start: LegacyProbabilityEstimator(
                        st, start, start_time, duration, database.num_days
                    )},
                    prob, maximum, minimum,
                )
                self.assert_same_search(new, old)

    def test_dead_seed_waves_match_reference(self, engine, topology, seed):
        """A seed with an empty fixed side — alone, before a live seed and
        after it — vouches for nothing and reads nothing: regions, values,
        every seed's counters and the charged page ids equal the reference's,
        at Prob 0 (where its 0 passes) and above."""
        from repro.core.executors import ExecutionContext
        from test_wave_accounting import PoolSpy

        st, (start_time, duration) = engine.st_index(300), WINDOWS[0]
        context = ExecutionContext(engine, 300)

        def make(cls, segment_id):
            return cls(st, segment_id, start_time, duration, engine.database.num_days)

        by_days = {}
        for segment_id in sorted(engine.network.segment_ids()):
            by_days.setdefault(make(ProbabilityEstimator, segment_id).start_days > 0, segment_id)
        dead, live = by_days[False], by_days[True]
        for seeds in ((dead,), (dead, live), (live, dead)):
            strategy = "sqmb" if len(seeds) == 1 else "mqmb"
            regions = [
                context.bounding_region(strategy, seeds, start_time, duration, kind)
                for kind in ("far", "near")
            ]
            for prob in (0.0, 0.1):
                runs = []
                for search, cls in (
                    (trace_back_search, ProbabilityEstimator),
                    (trace_back_search_reference, LegacyProbabilityEstimator),
                ):
                    estimators = {s: make(cls, s) for s in seeds}
                    st.pool.invalidate()
                    spy = PoolSpy(st.pool)
                    try:
                        result = search(engine.network, estimators, prob, *regions)
                    finally:
                        spy.close()
                    counters = [(e.checks, e._cache) for e in estimators.values()]
                    runs.append((result, counters, spy.ids))
                (new, new_counters, new_ids), (old, old_counters, old_ids) = runs
                self.assert_same_search(new, old)
                assert new.examined
                assert new_counters == old_counters and new_ids == old_ids
                if seeds == (dead,):  # examined, counted, never read
                    assert new_counters[0][0] and new_ids == []

    def test_exhaustive_waves_match_reference(self, engine, topology, seed):
        st = engine.st_index(300)
        database = engine.database
        rng = random.Random(seed + 7)
        segment_ids = sorted(engine.network.segment_ids())
        start = rng.choice(segment_ids)
        start_time, duration = WINDOWS[0]
        from reference.legacy_probability import (
            exhaustive_search_pruned_reference,
        )

        for search, reference in (
            (exhaustive_search, exhaustive_search_reference),
            (exhaustive_search_pruned, exhaustive_search_pruned_reference),
        ):
            new = search(
                engine.network,
                ProbabilityEstimator(
                    st, start, start_time, duration, database.num_days
                ),
                0.1,
            )
            old = reference(
                engine.network,
                LegacyProbabilityEstimator(
                    st, start, start_time, duration, database.num_days
                ),
                0.1,
            )
            self.assert_same_search(new, old)

    def test_multi_seed_fallback_equivalence(self, engine, topology, seed):
        """m-query TBS with several live seeds: valuing each segment by its best
        seed, each road read once, must reproduce the scalar result exactly."""
        rng = random.Random(seed + 31)
        segment_ids = sorted(engine.network.segment_ids())
        locations = tuple(
            engine.network.segment(s).midpoint
            for s in rng.sample(segment_ids, 3)
        )
        query = MQuery(locations, float(day_time(11)), 900.0, 0.1)
        live = m_query(engine, query, algorithm="mqmb_tbs")
        with legacy_probability_path():
            legacy = m_query(engine, query, algorithm="mqmb_tbs")
        assert live.segments == legacy.segments
        assert live.probabilities == legacy.probabilities
        assert live.cost.probability_checks == legacy.cost.probability_checks
        assert live.cost.segments_expanded == legacy.cost.segments_expanded
        assert live.cost.io.page_reads == legacy.cost.io.page_reads


class TestEndToEndAccounting:
    """The same query, columnar vs scalar path, on one engine: identical
    results *and* identical charged I/O."""

    CASES = (
        ("s", "sqmb_tbs"),
        ("s", "es"),
        ("m", "mqmb_tbs"),
        ("m", "es_each"),
        ("r", "sqmb_tbs"),
        ("r", "es"),
    )

    @pytest.mark.parametrize("kind,algorithm", CASES)
    def test_page_reads_identical(self, engine, kind, algorithm):
        T = float(day_time(11))
        if kind == "m":
            query = MQuery(
                (Point(0.0, 0.0), Point(2000.0, 1500.0)), T, 600.0, 0.2
            )
            run = lambda: m_query(engine, query, algorithm=algorithm)
        else:
            query = SQuery(Point(0.0, 0.0), T, 600.0, 0.2)
            method = s_query if kind == "s" else r_query
            run = lambda: method(engine, query, algorithm=algorithm)
        live = run()
        with legacy_probability_path():
            legacy = run()
        assert live.segments == legacy.segments
        assert live.probabilities == legacy.probabilities
        assert live.cost.probability_checks == legacy.cost.probability_checks
        assert live.cost.segments_expanded == legacy.cost.segments_expanded
        assert live.cost.io.page_reads == legacy.cost.io.page_reads
        assert live.cost.io.pool_hits == legacy.cost.io.pool_hits
        assert live.cost.io.pool_misses == legacy.cost.io.pool_misses


class TestWaveCounters:
    """The probability-path counters surfaced through the cost plumbing."""

    def test_cost_fields_populated(self, engine):
        from repro.api import ReachabilityClient, QueryOptions, Request

        client = ReachabilityClient(engine)
        query = SQuery(Point(0.0, 0.0), float(day_time(11)), 600.0, 0.2)
        response = client.send(
            Request(query, QueryOptions(algorithm="sqmb_tbs"))
        )
        cost = response.cost
        assert cost.probability_checks > 0
        assert cost.probability_waves > 0
        assert cost.max_wave_size >= 1
        # Empty-start short circuits aside, every check runs one path.
        assert (
            cost.kernel_probability_evals + cost.scalar_probability_evals
            <= cost.probability_checks
        )
        assert (
            cost.kernel_probability_evals + cost.scalar_probability_evals > 0
        )

    def test_batch_report_aggregates_probability_counters(self, engine):
        queries = [
            SQuery(Point(0.0, 0.0), float(day_time(11)), 600.0, 0.2),
            SQuery(Point(2000.0, 1500.0), float(day_time(11)), 600.0, 0.2),
        ]
        report = run_batch(engine, queries, algorithm="sqmb_tbs", delta_t_s=300)
        assert report.cost.probability_checks == sum(
            r.cost.probability_checks for r in report.results
        )
        assert report.cost.probability_checks > 0
        rows = dict(report.as_rows())
        assert "Probability checks" in rows
        assert "waves" in rows["Probability checks"]

    def test_explain_renders_probability_path(self, engine):
        from repro.api import QueryOptions, ReachabilityClient, Request

        query = SQuery(Point(0.0, 0.0), float(day_time(11)), 600.0, 0.2)
        options = QueryOptions(algorithm="sqmb_tbs", delta_t_s=300, reuse_regions=False)
        explanation = ReachabilityClient(engine).explain(Request(query, options))
        assert explanation.result.cost.probability_waves
        text = explanation.to_text()
        assert "probability path:" in text
        assert "waves" in text


class TestAppendedChains:
    """Multi-record chains (incremental appends) through the kernel."""

    def test_chained_records_equivalent(self):
        from repro.trajectory.model import MatchedTrajectory, SegmentVisit
        from repro.datasets.shenzhen_like import TEST_CONFIG, default_dataset

        dataset = default_dataset(TEST_CONFIG)
        engine = ReachabilityEngine(dataset.network, dataset.database)
        engine.st_index(300)
        T = day_time(11)
        segments = sorted(dataset.network.segment_ids())[:6]
        engine.append_trajectories(
            [
                MatchedTrajectory(
                    999000 + i, 0, date,
                    [SegmentVisit(s, T + 30 * i, 5.0) for s in segments],
                )
                for i, date in enumerate([0, 1, 9])
            ],
            # The dataset is the process-wide cached test city: leave its
            # database as other test files expect it.
            update_database=False,
        )
        query = SQuery(Point(0.0, 0.0), float(T), 600.0, 0.2)
        live = s_query(engine, query)
        with legacy_probability_path():
            legacy = s_query(engine, query)
        assert live.segments == legacy.segments
        assert live.probabilities == legacy.probabilities
        assert live.cost.io.page_reads == legacy.cost.io.page_reads


class TestTraceBackEmptyEstimators:
    """Regression: trace_back_search with no estimators must not crash."""

    def test_empty_estimators_returns_empty_result(self, tiny_network):
        from repro.core.query import BoundingRegion

        segment_ids = sorted(tiny_network.segment_ids())
        region = BoundingRegion(
            cover=set(segment_ids[:10]), boundary=set(segment_ids[:4])
        )
        result = trace_back_search(
            tiny_network, {}, 0.5, region, BoundingRegion()
        )
        assert result.region == set()
        assert result.failed == set()
        assert result.examined == 0


class TestTimeEntriesViews:
    """The dict view derived on demand from the decoded columns."""

    def test_view_skips_copy_and_copy_stays_fresh(self, engine):
        """A returned dict is the caller's: mutating it (and its lists)
        does not change the next read."""
        st = engine.st_index(300)
        (segment_id, slot) = entry_keys(st)[0]
        first = st.time_entries(segment_id, slot)
        expected = {date: list(visits) for date, visits in first.items()}
        date = next(iter(first))
        first[date].append((123_456, 1))
        first[-1] = []
        fresh = st.time_entries(segment_id, slot)
        assert fresh == expected
        assert fresh is not first
        assert fresh[date] is not first[date]

    def test_window_keys_match_trajectories_in_window(self, engine):
        st = engine.st_index(300)
        T = float(day_time(11))
        for segment_id in list(st.network.segment_ids())[:25]:
            for lo, hi in ((T, T + 480.0), (T + 100.0, T + 250.0),
                           (SECONDS_PER_DAY - 200.0, SECONDS_PER_DAY + 400.0)):
                keys = st.gather_window_columns((segment_id,), st.window_plan(lo, hi))[0]
                pairs = {
                    (int(k) >> 32, int(k) & 0xFFFFFFFF)
                    for k in np.asarray(keys).tolist()
                }
                reference = {
                    (date, tid)
                    for date, ids in trajectories_in_window(st, segment_id, lo, hi).items()
                    for tid in ids
                }
                assert pairs == reference
