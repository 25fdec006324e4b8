"""Sharded serving: routing groups, lifecycle, accounting, equivalence.

The equivalence tests (marked ``sharded``) spawn real worker processes
and prove the serving guarantees: identical results to the
single-process engine on a randomized fig-4.8-style workload, and
*exact* I/O aggregation — per-group DiskStats windows sum to the batch
window, and each group's window equals a fresh single-process engine
running that group's exact sub-requests (up to ``page_writes`` when a
worker's replica runs more than one group).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.api.client import ReachabilityClient
from repro.api.envelope import QueryOptions, Request
from repro.api.router import ROUTER
from repro.core.engine import ReachabilityEngine
from repro.core.query import BoundingRegion, MQuery, QueryResult, SQuery
from repro.core.service import QueryService
from repro.eval.workload import QueryWorkload
from repro.network.locator import SegmentLocator
from repro.serving import (
    FaultPlan,
    FaultSpec,
    ShardedEngine,
    ShardedEngineClosedError,
    partition_network,
)
from repro.serving.dispatcher import _merge_decomposed
from repro.serving.faults import KILL_IN_RUN
from repro.serving.partition import export_shard_payload
from repro.serving.worker import build_shard_engine
from repro.serving.protocol import pack_result, unpack_result
from repro.storage.disk import DiskStats
from repro.trajectory.model import MatchedTrajectory


def fresh_engine(dataset) -> ReachabilityEngine:
    """A from-scratch engine (index built, no queries run yet).

    Sharded equivalence needs a *fresh* parent: the replicas copy
    the parent disk's append tail, so a parent that already served
    queries (extra Con-Index appends) would not match a from-scratch
    oracle page-for-page.
    """
    engine = ReachabilityEngine(dataset.network, dataset.database)
    engine.st_index(300)
    return engine


def mixed_requests(network, num_s: int = 12, num_m: int = 4, seed: int = 17):
    """A fig-4.8-style randomized workload plus reverse traffic."""
    workload = QueryWorkload(network, seed=seed)
    requests = [
        Request(query)
        for query in workload.mixed_batch(num_s, num_m, start_time_s=8 * 3600)
    ]
    requests += [
        Request(query, QueryOptions(direction="reverse"))
        for query in workload.s_queries(
            3, start_time_s=9 * 3600, salt="reverse"
        )
    ]
    return requests


def at_delta_t(requests, delta_t_s: int):
    """The same requests pinned to another index granularity."""
    return [
        Request(r.query, replace(r.options, delta_t_s=delta_t_s))
        for r in requests
    ]


# -- per-query I/O attribution (single-process) ---------------------------


class TestBatchAttribution:
    """Per-query windows sum exactly to the batch window."""

    def test_serial_per_query_io_sums_to_batch(self, engine):
        requests = mixed_requests(engine.network, 8, 2)
        client = ReachabilityClient(QueryService(engine))
        report = client.run_batch(requests)
        total = sum((r.cost.io for r in report.results), DiskStats())
        assert total == report.io


# -- partitioner ----------------------------------------------------------


class TestPartitioner:
    def test_owned_sets_partition_the_network(self, test_dataset):
        plan = partition_network(test_dataset.network, 4)
        all_ids = {s.segment_id for s in test_dataset.network.segments()}
        owned = [spec.owned for spec in plan.shards]
        union = set().union(*owned)
        assert union == all_ids
        assert sum(len(o) for o in owned) == len(all_ids)  # disjoint
        assert plan.owner_of.keys() == all_ids
        # every group's replica holds the whole network: what it does not
        # own is its halo
        for spec in plan.shards:
            assert spec.owned | spec.halo == all_ids
            assert not spec.owned & spec.halo

    def test_balanced_and_deterministic(self, test_dataset):
        plan_a = partition_network(test_dataset.network, 4)
        plan_b = partition_network(test_dataset.network, 4)
        sizes = [len(spec.owned) for spec in plan_a.shards]
        assert max(sizes) - min(sizes) <= max(2, len(plan_a.owner_of) // 10)
        for a, b in zip(plan_a.shards, plan_b.shards):
            assert a.owned == b.owned and a.halo == b.halo

    def test_single_shard_owns_everything(self, test_dataset):
        plan = partition_network(test_dataset.network, 1)
        assert plan.num_shards == 1
        assert not plan.shards[0].halo
        assert plan.shards[0].owned == {
            s.segment_id for s in test_dataset.network.segments()
        }

    def test_locator_matches_scalar_start_segments(self, engine):
        # a batch through the resolver (the dispatcher's routing) agrees
        # with one point at a time (the workers' find_start_segment)
        requests = mixed_requests(engine.network, 20, 8)
        locations = []
        for request in requests:
            query = request.query
            locations.extend(
                getattr(query, "locations", None) or [query.location]
            )
        locator = SegmentLocator(engine.network)
        batch = locator.locate(locations, chunk=7)  # odd chunk: seams
        st_index = engine.st_index(300)
        for location, sid in zip(locations, batch):
            assert int(sid) == st_index.find_start_segment(location)


# -- wire protocol --------------------------------------------------------


def _assert_plain_types(result):
    """Unpacked keys and values are Python scalars, never numpy ones."""
    assert all(type(k) is int for k in result.segments)
    assert all(type(k) is int for k in result.probabilities)
    assert all(type(v) is float for v in result.probabilities.values())
    for region in (result.max_region, result.min_region):
        if region is not None:
            assert all(type(k) is int for k in region.cover | region.boundary)
            assert all(
                type(k) is int and type(v) is int
                for k, v in region.seed_of.items()
            )


def test_result_roundtrip(engine):
    client = ReachabilityClient(QueryService(engine))
    response = client.send(mixed_requests(engine.network, 1, 1)[1])
    result = response.result
    assert result.max_region is not None and result.min_region is not None
    cases = [
        result,
        QueryResult(),  # no regions, nothing computed
        QueryResult(segments={7}, start_segments=(7,), max_region=BoundingRegion()),
        QueryResult(
            segments={1, 2},
            probabilities={2: 0.25},
            min_region=BoundingRegion({1}, {1}, {1: 9}),
        ),
    ]
    for case in cases:
        wire = pickle.dumps(pack_result(case), protocol=pickle.HIGHEST_PROTOCOL)
        restored = unpack_result(pickle.loads(wire))
        assert restored.segments == case.segments
        assert restored.probabilities == case.probabilities
        assert restored.start_segments == case.start_segments
        assert restored.max_region == case.max_region
        assert restored.min_region == case.min_region
        assert restored.cost == case.cost
        _assert_plain_types(restored)


def test_decomposed_regions_merge_as_unions_with_first_part_seeds():
    first = QueryResult(
        segments={1, 2},
        probabilities={2: 0.5, 3: 0.1},
        max_region=BoundingRegion({1, 2, 3}, {3}, {1: 10, 2: 10, 3: 10}),
        min_region=BoundingRegion({1}, {1}, {1: 10}),
    )
    second = QueryResult(
        segments={3, 4},
        probabilities={3: 0.4},
        max_region=BoundingRegion({3, 4, 5}, {3, 5}, {3: 20, 4: 20, 5: 20}),
        min_region=BoundingRegion({4}, {4}, {4: 20}),
    )
    merged = _merge_decomposed((10, 20, 10), [first, second])
    assert merged.segments == {1, 2, 3, 4}
    assert merged.probabilities == {2: 0.5, 3: 0.4}
    assert merged.start_segments == (10, 20)
    assert merged.max_region == BoundingRegion(
        {1, 2, 3, 4, 5}, {3, 5}, {1: 10, 2: 10, 3: 10, 4: 20, 5: 20}
    )
    assert merged.min_region == BoundingRegion({1, 4}, {1, 4}, {1: 10, 4: 20})
    # the parts are left as they were (a part's region may be cached)
    assert first.max_region.cover == {1, 2, 3}
    assert second.max_region.seed_of == {3: 20, 4: 20, 5: 20}
    # one part without regions (an ES or multi-location *_each part)
    second.min_region = None
    assert _merge_decomposed((10, 20), [first, second]).min_region is None


# -- lifecycle ------------------------------------------------------------


@pytest.mark.sharded
class TestLifecycle:
    def test_close_terminates_workers_and_is_idempotent(self, test_dataset):
        from repro.serving import ShardedEngineClosedError

        sharded = ShardedEngine(fresh_engine(test_dataset), shards=2)
        processes = [h.process for h in sharded._workers.values()]
        assert all(p.is_alive() for p in processes)
        sharded.close()
        assert all(not p.is_alive() for p in processes)
        sharded.close()  # idempotent
        with pytest.raises(ShardedEngineClosedError):
            sharded.run_batch(mixed_requests(test_dataset.network, 1, 0))
        # the typed error subclasses RuntimeError for old call sites
        with pytest.raises(RuntimeError):
            sharded.run_batch(mixed_requests(test_dataset.network, 1, 0))

    def test_context_manager(self, test_dataset):
        with ShardedEngine(fresh_engine(test_dataset), shards=2) as sharded:
            processes = [h.process for h in sharded._workers.values()]
            report = sharded.run_batch(
                mixed_requests(test_dataset.network, 2, 0)
            )
            assert len(report.results) == 5
        assert all(not p.is_alive() for p in processes)

    def test_client_close_shuts_shard_workers(self, test_dataset):
        with ReachabilityClient(
            fresh_engine(test_dataset), backend="sharded", shards=2
        ) as client:
            report = client.run_batch(mixed_requests(test_dataset.network, 2, 0))
            assert report.shard_reports
            processes = [
                h.process for h in client._sharded._workers.values()
            ]
            assert all(p.is_alive() for p in processes)
        assert all(not p.is_alive() for p in processes)
        assert client._sharded is None


# -- equivalence and exact accounting -------------------------------------


@pytest.mark.sharded
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_matches_single_process(test_dataset, shards):
    requests = mixed_requests(test_dataset.network)
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(
        requests
    )
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=shards
    ) as sharded:
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)

    decomposed = set(dispatch.decomposed)
    if shards >= 2:
        # the workload must actually exercise cross-shard m-queries
        assert decomposed
    assert len(report.results) == len(requests)
    for seq, (expected, actual) in enumerate(
        zip(baseline.results, report.results)
    ):
        assert actual.segments == expected.segments
        assert actual.start_segments == expected.start_segments
        if seq not in decomposed:
            # whole requests ran verbatim on one shard: probability
            # values and regions match too (decomposed parts may compute
            # different — equally valid — shell probabilities)
            assert actual.probabilities == expected.probabilities
            if expected.max_region is not None:
                assert actual.max_region.cover == expected.max_region.cover

    # exact aggregation: shard windows sum to the batch window (the
    # workload is fully in-contract, so there is no fallback I/O)
    assert not dispatch.fallback
    shard_sum = sum((s.io for s in report.shard_reports), DiskStats())
    assert shard_sum == report.io
    assert report.simulated_io_ms == pytest.approx(
        sum(s.simulated_io_ms for s in report.shard_reports)
    )


@pytest.mark.sharded
def test_client_backends_route_and_answer_alike(test_dataset):
    """One client policy on both backends: a batch that fires every auto
    rule a batch can reach routes rule for rule alike in-process and
    sharded, every request answers the same segments, and every request
    that ran whole answers alike in full."""
    requests = mixed_requests(test_dataset.network, 6, 3)
    s_query = next(r.query for r in requests if isinstance(r.query, SQuery))
    m_query = next(r.query for r in requests if isinstance(r.query, MQuery))
    requests += [
        Request(SQuery(s_query.location, s_query.start_time_s, 120, 0.3)),
        Request(MQuery(m_query.locations, m_query.start_time_s, 120, 0.3)),
        Request(MQuery((s_query.location,) * 2, s_query.start_time_s, 600, 0.2)),
    ]
    with ReachabilityClient(fresh_engine(test_dataset)) as client:
        local = client.run_batch(requests)
    with ReachabilityClient(
        fresh_engine(test_dataset), backend="sharded", shards=2
    ) as client:
        sharded = client.run_batch(requests)
        decomposed = set(client._sharded.plan_dispatch(requests).decomposed)

    assert {decision.rule for decision in local.routes} >= {
        "paper-s", "paper-m", "reverse-bounds", "sub-slot-es", "single-location-decompose",
    }
    assert sharded.routes == local.routes
    # A decomposed sub-slot m-query runs ES in every part, as it does whole.
    assert len(requests) - 2 in decomposed
    for seq, (expected, actual) in enumerate(zip(local.results, sharded.results)):
        assert actual.segments == expected.segments
        if seq not in decomposed:
            assert actual.probabilities == expected.probabilities
            assert actual.max_region == expected.max_region
            assert actual.min_region == expected.min_region


@pytest.mark.sharded
def test_shard_windows_match_single_process_oracle(test_dataset):
    """Each shard's DiskStats equals a fresh single-process engine
    running that shard's exact sub-request list — shard accounting is
    not merely internally consistent, it is *the same accounting* the
    paper's single-process model produces."""
    requests = mixed_requests(test_dataset.network)
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2
    ) as sharded:
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)
    for shard_report in report.shard_reports:
        sub_requests = [
            request
            for _, _, request in dispatch.per_shard[shard_report.shard_id]
        ]
        with ReachabilityClient(fresh_engine(test_dataset)) as oracle:
            oracle_report = oracle.run_batch(sub_requests)
        assert oracle_report.io == shard_report.io


@pytest.mark.sharded
def test_more_groups_than_workers_share_one_replica(test_dataset, monkeypatch):
    """The benchmark's serving shape: four routing groups on two workers,
    so worker ``i`` runs groups ``i`` and ``i + 2`` on one replica.

    Each group is still one cold window: its page reads and pool
    counters equal a fresh single-process engine running that group's
    sub-list.  Only ``page_writes`` may fall for a worker's second group,
    because it reuses the Con-Index entries its first group built on the
    same replica instead of building them again.
    """
    requests = mixed_requests(test_dataset.network)
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(
        requests
    )
    scattered: dict[int, list[int]] = {}
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=4, workers=2
    ) as sharded:
        dispatch_attempt = sharded._dispatch_attempt

        def recording(worker_idx, shard_map, *args):
            scattered[worker_idx] = list(shard_map)
            return dispatch_attempt(worker_idx, shard_map, *args)

        monkeypatch.setattr(sharded, "_dispatch_attempt", recording)
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)

    assert scattered == {0: [0, 2], 1: [1, 3]}
    decomposed = set(dispatch.decomposed)
    for seq, (expected, actual) in enumerate(
        zip(baseline.results, report.results)
    ):
        assert actual.segments == expected.segments
        assert actual.start_segments == expected.start_segments
        if seq not in decomposed:
            assert actual.probabilities == expected.probabilities

    assert not dispatch.fallback
    assert sum((s.io for s in report.shard_reports), DiskStats()) == report.io
    assert [s.shard_id for s in report.shard_reports] == [0, 1, 2, 3]
    fewer_writes = []
    for shard_report in report.shard_reports:
        sub_requests = [
            request
            for _, _, request in dispatch.per_shard[shard_report.shard_id]
        ]
        with ReachabilityClient(fresh_engine(test_dataset)) as oracle:
            want = oracle.run_batch(sub_requests).io
        got = shard_report.io
        assert got.page_reads == want.page_reads
        assert got.bytes_read == want.bytes_read
        assert (got.pool_hits, got.pool_misses, got.pool_evictions) == (
            want.pool_hits, want.pool_misses, want.pool_evictions
        )
        if shard_report.shard_id < 2:  # the worker's first group
            assert got == want
        else:
            assert got.page_writes <= want.page_writes
            fewer_writes.append(got.page_writes < want.page_writes)
    assert any(fewer_writes)  # the reuse is real on this workload


@pytest.mark.sharded
def test_replica_serves_every_batch_through_one_long_lived_service(test_dataset):
    """The benchmark's serving shape, two batches: a worker answers every
    group of every batch through one service, as one long-lived client
    would.  The repeated batch computes no region, and each group's
    window equals one long-lived client on a fresh replica running that
    worker's group sub-batches in dispatch order, batch after batch."""
    requests = mixed_requests(test_dataset.network)
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=4, workers=2
    ) as sharded:
        dispatch = sharded.plan_dispatch(requests)
        reports = [sharded.run_batch(requests) for _ in range(2)]
    assert reports[0].regions_computed > 0
    assert reports[1].regions_computed == 0
    assert reports[1].regions_reused > 0
    for first, again in zip(reports[0].results, reports[1].results):
        assert again.segments == first.segments
        assert again.probabilities == first.probabilities

    payload = export_shard_payload(fresh_engine(test_dataset), 300)
    for worker_idx in range(2):
        groups = [
            shard_id
            for shard_id, entries in dispatch.per_shard.items()
            if entries and shard_id % 2 == worker_idx
        ]
        assert len(groups) == 2
        replica = QueryService(build_shard_engine(payload), delta_t_s=300)
        with ReachabilityClient(replica) as oracle:
            for report in reports:
                window_of = {s.shard_id: s.io for s in report.shard_reports}
                for shard_id in groups:
                    sub_batch = [r for _, _, r in dispatch.per_shard[shard_id]]
                    assert window_of[shard_id] == oracle.run_batch(sub_batch).io


@pytest.mark.sharded
def test_one_location_parts_ship_as_lockstep_s_queries(test_dataset, monkeypatch):
    """A decomposed m-query's one-location part ships as the SQMB+TBS
    s-query its ``sqmb_tbs_each`` route runs: no group entry routes to
    ``sqmb_tbs_each``, answers equal single-process, each such part's
    probabilities equal ``sqmb_tbs_each`` on its location, and the
    merged regions are the unions of the parts'."""
    from repro.serving import dispatcher

    requests = mixed_requests(test_dataset.network)
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(
        requests
    )
    parts_of: dict[tuple[int, ...], list] = {}

    def recording(starts, results):
        parts_of[starts] = results
        return _merge_decomposed(starts, results)

    monkeypatch.setattr(dispatcher, "_merge_decomposed", recording)
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=4, workers=2
    ) as sharded:
        dispatch = sharded.plan_dispatch(requests)
        report = sharded.run_batch(requests)

    shipped: dict[int, dict[int, Request]] = {}
    for entries in dispatch.per_shard.values():
        for seq, part_idx, request in entries:
            assert ROUTER.route(request, 300).algorithm != "sqmb_tbs_each"
            if seq in dispatch.decomposed:
                shipped.setdefault(seq, {})[part_idx] = request
    one_location = [
        (seq, part_idx, request)
        for seq, parts in shipped.items()
        for part_idx, request in parts.items()
        if isinstance(request.query, SQuery)
    ]
    assert one_location
    for seq, part_idx, request in one_location:
        assert request.options.algorithm == "sqmb_tbs"
    for parts in shipped.values():
        for request in parts.values():
            if isinstance(request.query, MQuery):
                assert len(set(request.query.locations)) > 1

    for expected, actual in zip(baseline.results, report.results):
        assert actual.segments == expected.segments
        assert actual.start_segments == expected.start_segments

    with ReachabilityClient(fresh_engine(test_dataset)) as oracle:
        for seq, part_idx, request in one_location:
            query = request.query
            each = oracle.send(
                Request(
                    MQuery(
                        (query.location,), query.start_time_s,
                        query.duration_s, query.prob,
                    ),
                    QueryOptions(algorithm="sqmb_tbs_each"),
                )
            ).result
            part = parts_of[dispatch.decomposed[seq]][part_idx]
            assert part.segments == each.segments
            assert part.probabilities == each.probabilities
    assert len(parts_of) == len(dispatch.decomposed)
    assert any(report.results[seq].max_region for seq in dispatch.decomposed)
    for seq in dispatch.decomposed:
        parts = parts_of[dispatch.decomposed[seq]]
        merged = report.results[seq]
        if any(part.max_region is None for part in parts):
            assert merged.max_region is None
            continue
        assert merged.max_region.cover == set().union(
            *(part.max_region.cover for part in parts)
        )
        assert merged.min_region.boundary == set().union(
            *(part.min_region.boundary for part in parts)
        )


@pytest.mark.sharded
def test_out_of_contract_requests_fall_back(test_dataset):
    """The replicas hold the ST-Index at one Δt; a request at another Δt
    runs on the dispatcher's own service."""
    workload = QueryWorkload(test_dataset.network, seed=5)
    (query,) = workload.s_queries(1, start_time_s=10 * 3600)
    (foreign,) = at_delta_t([Request(query)], 600)
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2
    ) as sharded:
        dispatch = sharded.plan_dispatch([foreign])
        assert dispatch.fallback and not dispatch.num_sub_requests
        report = sharded.run_batch([foreign])
    assert len(report.results) == 1
    assert not report.shard_reports
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(
        [foreign]
    )
    assert report.results[0].segments == baseline.results[0].segments
    assert report.io == baseline.io


# -- data changes -----------------------------------------------------------


def replayed_commute(dataset):
    """One trajectory replayed on every date it is absent from, plus a
    query from its first segment that only the replays make 0.6-reachable
    along the route."""
    source = next(t for t in dataset.database if len(t.visits) >= 8)
    first = source.visits[0]
    query = SQuery(
        dataset.network.segment(first.segment_id).midpoint,
        float(first.time_s),
        600.0,
        0.6,
    )
    replays = [
        MatchedTrajectory(
            10_000_000 + date, source.taxi_id, date, list(source.visits)
        )
        for date in range(dataset.config.num_days)
        if date != source.date
    ]
    return Request(query), replays


@pytest.mark.sharded
def test_sharded_backend_serves_post_append_data(test_dataset):
    """The shard slices are cut at spawn; an append must retire them so
    the sharded backend never answers from pre-append data."""
    request, replays = replayed_commute(test_dataset)
    requests = [request] + mixed_requests(test_dataset.network, 4, 1)
    with ReachabilityClient(fresh_engine(test_dataset), shards=2) as client:

        def both():
            return [
                client.run_batch(requests, backend=backend)
                for backend in ("threaded", "sharded")
            ]

        threaded, sharded = both()
        before = threaded.results[0].segments
        assert sharded.results[0].segments == before
        # update_database=False: the session's shared database stays as
        # it is; the engine's own ST-Index (and the hooks) see the append.
        client.service.append_trajectories(replays, update_database=False)
        threaded, sharded = both()
        assert len(threaded.results[0].segments) > len(before)
        for expected, actual in zip(threaded.results, sharded.results):
            assert actual.segments == expected.segments
        assert len(sharded.shard_reports) == 2  # re-partitioned, not fallen back
        shard_sum = sum((s.io for s in sharded.shard_reports), DiskStats())
        assert shard_sum == sharded.io


@pytest.mark.sharded
def test_direct_sharded_engine_closes_on_data_change(test_dataset):
    """Without a client to re-partition, a stale engine refuses to serve."""
    request, replays = replayed_commute(test_dataset)
    engine = fresh_engine(test_dataset)
    with ShardedEngine(QueryService(engine), shards=2) as sharded:
        sharded.run_batch([request])
        engine.append_trajectories(replays, update_database=False)
        assert sharded.closed
        with pytest.raises(ShardedEngineClosedError):
            sharded.run_batch([request])


# -- one sub-batch runner ---------------------------------------------------


@pytest.mark.sharded
@pytest.mark.parametrize("path", ["worker", "degraded", "fallback"])
def test_every_reply_body_is_the_one_runners(test_dataset, monkeypatch, path):
    """A worker reply, a degraded re-run and the foreign-Δt fallback
    answer the same entries with the same body: same keys, same unpacked
    results, same accounting window."""
    from repro.serving import dispatcher
    from repro.serving.worker import _serve_run, build_shard_engine, run_sub_batch

    requests = mixed_requests(test_dataset.network, 4, 1)
    if path == "fallback":
        requests = at_delta_t(requests, 600)
    entries = [(seq, 0, request) for seq, request in enumerate(requests)]
    reference = run_sub_batch(
        QueryService(fresh_engine(test_dataset)), entries, False
    )
    bodies = []

    def recording(service, entries, warm):
        bodies.append((entries, run_sub_batch(service, entries, warm)))
        return bodies[-1][1]

    monkeypatch.setattr(dispatcher, "run_sub_batch", recording)
    if path == "worker":
        replica = QueryService(
            build_shard_engine(
                export_shard_payload(fresh_engine(test_dataset), 300)
            ),
            delta_t_s=300,
        )
        message = {"warm": False, "shards": {0: entries}}
        body = _serve_run(replica, message)[0]
    else:
        how = (
            dict(
                fault_plan=FaultPlan.of(
                    FaultSpec(kind=KILL_IN_RUN, worker=0, at=1, incarnation=None)
                ),
                max_retries=0,
            )
            if path == "degraded"
            else {}  # every request is at a foreign Δt
        )
        with ShardedEngine(
            QueryService(fresh_engine(test_dataset)), shards=1, **how
        ) as sharded:
            report = sharded.run_batch(requests)
        ((got_entries, body),) = bodies
        assert got_entries == entries
        assert report.io == body["io"]
        assert report.degraded_requests == (len(entries) if path == "degraded" else 0)

    assert body.keys() == reference.keys()
    assert body["io"] == reference["io"]
    for got, want in zip(body["results"], reference["results"]):
        assert got[:2] == want[:2]
        got, want = unpack_result(got[2]), unpack_result(want[2])
        assert got.segments == want.segments
        assert got.probabilities == want.probabilities
        assert got.start_segments == want.start_segments
        assert (got.max_region is None) == (want.max_region is None)


# -- protocol error paths ---------------------------------------------------


class _ScriptedConn:
    """In-process stand-in for a worker's pipe end: replays scripted
    incoming frames and records everything the worker sends back."""

    def __init__(self, frames):
        self.frames = list(frames)
        self.sent = []

    def recv(self):
        if not self.frames:
            raise EOFError
        return self.frames.pop(0)

    def send(self, frame):
        self.sent.append(frame)


@pytest.fixture(scope="module")
def replica_payload(test_dataset):
    """The one payload every worker of a sharded engine rebuilds."""
    return export_shard_payload(fresh_engine(test_dataset), 300)


class TestProtocolErrorPaths:
    """The RL009 contract, exercised dynamically: unknown kinds and
    executor failures answer with MSG_ERROR instead of killing the
    worker loop; a dead worker surfaces as RuntimeError, not a hang."""

    def test_unknown_message_kind_gets_structured_error(self, replica_payload):
        from repro.serving.protocol import (
            MSG_ERROR,
            MSG_SHUTDOWN,
            PROTOCOL_VERSION,
        )
        from repro.serving.worker import shard_worker_main

        conn = _ScriptedConn(
            [
                ("bogus", 7, {"version": PROTOCOL_VERSION}),
                (MSG_SHUTDOWN,),
            ]
        )
        shard_worker_main(conn, replica_payload)
        assert len(conn.sent) == 1
        kind, request_id, body = conn.sent[0]
        assert kind == MSG_ERROR
        assert request_id == 7  # echoes the offending command's id
        assert "unknown message kind" in body
        assert "bogus" in body

    def test_malformed_frame_survives_and_replies_error(self, replica_payload):
        # A garbage frame or a version-less command must not kill the
        # loop: the worker answers MSG_ERROR and keeps serving.
        from repro.serving.protocol import MSG_ERROR, MSG_RUN, MSG_SHUTDOWN
        from repro.serving.worker import shard_worker_main

        conn = _ScriptedConn(
            [
                "zz",  # not a tuple
                (MSG_RUN, 1, {"warm": False}),  # missing protocol version
                (MSG_SHUTDOWN,),
            ]
        )
        shard_worker_main(conn, replica_payload)
        assert [kind for kind, _, _ in conn.sent] == [MSG_ERROR, MSG_ERROR]
        # parse failures happen before the id is trusted: both carry -1
        assert [rid for _, rid, _ in conn.sent] == [-1, -1]
        assert "version" in conn.sent[1][2]

    def test_failing_run_replies_error_with_traceback(self, replica_payload):
        # A MSG_RUN whose group entries are not (seq, part, request)
        # triples fails inside _serve_run; the reply must carry the
        # traceback, and the loop must stay alive for the next frame.
        from repro.serving.protocol import (
            MSG_ERROR,
            MSG_RUN,
            MSG_SHUTDOWN,
            PROTOCOL_VERSION,
        )
        from repro.serving.worker import shard_worker_main

        conn = _ScriptedConn(
            [
                (
                    MSG_RUN,
                    3,
                    {
                        "version": PROTOCOL_VERSION,
                        "warm": False,
                        "shards": {0: [("not", "a triple")]},
                    },
                ),
                (MSG_SHUTDOWN,),
            ]
        )
        shard_worker_main(conn, replica_payload)
        assert len(conn.sent) == 1
        kind, request_id, body = conn.sent[0]
        assert kind == MSG_ERROR
        assert request_id == 3
        assert "Traceback" in body and "ValueError" in body

    def test_pipe_eof_exits_worker_loop_cleanly(self, replica_payload):
        from repro.serving.worker import shard_worker_main

        conn = _ScriptedConn([])  # recv raises EOFError immediately
        shard_worker_main(conn, replica_payload)  # must return, not raise
        assert conn.sent == []

    def test_worker_death_mid_session_recovers(self, test_dataset):
        # Pre-PR-9 this raised out of run_batch; the supervisor now
        # respawns every killed worker from its retained payloads and
        # the batch completes (deeper matrix: tests/test_serving_faults.py).
        sharded = ShardedEngine(fresh_engine(test_dataset), shards=2)
        try:
            for handle in sharded._workers.values():
                handle.process.kill()
            for handle in sharded._workers.values():
                handle.process.join(timeout=10)
            report = sharded.run_batch(
                mixed_requests(test_dataset.network, 2, 0)
            )
            assert len(report.results) == 5
            assert report.worker_restarts >= 2
        finally:
            sharded.close()

    def test_double_close_after_failure_is_safe(self, test_dataset):
        from repro.serving import ShardedEngineClosedError

        sharded = ShardedEngine(fresh_engine(test_dataset), shards=2)
        for handle in sharded._workers.values():
            handle.process.kill()
        for handle in sharded._workers.values():
            handle.process.join(timeout=10)
        sharded.close()  # pipes to dead workers: must swallow the errors
        sharded.close()  # and stay idempotent
        with pytest.raises(ShardedEngineClosedError):
            sharded.run_batch(mixed_requests(test_dataset.network, 1, 0))

    def test_del_never_raises_without_init(self):
        # __del__ on a half-constructed engine (e.g. __init__ raised
        # before closed was assigned) must stay silent at GC time.
        broken = ShardedEngine.__new__(ShardedEngine)
        broken.__del__()  # no AttributeError, no output
