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

from dataclasses import replace

import pytest

from repro.api.client import ReachabilityClient
from repro.api.envelope import QueryOptions, Request
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery, SQuery
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
from repro.serving.faults import KILL_IN_RUN
from repro.serving.partition import export_shard_payload
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
    """Per-query windows sum exactly to the batch window, threaded too."""

    def test_serial_per_query_io_sums_to_batch(self, engine):
        requests = mixed_requests(engine.network, 8, 2)
        client = ReachabilityClient(QueryService(engine))
        report = client.run_batch(requests, max_workers=1)
        total = sum((r.cost.io for r in report.results), DiskStats())
        assert total == report.io

    def test_threaded_per_query_io_sums_to_batch(self, engine):
        requests = mixed_requests(engine.network, 8, 2)
        client = ReachabilityClient(QueryService(engine))
        report = client.run_batch(requests, max_workers=4)
        total = sum((r.cost.io for r in report.results), DiskStats())
        # Every page read/pool hit is charged to exactly one executing
        # thread, so the sum of per-query windows is the batch window —
        # the regression this PR fixes (the old global-diff attribution
        # double-counted overlapping queries).
        assert total == report.io

    def test_threaded_per_query_accesses_deterministic(self, engine):
        requests = mixed_requests(engine.network, 8, 2)
        client = ReachabilityClient(QueryService(engine))
        serial = client.run_batch(requests, max_workers=1)
        threaded = client.run_batch(requests, max_workers=4)
        for a, b in zip(serial.results, threaded.results):
            # hits-vs-misses can shift with scheduling (whoever touches a
            # page first pays the miss) but each query's page *accesses*
            # are a property of the query, not the schedule.
            assert (
                a.cost.io.pool_hits + a.cost.io.pool_misses
                == b.cost.io.pool_hits + b.cost.io.pool_misses
            )


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


def test_result_roundtrip(engine):
    client = ReachabilityClient(QueryService(engine))
    response = client.send(mixed_requests(engine.network, 1, 1)[1])
    result = response.result
    restored = unpack_result(pack_result(result))
    assert restored.segments == result.segments
    assert restored.probabilities == result.probabilities
    assert restored.start_segments == result.start_segments
    assert (restored.max_region is None) == (result.max_region is None)
    if result.max_region is not None:
        assert restored.max_region.cover == result.max_region.cover
        assert restored.max_region.boundary == result.max_region.boundary
        assert restored.max_region.seed_of == result.max_region.seed_of
    assert restored.cost.io == result.cost.io


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
            oracle_report = oracle.run_batch(sub_requests, max_workers=1)
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
            want = oracle.run_batch(sub_requests, max_workers=1).io
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
        replica = build_shard_engine(
            export_shard_payload(fresh_engine(test_dataset), 300)
        )
        message = {"warm": False, "shards": {0: entries}}
        body = _serve_run(replica, 300, message)[0]
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
