"""Sharded serving: routing groups, lifecycle, accounting, equivalence.

The equivalence tests (marked ``sharded``) spawn real worker processes
and prove the serving guarantees: results identical in full to the
single-process engine's on a randomized fig-4.8-style workload, for any
group count, and
*exact* I/O aggregation — per-group DiskStats windows sum to the batch
window, and each group's window equals a fresh single-process engine
running that group's exact sub-requests.
"""

from __future__ import annotations

import pickle
import tracemalloc
from dataclasses import replace
from pathlib import Path

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
from repro.io.persist import open_store, save_store
from repro.serving.dispatcher import _FaultStats, _merge_parts
from repro.serving.faults import KILL_IN_RUN
from repro.serving.partition import ShardPayload, export_shard_payload
from repro.serving.worker import build_shard_engine
from repro.serving.protocol import pack_result, unpack_result
from repro.storage.backends import FileBackedDisk, filedisk
from repro.storage.backends.filedisk import generation_file
from repro.storage.disk import DiskStats, SimulatedDisk
from repro.trajectory.model import MatchedTrajectory, SegmentVisit


def fresh_engine(dataset) -> ReachabilityEngine:
    """A from-scratch engine (index built, no queries run yet)."""
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


def assert_identical(baseline, report):
    """Every result equals the single-process one in full."""
    assert len(report.results) == len(baseline.results)
    for expected, actual in zip(baseline.results, report.results):
        assert actual.segments == expected.segments
        assert actual.start_segments == expected.start_segments
        assert actual.probabilities == expected.probabilities
        assert actual.max_region == expected.max_region
        assert actual.min_region == expected.min_region


def cross_group_m_queries(sharded, requests) -> set[int]:
    """The ``seq`` of every m-query whose locations lie in several groups."""
    locator = sharded._st_index.locator
    return {
        seq
        for seq, request in enumerate(requests)
        if isinstance(request.query, MQuery)
        and len(
            {sharded.plan.owner_of[int(s)] for s in locator.locate(request.query.locations)}
        ) > 1
    }


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
            min_region=BoundingRegion({1}, {1}),
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


def test_each_parts_merge_as_the_each_route_unions_them():
    """A later location's probability overwrites an earlier one's, start
    segments dedup in location order, and no bounding region survives —
    what ``execute_each`` does with its per-location s-queries."""
    first = QueryResult(
        segments={1, 2},
        probabilities={2: 0.5, 3: 0.1},
        start_segments=(10,),
        max_region=BoundingRegion({1, 2, 3}, {3}),
    )
    second = QueryResult(
        segments={3, 4}, probabilities={3: 0.05}, start_segments=(20,)
    )
    third = QueryResult(segments={1}, start_segments=(10,))
    merged = _merge_parts([first, second, third])
    assert merged.segments == {1, 2, 3, 4}
    assert merged.probabilities == {2: 0.5, 3: 0.05}
    assert merged.start_segments == (10, 20)
    assert merged.max_region is None and merged.min_region is None
    assert first.probabilities == {2: 0.5, 3: 0.1}  # parts left as they were


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
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
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

        cross_group = cross_group_m_queries(sharded, requests)

    if shards >= 2:
        # the workload must actually exercise cross-group m-queries
        assert cross_group
    assert_identical(baseline, report)

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
    sharded, and every request answers alike in full."""
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
    # A cross-group sub-slot m-query (``es_each``) runs one ES s-query per
    # location, as it does whole.
    assert len(requests) - 2 in decomposed
    assert_identical(local, sharded)


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
def test_each_group_is_one_worker_process_with_one_window(test_dataset, monkeypatch):
    """``shards=K`` spawns K processes; worker ``i`` receives one attempt
    per batch carrying exactly group ``i``'s entries, and the report has
    one window per group, ``shard_id`` 0..K-1, summing to ``report.io``."""
    requests = mixed_requests(test_dataset.network, 24, 6)
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(
        requests
    )
    scattered: dict[int, list] = {}
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=3
    ) as sharded:
        assert sharded.plan.num_shards == 3
        assert sorted(sharded._workers) == [0, 1, 2]
        assert len({h.process.pid for h in sharded._workers.values()}) == 3
        dispatch_attempt = sharded._dispatch_attempt

        def recording(worker_idx, entries, *args):
            assert worker_idx not in scattered  # one attempt per worker
            scattered[worker_idx] = entries
            return dispatch_attempt(worker_idx, entries, *args)

        monkeypatch.setattr(sharded, "_dispatch_attempt", recording)
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)

    assert all(dispatch.per_shard.values())  # every group has work
    assert scattered == dispatch.per_shard
    assert [s.shard_id for s in report.shard_reports] == [0, 1, 2]
    assert [s.queries for s in report.shard_reports] == [
        len(dispatch.per_shard[shard_id]) for shard_id in range(3)
    ]
    assert sum((s.io for s in report.shard_reports), DiskStats()) == report.io
    assert_identical(baseline, report)


@pytest.mark.sharded
def test_client_shard_workers_caps_the_group_count(test_dataset):
    """The benchmark's serving shape: ``shards=4`` on two workers is two
    groups on two processes, not four groups dealt onto two."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    with ReachabilityClient(
        fresh_engine(test_dataset), backend="sharded", shards=4,
        shard_workers=2,
    ) as client:
        report = client.run_batch(requests)
        sharded = client._sharded
        assert sharded.plan.num_shards == 2
        assert sorted(sharded._workers) == [0, 1]
    assert [s.shard_id for s in report.shard_reports] == [0, 1]


@pytest.mark.sharded
@pytest.mark.parametrize("source", ["ram", "store"])
def test_worker_window_equals_a_long_lived_replica_client(test_dataset, tmp_path, source):
    """Two batches: a worker answers its group's sub-batch of every batch
    through one long-lived service.  The repeated batch computes no
    region, and each window equals one long-lived client on a read-only
    open of the same saved store running that worker's sub-batch, batch
    after batch — whether the workers open a private save of a RAM engine
    or reuse the bundle an ``open_store`` engine came from."""
    requests = mixed_requests(test_dataset.network)
    bundle = save_store(fresh_engine(test_dataset), tmp_path / "bundle", 300)
    target = fresh_engine(test_dataset) if source == "ram" else open_store(bundle)
    with ShardedEngine(QueryService(target), shards=2) as sharded:
        reused = Path(sharded._payload.bundle).resolve() == bundle.resolve()
        dispatch = sharded.plan_dispatch(requests)
        reports = [sharded.run_batch(requests) for _ in range(2)]
    assert reused == (source == "store")
    assert reports[0].regions_computed > 0
    assert reports[1].regions_computed == 0
    assert reports[1].regions_reused > 0
    for first, again in zip(reports[0].results, reports[1].results):
        assert again.segments == first.segments
        assert again.probabilities == first.probabilities

    for shard_id in range(2):
        sub_batch = [r for _, _, r in dispatch.per_shard[shard_id]]
        assert sub_batch
        replica = QueryService(
            build_shard_engine(ShardPayload(str(bundle), 300)), delta_t_s=300
        )
        with ReachabilityClient(replica) as oracle:
            for report in reports:
                (window,) = [
                    s.io for s in report.shard_reports if s.shard_id == shard_id
                ]
                assert window == oracle.run_batch(sub_batch).io
    for report in reports:
        assert sum((s.io for s in report.shard_reports), DiskStats()) == report.io


def bundle_files(bundle: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(bundle.rglob("*")) if p.is_file()}


def kill_workers(sharded) -> None:
    for handle in sharded._workers.values():
        handle.process.kill()
        handle.process.join(timeout=10)


def wait_until_serving(sharded) -> None:
    """Return once every worker has opened its replica: an empty
    sub-batch, which reads no page, round-trips through each."""
    stats, outstanding = _FaultStats(), {}
    for worker_idx in sharded._workers:
        sharded._dispatch_attempt(worker_idx, [], 0, False, outstanding, stats)
    replies, degraded = sharded._gather(outstanding, False, stats)
    assert sorted(replies) == sorted(sharded._workers) and not degraded


@pytest.mark.sharded
def test_an_opened_store_that_served_queries_is_reused(test_dataset, tmp_path):
    """Queries write no page, so a store that answered a send and a batch
    in-process is still synced: the next sharded batch's workers open the
    store itself, with no private save, and answer as single-process."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(requests)
    bundle = save_store(fresh_engine(test_dataset), tmp_path / "bundle", 300)
    with ReachabilityClient.open(bundle, backend="sharded", shards=2) as client:
        client.send(requests[0])
        client.run_batch(requests, backend="threaded")
        assert client.engine.disk.is_synced
        report = client.run_batch(requests)
        assert Path(client._sharded._payload.bundle).resolve() == bundle.resolve()
    assert_identical(baseline, report)


@pytest.mark.sharded
def test_a_reused_bundle_is_never_written(test_dataset, tmp_path):
    """Workers open the engine's own bundle read-only: its files are
    byte-identical after serving and after a respawn."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    bundle = save_store(fresh_engine(test_dataset), tmp_path / "bundle", 300)
    before = bundle_files(bundle)
    with ShardedEngine(QueryService(open_store(bundle)), shards=2) as sharded:
        assert Path(sharded._payload.bundle).resolve() == bundle.resolve()
        sharded.run_batch(requests)
        assert bundle_files(bundle) == before
        kill_workers(sharded)
        report = sharded.run_batch(requests)
        assert report.worker_restarts == 2
        assert bundle_files(bundle) == before
    assert bundle_files(bundle) == before


@pytest.mark.sharded
def test_workers_keep_reading_a_reused_bundle_the_parent_compacts(
    test_dataset, tmp_path, monkeypatch
):
    """A read-only replica holds its generation's data file from the open
    on.  Workers that opened a reused bundle and read no page yet, then an
    in-place save whose compaction unlinks that file (one page rewritten
    with its own bytes grew the journal): the next sharded batch answers
    as single-process, with no retry, restart or degraded request."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(requests)
    bundle = save_store(fresh_engine(test_dataset), tmp_path / "bundle", 300)
    engine = open_store(bundle)
    with ShardedEngine(QueryService(engine), shards=2) as sharded:
        wait_until_serving(sharded)
        old_data = generation_file(bundle / "disk", "bin")
        ReachabilityClient(sharded.service).run_batch(requests)
        engine.disk.write_page(0, engine.disk.read_page(0))
        monkeypatch.setattr(filedisk, "MAX_JOURNAL_SHARE", 0.0)
        save_store(engine, bundle, 300)
        assert not old_data.exists()
        report = sharded.run_batch(requests)
    assert_identical(baseline, report)
    assert (report.retries, report.worker_restarts, report.degraded_requests) == (0, 0, 0)


@pytest.mark.sharded
def test_a_private_bundle_lives_as_long_as_the_engine(test_dataset):
    """A RAM engine's replicas open one private save.  It is removed by
    ``close()``, by an append that retires the workers, and by a close
    after a respawn (which reopened it)."""
    requests = mixed_requests(test_dataset.network, 4, 1)
    trajectory = MatchedTrajectory(
        trajectory_id=10**6, taxi_id=0, date=0,
        visits=[SegmentVisit(0, 11 * 3600, 6.0)],
    )
    for ending in ("close", "append", "respawn"):
        engine = fresh_engine(test_dataset)
        sharded = ShardedEngine(QueryService(engine), shards=2)
        bundle = Path(sharded._payload.bundle)
        assert (bundle / "directory.npz").exists()
        if ending == "append":
            engine.append_trajectories([trajectory], update_database=False)
            assert sharded.closed
        else:
            if ending == "respawn":
                kill_workers(sharded)
                assert sharded.run_batch(requests).worker_restarts == 2
                assert (bundle / "directory.npz").exists()
            sharded.close()
        assert not bundle.exists(), ending


def test_a_construction_failure_after_the_save_removes_the_bundle(
    test_dataset, monkeypatch
):
    from repro.serving import dispatcher

    saved = []

    def export(engine, delta_t_s, private_dir):
        saved.append(Path(private_dir))
        return export_shard_payload(engine, delta_t_s, private_dir)

    def failing_spawn(*args, **kwargs):
        assert (saved[0] / "directory.npz").exists()
        raise OSError("no process for the worker")

    monkeypatch.setattr(dispatcher, "export_shard_payload", export)
    monkeypatch.setattr(ShardedEngine, "_spawn_worker", failing_spawn)
    with pytest.raises(OSError, match="no process"):
        ShardedEngine(fresh_engine(test_dataset), shards=2)
    assert saved and not saved[0].exists()


def test_a_save_to_another_path_copies_the_pages_once(tmp_path):
    """Saving a RAM disk's pages as a store holds one copy of its buffer
    at a time, not the exported bytes plus their adopted copy."""
    page_size, pages = 1024, 8192
    disk = SimulatedDisk(page_size=page_size)
    disk.write_extent(disk.allocate(pages), bytes(range(256)) * (pages * page_size // 256))
    size = pages * page_size
    tracemalloc.start()
    try:
        copy = FileBackedDisk.copy_of(tmp_path / "disk", disk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    copy.close()
    assert size < peak < 1.25 * size
    assert FileBackedDisk.open(tmp_path / "disk").export_state() == disk.export_state()


def test_shards_below_one_raise_before_export_or_spawn(test_dataset, monkeypatch):
    from repro.serving import dispatcher

    def forbidden(*args, **kwargs):
        raise AssertionError("exported or spawned for an invalid shard count or fault plan")

    monkeypatch.setattr(dispatcher, "export_shard_payload", forbidden)
    monkeypatch.setattr(ShardedEngine, "_spawn_worker", forbidden)
    for shards in (0, -2):
        with pytest.raises(ValueError, match="must be >= 1"):
            ShardedEngine(fresh_engine(test_dataset), shards=shards)
    stray = FaultPlan.of(FaultSpec(kind=KILL_IN_RUN, worker=2, at=1))
    with pytest.raises(ValueError, match="targets worker 2"):
        ShardedEngine(fresh_engine(test_dataset), shards=2, fault_plan=stray)


@pytest.mark.sharded
def test_a_batch_that_fails_planning_leaves_no_frame_behind(test_dataset):
    """Planning runs in the parent before the scatter, so a request that
    cannot be planned raises before any worker sees the batch: the next
    batch finds clean pipes (no stale frame, retry or restart) and
    answers as single-process does."""
    workload = QueryWorkload(test_dataset.network, seed=23)
    valid = [
        Request(query)
        for query in workload.s_queries(3, start_time_s=9 * 3600)
    ]
    invalid = Request(
        valid[0].query, QueryOptions(algorithm="mqmb_tbs")
    )
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(valid)
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2
    ) as sharded:
        sharded.run_batch(valid)
        sent = sharded._next_request_id
        with pytest.raises(ValueError, match="unknown s-query algorithm"):
            sharded.run_batch(valid + [invalid])
        assert sharded._next_request_id == sent  # nothing was scattered
        report = sharded.run_batch(valid)
    assert (report.stale_frames, report.retries, report.worker_restarts) == (
        0, 0, 0,
    )
    for expected, actual in zip(baseline.results, report.results):
        assert actual.segments == expected.segments
        assert actual.probabilities == expected.probabilities

@pytest.mark.sharded
def test_a_failing_local_sub_batch_replaces_the_busy_workers(test_dataset, monkeypatch):
    """When the dispatcher-local foreign-Δt sub-batch raises while the
    workers crunch, those workers are replaced, so their replies cannot
    reach the next batch as stale frames."""
    from repro.serving import dispatcher

    workload = QueryWorkload(test_dataset.network, seed=23)
    valid = [Request(q) for q in workload.s_queries(3, start_time_s=9 * 3600)]
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(valid)
    run_sub_batch = dispatcher.run_sub_batch

    def failing(service, entries, warm):
        raise RuntimeError("local sub-batch failed")

    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2
    ) as sharded:
        monkeypatch.setattr(dispatcher, "run_sub_batch", failing)
        with pytest.raises(RuntimeError, match="local sub-batch failed"):
            sharded.run_batch(valid + at_delta_t(valid[:1], 600))
        monkeypatch.setattr(dispatcher, "run_sub_batch", run_sub_batch)
        assert {h.incarnation for h in sharded._workers.values()} == {1}
        report = sharded.run_batch(valid)
    assert (report.stale_frames, report.retries, report.worker_restarts) == (
        0, 0, 0,
    )
    assert_identical(baseline, report)


@pytest.mark.sharded
def test_only_each_route_m_queries_split_across_groups(test_dataset, monkeypatch):
    """A cross-group ``*_each`` m-query ships one s-query per distinct
    location to that location's group, under the route's per-location
    algorithm; any other m-query ships whole to the group owning most of
    its locations.  Every answer equals single-process in full."""
    from repro.serving import dispatcher

    requests = mixed_requests(test_dataset.network)
    m_queries = [r.query for r in requests if isinstance(r.query, MQuery)]
    requests += [
        Request(query, QueryOptions(algorithm="sqmb_tbs_each"))
        for query in m_queries
    ]
    baseline = ReachabilityClient(fresh_engine(test_dataset)).run_batch(
        requests
    )
    merged_parts: list[list[QueryResult]] = []

    def recording(results):
        merged_parts.append(results)
        return _merge_parts(results)

    monkeypatch.setattr(dispatcher, "_merge_parts", recording)
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2
    ) as sharded:
        dispatch = sharded.plan_dispatch(requests)
        cross_group = cross_group_m_queries(sharded, requests)
        report = sharded.run_batch(requests)
        locator = sharded._st_index.locator

    forced = set(range(len(requests) - len(m_queries), len(requests)))
    assert dispatch.decomposed and cross_group - forced
    assert dispatch.decomposed == {
        seq for seq in cross_group
        if ROUTER.route(requests[seq], 300).algorithm == "sqmb_tbs_each"
    }
    assert forced & cross_group <= dispatch.decomposed
    assert len(merged_parts) == len(dispatch.decomposed)
    for shard_id, entries in dispatch.per_shard.items():
        for seq, part_idx, request in entries:
            query = requests[seq].query
            if seq in dispatch.decomposed:
                distinct = list(dict.fromkeys(query.locations))
                assert request.query == query.as_s_queries()[
                    query.locations.index(distinct[part_idx])
                ]
                assert request.options.algorithm == "sqmb_tbs"
                locations = (request.query.location,)
            else:
                assert (part_idx, request) == (0, requests[seq])
                locations = (
                    query.locations if isinstance(query, MQuery) else (query.location,)
                )
            owners = [sharded.plan.owner_of[int(s)] for s in locator.locate(locations)]
            assert max(owners, key=owners.count) == shard_id
    assert_identical(baseline, report)


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
def test_every_reply_body_is_the_one_runners(test_dataset, monkeypatch, tmp_path, path):
    """A worker reply, a degraded re-run and the foreign-Δt fallback
    answer the same entries with the same body: same keys, same unpacked
    results, same accounting window."""
    from repro.serving import dispatcher
    from repro.serving.protocol import MSG_RUN, MSG_SHUTDOWN, PROTOCOL_VERSION
    from repro.serving.worker import run_sub_batch, shard_worker_main

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
        command = {"version": PROTOCOL_VERSION, "warm": False, "entries": entries}
        conn = _ScriptedConn([(MSG_RUN, 0, command), (MSG_SHUTDOWN,)])
        shard_worker_main(
            conn, export_shard_payload(fresh_engine(test_dataset), 300, tmp_path)
        )
        ((_, _, body),) = conn.sent
        assert body.pop("version") == PROTOCOL_VERSION
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
def replica_payload(test_dataset, tmp_path_factory):
    """The one payload every worker of a sharded engine opens."""
    return export_shard_payload(
        fresh_engine(test_dataset), 300, tmp_path_factory.mktemp("replica")
    )


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
        # A MSG_RUN whose entries are not (seq, part, request) triples
        # fails inside run_sub_batch; the reply must carry the
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
                        "entries": [("not", "a triple")],
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

    def test_version_3_frames_are_refused(self):
        # Version 3 wrapped the entries and the reply in {shard_id: ...}
        # maps; neither side half-reads such a frame.
        from repro.serving.protocol import (
            MSG_OK,
            MSG_RUN,
            PROTOCOL_VERSION,
            ProtocolError,
            parse_command,
            parse_reply,
        )

        assert PROTOCOL_VERSION == 5
        with pytest.raises(ProtocolError, match="version mismatch"):
            parse_command((MSG_RUN, 1, {"version": 3, "warm": False, "shards": {0: []}}))
        with pytest.raises(ProtocolError, match="version mismatch"):
            parse_reply((MSG_OK, 1, {"version": 3, "shards": {0: {}}}))
        with pytest.raises(ProtocolError, match="no results list"):
            parse_reply((MSG_OK, 1, {"version": PROTOCOL_VERSION, "shards": {0: {}}}))

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
