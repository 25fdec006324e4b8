"""Tests for the one-thread-per-engine contract.

Every engine runs one thread at a time: ``ReachabilityEngine.lock`` is
taken at each client entry point (``send``, ``explain``, ``run_batch``,
each ``BatchStream`` pull) and by the engine's own
``append_trajectories`` / ``drop_indexes``.  These tests pin that each
entry point waits for the lock, that nothing keeps it between calls,
that the removed thread-pipeline options stay removed, and that
per-query costs are plain ``disk.snapshot()`` differences.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import QueryOptions, ReachabilityClient, Request
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery, SQuery
from repro.core.service import QueryService
from repro.spatial.geometry import Point
from repro.storage.disk import DiskStats
from repro.trajectory.model import day_time

CENTER = Point(0.0, 0.0)
T = day_time(11)
HELD_S = 0.3  # how long a blocked call is given to (wrongly) finish


def s_request(prob: float = 0.2, duration_s: float = 600) -> Request:
    return Request(SQuery(CENTER, T, duration_s, prob))


def run_while_locked(engine: ReachabilityEngine, call):
    """Run ``call`` on another thread while this thread holds the engine
    lock; assert it cannot finish until the lock is released, then return
    its value (or re-raise its error)."""
    done = threading.Event()
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = call()
        except BaseException as error:  # re-raised below
            outcome["error"] = error
        finally:
            done.set()

    thread = threading.Thread(target=target, daemon=True)
    with engine.lock:
        thread.start()
        assert not done.wait(HELD_S), "call finished while the lock was held"
    assert done.wait(120)
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def lock_is_free(engine: ReachabilityEngine) -> bool:
    """Whether another thread could take the engine lock right now."""
    result: list[bool] = []

    def probe() -> None:
        acquired = engine.lock.acquire(blocking=False)
        if acquired:
            engine.lock.release()
        result.append(acquired)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return result[0]


class TestEntryPointsTakeTheLock:
    def test_lock_is_reentrant(self, engine):
        with engine.lock:
            with engine.lock:
                assert not lock_is_free(engine)
            assert not lock_is_free(engine)
        assert lock_is_free(engine)

    def test_send_waits(self, engine):
        client = ReachabilityClient(engine)
        response = run_while_locked(engine, lambda: client.send(s_request()))
        assert response.segments == client.send(s_request()).segments

    def test_explain_waits(self, engine):
        client = ReachabilityClient(engine)
        explanation = run_while_locked(
            engine, lambda: client.explain(s_request())
        )
        assert explanation.stages
        assert explanation.response is not None

    def test_run_batch_waits(self, engine):
        client = ReachabilityClient(engine)
        requests = [s_request(0.2), s_request(0.4)]
        report = run_while_locked(engine, lambda: client.run_batch(requests))
        assert len(report.results) == 2

    def test_stream_pull_waits(self, engine):
        client = ReachabilityClient(engine)
        stream = client.stream([s_request(0.2), s_request(0.4)])
        first = run_while_locked(engine, lambda: next(stream))
        assert first.sequence == 0
        assert [r.sequence for r in stream] == [1]

    def test_engine_append_waits(self, engine):
        assert run_while_locked(engine, lambda: engine.append_trajectories([])) == 0

    def test_service_append_waits(self, engine):
        service = QueryService(engine)
        assert run_while_locked(engine, lambda: service.append_trajectories([])) == 0

    def test_drop_indexes_waits(self, test_dataset):
        fresh = ReachabilityEngine(test_dataset.network, test_dataset.database)
        fresh.st_index(300)
        run_while_locked(fresh, fresh.drop_indexes)
        assert fresh._st_indexes == {}


class TestNothingHoldsTheLockBetweenCalls:
    def test_free_after_send(self, engine):
        ReachabilityClient(engine).send(s_request())
        assert lock_is_free(engine)

    def test_free_after_run_batch(self, engine):
        ReachabilityClient(engine).run_batch([s_request(0.2), s_request(0.4)])
        assert lock_is_free(engine)

    def test_abandoned_stream_holds_nothing(self, engine):
        client = ReachabilityClient(engine)
        stream = client.stream([s_request(0.2), s_request(0.4), s_request(0.6)])
        next(stream)
        assert lock_is_free(engine)
        # Another caller runs while the stream sits half consumed.
        assert client.send(s_request(0.8)).segments is not None
        assert [r.sequence for r in stream] == [1, 2]

    def test_free_after_a_failed_batch(self, engine):
        client = ReachabilityClient(engine)
        bad = Request(SQuery(CENTER, T, 600, 0.2), QueryOptions(algorithm="nope"))
        with pytest.raises(ValueError, match="unknown"):
            client.run_batch([s_request(), bad])
        assert lock_is_free(engine)

    def test_free_after_a_stream_member_fails(self, engine, monkeypatch):
        client = ReachabilityClient(engine)
        stream = client.stream([s_request(0.2)])

        def boom(*args, **kwargs):
            raise RuntimeError("executor failed")

        monkeypatch.setattr("repro.api.client.execute_plan", boom)
        with pytest.raises(RuntimeError, match="executor failed"):
            next(stream)
        assert lock_is_free(engine)


class TestRemovedThreadOptions:
    def test_constructor_has_no_max_workers(self, engine):
        with pytest.raises(TypeError):
            ReachabilityClient(engine, max_workers=2)

    def test_stream_has_no_max_workers_or_window(self, engine):
        client = ReachabilityClient(engine)
        with pytest.raises(TypeError):
            client.stream([s_request()], max_workers=2)
        with pytest.raises(TypeError):
            client.stream([s_request()], window=4)

    def test_run_batch_has_no_max_workers(self, engine):
        with pytest.raises(TypeError):
            ReachabilityClient(engine).run_batch([s_request()], max_workers=2)

    def test_client_has_no_submit_thread(self, engine):
        assert not hasattr(ReachabilityClient, "submit")

    def test_close_is_idempotent(self, engine):
        client = ReachabilityClient(engine)
        client.close()
        client.close()
        assert client.send(s_request()).segments
        client.close()


class TestSnapshotAccounting:
    def test_a_send_on_another_thread_costs_what_a_send_costs(self, engine):
        client = ReachabilityClient(engine)
        request = s_request(0.3, 900)
        client.send(request)  # bounding region cached for both runs below
        sent = client.send(request)
        outcome: list = []
        thread = threading.Thread(target=lambda: outcome.append(client.send(request)))
        thread.start()
        thread.join(120)
        (threaded,) = outcome
        assert threaded.cost.io == sent.cost.io
        assert threaded.segments == sent.segments

    def test_send_cost_is_the_disk_snapshot_difference(self, engine):
        client = ReachabilityClient(engine)
        request = s_request(0.2, 1200)
        client.send(request)  # warm the region cache
        before = engine.disk.snapshot()
        response = client.send(request)
        spent = engine.disk.snapshot() - before
        assert response.cost.io.page_reads > 0
        assert response.cost.io.page_reads == spent.page_reads
        assert response.cost.io.bytes_read == spent.bytes_read

    def test_batch_io_is_the_disk_snapshot_difference(self, engine):
        client = ReachabilityClient(engine)
        requests = [
            s_request(0.2),
            Request(MQuery((CENTER, Point(1000.0, 800.0)), T, 600, 0.2)),
            s_request(0.5, 900),
        ]
        stream = client.stream(requests)  # indexes resolved before the window
        before = engine.disk.snapshot()
        responses = list(stream)
        spent = engine.disk.snapshot() - before
        assert stream.report.io == spent
        assert sum((r.cost.io for r in responses), DiskStats()) == spent

    def test_explain_stages_charge_the_query_reads(self, engine):
        client = ReachabilityClient(engine)
        explanation = client.explain(s_request(0.2, 1200))
        staged = sum(stage.page_reads for stage in explanation.stages)
        assert staged > 0
        assert staged <= explanation.response.cost.io.page_reads
