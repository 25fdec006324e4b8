"""The sharded-serving failure matrix, driven by deterministic faults.

Every scenario injects a :class:`~repro.serving.FaultPlan` (counter-
keyed, no sleeps, no real crashes) and asserts the tentpole guarantees:

* a worker killed mid-batch is respawned and the retry succeeds, with
  the batch's results **bit-identical** to the single-process oracle and
  the I/O windows still summing exactly;
* a sub-batch that exhausts its retries degrades to the dispatcher-local
  fallback — same results, exact ``DiskStats``, ``degraded_requests``
  accounted;
* a hung worker's deadline fires and its late reply is discarded by
  request id, never merged;
* a respawned worker serves the *next* batch identically;
* the same fault plan produces the same supervision counters twice.

Each cell runs on real spawn-context worker processes (marked both
``sharded`` and ``serving_faults`` — the CI chaos lane runs the latter).
"""

from __future__ import annotations

import pytest

from repro.api.client import ReachabilityClient
from repro.core.service import QueryService
from repro.serving import (
    CORRUPT_FRAME,
    DELAY_RESPONSE,
    DROP_FRAME,
    KILL_BEFORE_RECV,
    RAISE_IN_SERVE,
    FaultPlan,
    FaultSpec,
    ShardedEngine,
)
from repro.injection import Injector
from repro.serving import dispatcher
from repro.serving.faults import KILL_IN_RUN, RECV, RUN
from repro.serving.faults import (
    FAULT_EXIT_CODE,
    validate_plan,
)
from repro.storage.crashsim import (
    CRASH_BEFORE_FSYNC,
    CRASH_MID_RENAME,
    FSYNC,
    RENAME,
    CrashSpec,
)
from repro.storage.disk import DiskStats
from test_serving import fresh_engine, mixed_requests

pytestmark = [pytest.mark.sharded, pytest.mark.serving_faults]


@pytest.fixture()
def no_backoff(monkeypatch):
    """Retry without sleeping between attempts."""
    monkeypatch.setattr(dispatcher, "RETRY_BACKOFF_S", 0.0)


def oracle_report(test_dataset, requests):
    with ReachabilityClient(fresh_engine(test_dataset)) as client:
        return client.run_batch(requests)


def assert_matches_oracle(report, baseline, decomposed):
    """The existing equivalence contract: segments/starts always equal;
    probabilities and regions equal for every request that ran verbatim
    on one shard (decomposed parts may compute different — equally
    valid — shell probabilities)."""
    assert len(report.results) == len(baseline.results)
    for seq, (expected, actual) in enumerate(
        zip(baseline.results, report.results)
    ):
        assert actual.segments == expected.segments
        assert actual.start_segments == expected.start_segments
        if seq not in decomposed:
            assert actual.probabilities == expected.probabilities
            if expected.max_region is not None:
                assert actual.max_region.cover == expected.max_region.cover


def assert_exact_io(report):
    """Shard windows (degraded ones included) sum to the batch window;
    the workloads here are fully in-contract so there is no extra
    fallback term."""
    shard_sum = sum((s.io for s in report.shard_reports), DiskStats())
    assert shard_sum == report.io
    assert report.simulated_io_ms == pytest.approx(
        sum(s.simulated_io_ms for s in report.shard_reports)
    )


# -- plan plumbing (no processes) -------------------------------------------


class TestFaultPlanUnit:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")
        with pytest.raises(ValueError, match="trigger count"):
            FaultSpec(kind=DROP_FRAME, at=0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: FaultSpec(kind=DROP_FRAME, at=1.5),
            lambda: FaultSpec(kind=DROP_FRAME, at=True),
            lambda: FaultSpec(kind=DROP_FRAME, incarnation=-1),
            lambda: FaultSpec(kind=DROP_FRAME, incarnation=0.5),
            lambda: FaultSpec(kind=DROP_FRAME, worker=True),
            lambda: FaultSpec(kind=DROP_FRAME, worker=-1),
            lambda: CrashSpec(CRASH_BEFORE_FSYNC, at=1.5),
            lambda: CrashSpec(CRASH_BEFORE_FSYNC, at="2"),
            lambda: CrashSpec(CRASH_BEFORE_FSYNC, at=True),
        ],
    )
    def test_spec_rejects_values_that_never_fire(self, make):
        """A trigger count, worker or incarnation no counter can equal (or
        a bool standing in for an int) is refused at construction."""
        with pytest.raises(ValueError, match="must be an integer"):
            make()

    def test_validate_plan_rejects_unknown_worker(self):
        plan = FaultPlan.of(FaultSpec(kind=DROP_FRAME, worker=5))
        with pytest.raises(ValueError, match="worker 5"):
            validate_plan(plan, num_workers=2)
        validate_plan(plan, num_workers=6)  # in range: fine
        validate_plan(None, num_workers=0)  # no plan: fine

    def test_engine_ctor_validates_plan(self, test_dataset):
        plan = FaultPlan.of(FaultSpec(kind=DROP_FRAME, worker=9))
        with pytest.raises(ValueError, match="worker 9"):
            ShardedEngine(
                fresh_engine(test_dataset), shards=2, fault_plan=plan
            )

    def test_incarnation_filtering(self):
        always = FaultSpec(kind=DROP_FRAME, worker=1, incarnation=None)
        first = FaultSpec(kind=DROP_FRAME, worker=1, incarnation=0)
        plan = FaultPlan.of(always, first)
        assert plan.for_worker(1, 0) == (always, first)
        assert plan.for_worker(1, 3) == (always,)
        assert plan.for_worker(0, 0) == ()

    def test_injector_counters_deterministic(self):
        """One core counts each hook on its own and replays identically:
        worker faults and disk crashes alike."""
        drop = FaultSpec(kind=DROP_FRAME, worker=0, at=2)
        raise_ = FaultSpec(kind=RAISE_IN_SERVE, worker=0, at=3)
        rename = CrashSpec(CRASH_MID_RENAME, at=2)
        fsync = CrashSpec(CRASH_BEFORE_FSYNC, at=3)
        hooks = [RECV, RUN] * 4 + [FSYNC, FSYNC, RENAME, FSYNC, RENAME, FSYNC]
        runs = []
        for _ in range(2):
            injector = Injector(
                FaultPlan.of(drop, raise_).for_worker(0, 0) + (rename, fsync)
            )
            runs.append([injector.fire(hook) for hook in hooks])
        assert runs[0] == runs[1]
        assert runs[0] == [
            (), (), (), (drop,), (), (raise_,), (), (),  # recv/run alternate
            (), (), (), (fsync,), (rename,), (),  # 2nd rename, 3rd fsync
        ]


# -- the matrix (real worker processes) -------------------------------------


def test_kill_mid_batch_retry_succeeds(test_dataset):
    """Acceptance scenario: one worker dies mid-batch, the supervisor
    respawns it, the retry answers, and the merged batch is bit-identical
    to the single-process oracle with exact summed I/O."""
    requests = mixed_requests(test_dataset.network)
    baseline = oracle_report(test_dataset, requests)
    plan = FaultPlan.of(FaultSpec(kind=KILL_IN_RUN, worker=0, at=1))
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2, fault_plan=plan
    ) as sharded:
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)
        # the kill really happened: the incarnation-0 process received
        # the scatter and died, and the serving worker is incarnation 1
        assert sharded._workers[0].incarnation == 1
    assert report.worker_restarts == 1
    assert report.retries == 1
    assert report.degraded_requests == 0
    assert_matches_oracle(report, baseline, set(dispatch.decomposed))
    assert_exact_io(report)
    restarted = [s for s in report.shard_reports if s.worker_restarts]
    assert restarted  # the fault shows up on the owning shard's row


def test_retries_exhausted_degrades_to_local_fallback(test_dataset, no_backoff):
    """A worker that dies on *every* incarnation exhausts its retries;
    its sub-batch re-executes on the dispatcher-local fallback with
    results identical to the oracle and exact DiskStats accounting."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    baseline = oracle_report(test_dataset, requests)
    plan = FaultPlan.of(
        FaultSpec(kind=KILL_IN_RUN, worker=0, at=1, incarnation=None)
    )
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)),
        shards=2,
        fault_plan=plan,
        max_retries=1,
    ) as sharded:
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)
    assert_matches_oracle(report, baseline, set(dispatch.decomposed))
    assert_exact_io(report)
    # worker 0 hosts shard 0: every one of its sub-requests degraded
    expected_degraded = len(dispatch.per_shard[0])
    assert expected_degraded > 0
    assert report.degraded_requests == expected_degraded
    by_shard = {s.shard_id: s for s in report.shard_reports}
    assert by_shard[0].degraded_requests == expected_degraded
    assert by_shard[1].degraded_requests == 0  # healthy worker unaffected
    assert report.retries == 1  # the bounded budget, fully spent
    assert report.worker_restarts == 2  # initial death + retry death
    # the degraded shard's window equals a fresh single-process engine
    # running exactly that sub-batch: degradation preserves the oracle
    # accounting, not just the totals
    sub_requests = [request for _, _, request in dispatch.per_shard[0]]
    degraded_oracle = oracle_report(test_dataset, sub_requests)
    assert by_shard[0].io == degraded_oracle.io


def test_hung_worker_deadline_fires_and_late_frame_discarded(test_dataset, no_backoff):
    """DELAY_RESPONSE parks the first reply until after the dispatcher's
    deadline fired and retried: the late frame must be discarded by
    request id (counted, never merged) and the retry's answer used."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    baseline = oracle_report(test_dataset, requests)
    plan = FaultPlan.of(FaultSpec(kind=DELAY_RESPONSE, worker=0, at=1))
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)),
        shards=2,
        fault_plan=plan,
        deadline_ms=250.0,
    ) as sharded:
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)
        # the worker never died — it was merely late
        assert sharded._workers[0].incarnation == 0
    assert report.retries >= 1
    assert report.stale_frames >= 1
    assert report.worker_restarts == 0
    assert report.degraded_requests == 0
    assert report.deadline_ms == 250.0
    assert_matches_oracle(report, baseline, set(dispatch.decomposed))
    assert_exact_io(report)


def test_error_reply_retries_on_same_worker(test_dataset, no_backoff):
    """RAISE_IN_SERVE answers MSG_ERROR; the worker stays trusted (it
    replied coherently) and the retry on the same process succeeds."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    baseline = oracle_report(test_dataset, requests)
    plan = FaultPlan.of(FaultSpec(kind=RAISE_IN_SERVE, worker=0, at=1))
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)),
        shards=2,
        fault_plan=plan,
    ) as sharded:
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)
        assert sharded._workers[0].incarnation == 0  # no respawn
    assert report.retries == 1
    assert report.worker_restarts == 0
    assert_matches_oracle(report, baseline, set(dispatch.decomposed))
    assert_exact_io(report)


def test_corrupt_frame_respawns_and_retry_succeeds(test_dataset, no_backoff):
    """A reply that fails frame validation means the pipe can no longer
    be trusted: the supervisor respawns and the retry succeeds."""
    requests = mixed_requests(test_dataset.network, 6, 2)
    baseline = oracle_report(test_dataset, requests)
    plan = FaultPlan.of(FaultSpec(kind=CORRUPT_FRAME, worker=0, at=1))
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)),
        shards=2,
        fault_plan=plan,
    ) as sharded:
        report = sharded.run_batch(requests)
        dispatch = sharded.plan_dispatch(requests)
        assert sharded._workers[0].incarnation == 1
    assert report.worker_restarts == 1
    assert report.retries == 1
    assert_matches_oracle(report, baseline, set(dispatch.decomposed))
    assert_exact_io(report)


def test_respawned_worker_serves_next_batch_identically(test_dataset):
    """Kill a worker *between* batches (before its second recv): the
    liveness check respawns it at the next dispatch and the respawned
    engine answers the second batch exactly like the oracle."""
    batch1 = mixed_requests(test_dataset.network, 4, 1, seed=17)
    batch2 = mixed_requests(test_dataset.network, 4, 1, seed=23)
    baseline2 = oracle_report(test_dataset, batch2)
    plan = FaultPlan.of(FaultSpec(kind=KILL_BEFORE_RECV, worker=0, at=2))
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2, fault_plan=plan
    ) as sharded:
        report1 = sharded.run_batch(batch1)
        assert report1.worker_restarts == 0  # batch 1 was served healthy
        victim = sharded._workers[0].process
        victim.join(timeout=30)  # dies right after replying batch 1
        assert victim.exitcode == FAULT_EXIT_CODE
        report2 = sharded.run_batch(batch2)
        dispatch2 = sharded.plan_dispatch(batch2)
        assert sharded._workers[0].incarnation == 1
    assert report2.worker_restarts == 1
    assert report2.retries == 0  # respawned before dispatch, not after
    assert_matches_oracle(report2, baseline2, set(dispatch2.decomposed))
    assert_exact_io(report2)


def test_fault_plan_determinism(test_dataset, no_backoff):
    """Same plan, same workload, fresh engines: identical supervision
    counters and identical merged results on both runs."""
    requests = mixed_requests(test_dataset.network, 5, 2)
    plan = FaultPlan.of(
        FaultSpec(kind=KILL_IN_RUN, worker=0, at=1),
        FaultSpec(kind=RAISE_IN_SERVE, worker=1, at=1),
    )
    outcomes = []
    for _ in range(2):
        with ShardedEngine(
            QueryService(fresh_engine(test_dataset)),
            shards=2,
            fault_plan=plan,
        ) as sharded:
            report = sharded.run_batch(requests)
        outcomes.append(
            (
                report.worker_restarts,
                report.retries,
                report.degraded_requests,
                report.stale_frames,
                [r.segments for r in report.results],
                report.io,
            )
        )
    assert outcomes[0] == outcomes[1]


def test_fault_machinery_off_by_default(test_dataset):
    """No plan, no faults: a healthy batch reports all-zero supervision
    counters (the hot path's bookkeeping is observation-only)."""
    requests = mixed_requests(test_dataset.network, 4, 1)
    with ShardedEngine(
        QueryService(fresh_engine(test_dataset)), shards=2
    ) as sharded:
        report = sharded.run_batch(requests)
    assert report.worker_restarts == 0
    assert report.retries == 0
    assert report.degraded_requests == 0
    assert report.stale_frames == 0
    assert report.deadline_ms is not None  # the default deadline is armed
