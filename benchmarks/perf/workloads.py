"""The four workloads: what a pass calls, and what proves its answers.

All four run on the default ShenzhenLike city.  They differ in how much work
requests share and in how large the working set is against the program's own
caches (a 1,024-page buffer pool per index, a 4,096-record decode LRU, a
1,024-region cache), because that is what decides which layer a change can
move — see README.md for the table.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import shutil
import statistics
from functools import partial
from time import perf_counter

from repro.api.client import ReachabilityClient
from repro.api.envelope import QueryOptions, Request
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery
from repro.io.persist import save_store
from repro.serving.protocol import pack_result, unpack_result
from repro.storage.crashsim import (
    CRASH_BEFORE_FSYNC,
    CrashPlan,
    CrashSpec,
    SimulatedCrash,
)

from . import spans
from .harness import PassRecorder, RunContext, Workload, answer_digest


def build_engine(context: RunContext) -> tuple[ReachabilityEngine, float]:
    """A fresh engine with its ST-Index built; returns the build seconds."""
    engine = ReachabilityEngine(context.network, context.database)
    started = perf_counter()
    engine.st_index(context.config.delta_t_s)
    return engine, perf_counter() - started


def disk_bytes(engine: ReachabilityEngine) -> int:
    return engine.disk.num_pages * engine.disk.page_size


def exhaustive_gate(client: ReachabilityClient, answered: list) -> list[str]:
    """Re-answer ``(request, result)`` pairs through the exhaustive route.

    ``es``/``es_each`` verify every road-connected segment against the raw
    time lists, with no bounding regions and no trace-back: everything they
    find reachable must be in the answer, and for single-location requests
    every probability both computed must be equal.  (An m-query's shared
    probabilities are not comparable: the two routes attribute a segment to
    different seeds.)
    """
    failures = []
    for request, answer in answered:
        multi = isinstance(request.query, MQuery)
        options = QueryOptions(
            direction=request.options.direction,
            algorithm="es_each" if multi else "es",
        )
        truth = client.send(Request(request.query, options)).result
        if not truth.segments <= answer.segments:
            failures.append(
                f"exhaustive route reaches {sorted(truth.segments - answer.segments)[:5]} "
                f"outside the answer of {request.query}"
            )
        if not multi and any(
            truth.probabilities[segment] != value
            for segment, value in answer.probabilities.items()
            if segment in truth.probabilities
        ):
            failures.append(f"probabilities differ from the exhaustive route: {request.query}")
    return failures


def fold_report(recorder: PassRecorder, report) -> None:
    """Count one batch report and fold its answers into the pass digest."""
    recorder.counters.add_report(report)
    for result in report.results:
        answer_digest(recorder.hasher, result)


class InteractiveUnique(Workload):
    name = "interactive_unique"
    why = (
        "240 distinct cold sends through a fresh client: route, plan, expansion and "
        "Con-Index reads run on every call, pools start invalidated, the decode LRU thrashes"
    )
    probe_every = 8
    probe_bursts = 90

    @property
    def requests_per_pass(self) -> int:
        return len(self.context.inputs.interactive)

    def set_up(self) -> None:
        self.engine, self.setup_parts["build_s"] = build_engine(self.context)
        self.sample: list = []

    def run_pass(self, recorder: PassRecorder) -> None:
        wanted = set(self.context.inputs.es_sample)
        sample = []
        # A fresh client per pass: no bounding region survives from the
        # previous pass, so expansion runs on every call of every pass.
        with ReachabilityClient(self.engine) as client:
            for index, request in enumerate(self.context.inputs.interactive):
                response = recorder.call(
                    "call.send", partial(client.send, request), visible=True
                )
                counters = recorder.counters
                counters.add_result(response.result)
                counters.add_io(response.cost.io)
                counters["requests"] += 1
                counters["regions_computed"] += response.regions_computed
                counters["regions_reused"] += response.regions_reused
                answer_digest(recorder.hasher, response.result)
                if index in wanted:
                    sample.append((request, response.result))
        self.sample = sample

    def gate(self) -> list[str]:
        with ReachabilityClient(self.engine) as client:
            return exhaustive_gate(client, self.sample)

    def store_bytes(self) -> int:
        return disk_bytes(self.engine)

    def layer_extras(self, traced) -> dict[str, float]:
        return engine_extras(self.engine, self.context.config.delta_t_s)


def engine_extras(engine: ReachabilityEngine, delta_t_s: int) -> dict[str, float]:
    """Whole-run write-side counters of an in-process engine."""
    stats = engine.disk.snapshot()
    floor = -(-stats.bytes_written // engine.disk.page_size)
    return {
        "core.con_index.entries_built": float(engine.con_index(delta_t_s).expansions),
        "storage.disk.page_writes": float(stats.page_writes),
        "storage.disk.write_amplification": stats.page_writes / floor if floor else 0.0,
    }


class BatchHot(Workload):
    name = "batch_hot"
    why = (
        "five fixed 40-request batches through one long-lived client: every region and "
        "plan reused, caches fit, so TBS waves, the Eq. 3.1 kernel and pool charging dominate"
    )
    probe_every = 1
    probe_bursts = 100

    @property
    def requests_per_pass(self) -> int:
        return sum(len(batch) for batch in self.context.inputs.batches)

    def set_up(self) -> None:
        self.engine, self.setup_parts["build_s"] = build_engine(self.context)
        self.client = self.make_client()
        self.reports: list = []

    def make_client(self) -> ReachabilityClient:
        return ReachabilityClient(self.engine)

    def run_pass(self, recorder: PassRecorder) -> None:
        reports = []
        for batch in self.context.inputs.batches:
            report = recorder.call(
                "call.run_batch",
                partial(self.client.run_batch, batch),
                requests=len(batch),
                visible=True,
            )
            fold_report(recorder, report)
            reports.append(report)
        self.reports = reports

    def gate(self) -> list[str]:
        if not self.reports:
            return ["no batch report to check"]
        with ReachabilityClient(self.engine) as client:
            return exhaustive_gate(client, batch_sample(self.context, self.reports[0]))

    def store_bytes(self) -> int:
        return disk_bytes(self.engine)

    def layer_extras(self, traced) -> dict[str, float]:
        return engine_extras(self.engine, self.context.config.delta_t_s)

    def close(self) -> None:
        client = getattr(self, "client", None)
        if client is not None:
            client.close()


def batch_sample(context: RunContext, report) -> list:
    """``(request, result)`` pairs of the first batch's exhaustive sample."""
    batch = context.inputs.batches[0]
    return [(batch[i], report.results[i]) for i in context.inputs.batch_es_sample]


def shard_workers() -> int:
    """The only extra processes: ``min(4, nproc)`` shard workers."""
    return min(4, os.cpu_count() or 1)


class ShardedBatch(BatchHot):
    name = "sharded_batch"
    why = (
        "the same five batches through backend='sharded': its difference to batch_hot is "
        "the serving tier (dispatch, decomposition, pipe codec, workers, merge) on real cores"
    )
    query_targets = spans.QUERY_TARGETS + spans.SERVING_TARGETS

    def make_client(self) -> ReachabilityClient:
        return ReachabilityClient(
            self.engine,
            backend="sharded",
            shards=self.context.config.shards,
            shard_workers=shard_workers(),
        )

    def set_up(self) -> None:
        super().set_up()
        # The first sharded batch partitions, exports and spawns; the first
        # reply is the first moment an answer is possible.
        started = perf_counter()
        self.client.run_batch(self.context.inputs.batches[0])
        self.setup_parts["sharded_s"] = perf_counter() - started

    def gate(self) -> list[str]:
        failures = super().gate()
        batches = self.context.inputs.batches
        with ReachabilityClient(self.engine) as oracle:
            for batch, report in zip(batches, self.reports):
                expected = oracle.run_batch(batch)
                for request, got, want in zip(batch, report.results, expected.results):
                    same = got.segments == want.segments
                    if not isinstance(request.query, MQuery):
                        same = same and got.probabilities == want.probabilities
                    if not same:
                        failures.append(f"sharded answer differs from single-process: {request.query}")
                windows = sum((shard.io for shard in report.shard_reports), type(report.io)())
                if windows != report.io:
                    failures.append("report.io is not the sum of the shard windows")
                if report.retries or report.worker_restarts or report.degraded_requests:
                    failures.append("the supervisor retried, restarted or degraded")
        return failures

    def layer_extras(self, traced) -> dict[str, float]:
        extras = engine_extras(self.engine, self.context.config.delta_t_s)
        tracer = self.context.tracer
        workers = shard_workers()
        batch_walls, group_max, imbalance = [], [], []
        for report in self.reports:
            groups: dict[int, float] = {}
            for shard in report.shard_reports:
                # Worker i hosts shards i, i + workers, ... (ShardedEngine).
                key = shard.shard_id % workers
                groups[key] = groups.get(key, 0.0) + shard.worker_wall_s
            if groups:
                slowest = max(groups.values())
                batch_walls.append(report.wall_time_s - slowest)
                group_max.append(slowest)
                imbalance.append(slowest / statistics.mean(groups.values()))
        plans = tracer.kept["serving.partition.plan"]
        if plans:
            owned = sum(len(shard.owned) for shard in plans[0].shards)
            halo = sum(len(shard.halo) for shard in plans[0].shards)
            extras["serving.partition.halo_share"] = halo / owned
        dispatches = tracer.kept["serving.dispatcher.plan_dispatch"]
        batches = self.context.inputs.batches
        if dispatches:
            extras["serving.dispatcher.sub_requests_per_request"] = sum(
                plan.num_sub_requests + len(plan.fallback) for plan in dispatches
            ) / (len(dispatches) * len(batches[0]))
        setup_spans = sum(tracer.durations("serving.partition.plan")) + sum(
            tracer.durations("serving.partition.export")
        )
        results = [result for report in self.reports for result in report.results]
        started = perf_counter()
        packed = [pack_result(result) for result in results]
        pack_s = perf_counter() - started
        wire = sum(len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)) for item in packed)
        started = perf_counter()
        for item in packed:
            unpack_result(item)
        unpack_s = perf_counter() - started
        rss_kb = 0
        for child in multiprocessing.active_children():
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        rss_kb += int(line.split()[1])
        self_s = tracer.self_times()
        batches_traced = max(1, sum(len(r.calls) for r in traced))
        extras.update(
            {
                "serving.dispatcher.spawn_s": self.setup_parts["sharded_s"] - setup_spans,
                "serving.dispatcher.plan_dispatch_ms_per_batch": self_s.get(
                    "serving.dispatcher.plan_dispatch", 0.0
                )
                * 1e3
                / batches_traced,
                "serving.dispatcher.parent_overhead_ms_per_batch": statistics.mean(batch_walls)
                * 1e3,
                "serving.protocol.pack_us_per_result": pack_s * 1e6 / len(results),
                "serving.protocol.unpack_us_per_result": unpack_s * 1e6 / len(results),
                "serving.protocol.bytes_per_result": wire / len(results),
                "serving.worker.wall_ms_per_batch_max": statistics.mean(group_max) * 1e3,
                "serving.worker.wall_imbalance": statistics.mean(imbalance),
                "serving.worker.rss_mb_sum": rss_kb / 1024.0,
                "serving.dispatcher.retries": float(sum(r.retries for r in self.reports)),
                "serving.dispatcher.worker_restarts": float(
                    sum(r.worker_restarts for r in self.reports)
                ),
                "serving.dispatcher.degraded_requests": float(
                    sum(r.degraded_requests for r in self.reports)
                ),
            }
        )
        return extras


def batch_digest(report) -> str:
    hasher = hashlib.sha256()
    for result in report.results:
        answer_digest(hasher, result)
    return hasher.hexdigest()


class DurableCycle(Workload):
    name = "durable_cycle"
    why = (
        "file backend, every pass from a pristine store copy: open, cold batch, ten "
        "fsynced appends, batch, crash, reopen (journal replay), batch, checkpoint save"
    )
    # Every pass opens a pristine copy cold, so there is nothing to warm up
    # and the first pass is as good a sample as any other.
    warm_pass = False
    min_passes = 2
    probe_every = 1
    probe_bursts = 40
    query_targets = spans.QUERY_TARGETS + spans.DURABLE_TARGETS

    @property
    def requests_per_pass(self) -> int:
        return 3 * len(self.batch) + len(self.context.inputs.appends)

    @property
    def batch(self) -> list[Request]:
        return self.context.inputs.batches[0]

    def set_up(self) -> None:
        context = self.context
        self.engine, self.setup_parts["build_s"] = build_engine(context)
        self.store = context.work_dir / "store"
        started = perf_counter()
        save_store(self.engine, self.store, context.config.delta_t_s)
        self.setup_parts["save_s"] = perf_counter() - started
        self.file_bytes = 0
        self.cycle_stats: list[dict[str, float]] = []
        self.gate_failures: list[str] = []

    def prepare(self) -> None:
        """Reference answers from the builder engine, then drop it and the city."""
        with ReachabilityClient(self.engine) as client:
            report = client.run_batch(self.batch)
            self.reference_digest = batch_digest(report)
            self.gate_failures = exhaustive_gate(client, batch_sample(self.context, report))
        self.engine = None
        self.context.release_city()

    def run_pass(self, recorder: PassRecorder) -> None:
        context = self.context
        appends = context.inputs.appends
        work = context.work_dir / "work"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(self.store, work)
        # The crash plan fires at the fsync of the append *after* the
        # acknowledged ones and discards its unsynced journal bytes, so the
        # reopen below sees exactly what was flushed — killing a process
        # would leave the OS cache intact and prove nothing.
        crash = CrashPlan.of(CrashSpec(CRASH_BEFORE_FSYNC, at=len(appends) + 1))
        stats: dict[str, float] = {"fsyncs": -len(context.device.waits)}

        client = recorder.call(
            "call.open", partial(ReachabilityClient.open, work, crash_plan=crash), requests=0
        )
        try:
            cold = recorder.call(
                "call.run_batch", partial(client.run_batch, self.batch), requests=len(self.batch)
            )
            fold_report(recorder, cold)
            if batch_digest(cold) != self.reference_digest:
                raise AssertionError("opened store answers differ from the builder engine")
            ingest = client.service.append_trajectories
            for trajectories in appends:
                recorder.call(
                    "call.append",
                    partial(ingest, trajectories, update_database=False),
                    visible=True,
                )
            after = recorder.call(
                "call.run_batch", partial(client.run_batch, self.batch), requests=len(self.batch)
            )
            fold_report(recorder, after)
            journal = next((work / "disk").glob("journal.*.log"))
            stats["journal_bytes"] = journal.stat().st_size
            try:
                ingest(context.inputs.crash_append, update_database=False)
            except SimulatedCrash:
                pass
            else:
                raise AssertionError("the injected crash did not fire")
            stats["pages_faulted"] = client.engine.disk.pages_faulted
            stats["entries_built"] = client.engine.con_index(context.config.delta_t_s).expansions
        finally:
            client.close()
            client.engine.disk.close()

        client = recorder.call(
            "call.reopen", partial(ReachabilityClient.open, work), requests=0
        )
        try:
            self.check_durable(client)
            replayed = recorder.call(
                "call.run_batch", partial(client.run_batch, self.batch), requests=len(self.batch)
            )
            fold_report(recorder, replayed)
            if batch_digest(replayed) != batch_digest(after):
                raise AssertionError("answers after journal replay differ from before the crash")
            # Counted before the save: a checkpoint reads every page in.
            stats["pages_faulted"] += client.engine.disk.pages_faulted
            recorder.call("call.save", partial(client.save, work), requests=0)
            stats["entries_built"] += client.engine.con_index(context.config.delta_t_s).expansions
        finally:
            client.close()
            client.engine.disk.close()
        stats["fsyncs"] += len(context.device.waits)
        self.file_bytes = sum(p.stat().st_size for p in work.rglob("*") if p.is_file())
        self.cycle_stats.append(stats)

    def check_durable(self, client: ReachabilityClient) -> None:
        """Every acknowledged visit is readable; the crashed call left none."""
        inputs = self.context.inputs
        index = client.engine.st_index(self.context.config.delta_t_s)

        def stored(trajectory, visit) -> bool:
            ids = index.time_list(visit.segment_id, index.slot_of(visit.time_s))
            return trajectory.trajectory_id in ids.get(trajectory.date, ())

        for trajectories in inputs.appends:
            for trajectory in trajectories:
                for visit in trajectory.visits:
                    if not stored(trajectory, visit):
                        raise AssertionError(
                            f"acknowledged append lost: trajectory {trajectory.trajectory_id}"
                        )
        for trajectory in inputs.crash_append:
            if any(stored(trajectory, visit) for visit in trajectory.visits):
                raise AssertionError("an unacknowledged append survived the crash")

    def gate(self) -> list[str]:
        return self.gate_failures

    def appended_visits(self) -> int:
        return sum(len(t.visits) for call in self.context.inputs.appends for t in call)

    def store_bytes(self) -> int:
        return self.file_bytes

    def indexed_visits(self) -> int:
        return self.context.inputs.indexed_visits + self.appended_visits()

    def layer_extras(self, traced) -> dict[str, float]:
        tracer = self.context.tracer
        calls = [call for recorder in traced for call in recorder.calls]
        appended = self.context.config.appends * self.context.config.trajectories_per_append

        def median_s(label: str) -> float:
            return statistics.median(c.raw_s for c in calls if c.label == label)

        commits = tracer.durations("storage.filedisk.commit")
        checkpoints = tracer.durations("storage.filedisk.checkpoint")
        return {
            "core.con_index.entries_built": statistics.mean(
                s["entries_built"] for s in self.cycle_stats
            ),
            "core.st_index.append_ms_per_trajectory": tracer.self_times().get(
                "core.st_index.append", 0.0
            )
            * 1e3
            / ((appended + self.context.config.trajectories_per_append) * len(traced)),
            "storage.filedisk.fsync_wait_ms_p50": statistics.median(self.context.device.waits)
            * 1e3,
            "storage.filedisk.fsyncs_per_cycle": statistics.mean(
                s["fsyncs"] for s in self.cycle_stats
            ),
            "storage.filedisk.commit_ms_p50": statistics.median(commits) * 1e3,
            "storage.filedisk.checkpoint_s": statistics.median(checkpoints),
            "storage.filedisk.pages_faulted_per_cycle": statistics.mean(
                s["pages_faulted"] for s in self.cycle_stats
            ),
            "storage.filedisk.journal_bytes_per_visit": statistics.mean(
                s["journal_bytes"] for s in self.cycle_stats
            )
            / self.appended_visits(),
            "io.persist.save_store_s": self.setup_parts["save_s"],
            "io.persist.open_store_s": median_s("call.open"),
            "io.persist.reopen_replay_s": median_s("call.reopen"),
            "io.persist.store_bytes": float(self.file_bytes),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (InteractiveUnique, BatchHot, ShardedBatch, DurableCycle)
}
