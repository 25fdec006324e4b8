"""The closed-loop runner: inputs, set-up, passes, estimators, result line.

A run is one client process answering one workload.  A *pass* is a fixed
list of public calls, identical in every pass; the first pass is untimed
(lazy Con-Index materialisation, CSR views and worker warm-up are set-up)
and the timed window repeats whole passes.  Gated times are divided by the
speed factor the :mod:`probe <perf.probe>` saw over the same pass; counts
come from the program's own ``QueryCost``/``BatchReport``/``DiskStats``.
Every pass's answers must hash to the first pass's digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import shutil
import signal
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import spans
from .inputs import DEFAULT, InputGenerator, WorkloadConfig, WorkloadInputs
from .probe import Probe

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
#: Untracked output directory: dataset cache, temp stores, traces.
OUT_DIR = PERF_DIR / "out"

#: The contract allows 180 s per run; leave room to reap workers and print.
HARD_TIMEOUT_S = 165

#: name -> (unit, better).  ``BENCHMARK.json`` repeats these with bounds.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "qps": ("req/s", "higher"),
    "call_p50_ms": ("ms", "lower"),
    "call_p95_ms": ("ms", "lower"),
    "page_reads_per_query": ("pages", "lower"),
    "store_bytes_per_visit": ("bytes", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better) of every per-layer metric, in README table order.
PER_LAYER: dict[str, tuple[str, str]] = {
    "api.route_plan_us_per_req": ("us", "lower"),
    "api.plans_reused_ratio": ("ratio", "higher"),
    "core.region_cache.hit_ratio": ("ratio", "higher"),
    "core.executors.glue_ms_per_query": ("ms", "lower"),
    "core.sqmb.region_ms_per_query": ("ms", "lower"),
    "core.sqmb.segments_expanded_per_query": ("count", "lower"),
    "network.csr.expand_ms_per_query": ("ms", "lower"),
    "core.con_index.entry_ms_per_query": ("ms", "lower"),
    "core.con_index.entries_built": ("count", "lower"),
    "core.con_index.warm_pass_s": ("s", "lower"),
    "core.tbs.search_ms_per_query": ("ms", "lower"),
    "core.tbs.waves_per_query": ("count", "lower"),
    "core.tbs.max_wave": ("count", "lower"),
    "core.tbs.prob_checks_per_query": ("count", "lower"),
    "core.tbs.examined_share": ("ratio", "lower"),
    "core.prob_kernel.eval_ms_per_query": ("ms", "lower"),
    "core.prob_kernel.kernel_evals": ("count", "lower"),
    "core.prob_kernel.scalar_evals": ("count", "lower"),
    "core.st_index.build_s": ("s", "lower"),
    "core.st_index.find_start_us_per_query": ("us", "lower"),
    "core.st_index.gather_ms_per_query": ("ms", "lower"),
    "core.st_index.decode_ms_per_query": ("ms", "lower"),
    "core.st_index.record_reads_per_query": ("count", "lower"),
    "core.st_index.append_ms_per_trajectory": ("ms", "lower"),
    "storage.pagestore.read_many_ms_per_query": ("ms", "lower"),
    "storage.pagestore.page_accesses_per_query": ("count", "lower"),
    "storage.pagestore.pool_hit_ratio": ("ratio", "higher"),
    "storage.pagestore.pool_evictions_per_query": ("count", "lower"),
    "storage.disk.read_ms_per_query": ("ms", "lower"),
    "storage.disk.page_writes": ("count", "lower"),
    "storage.disk.write_amplification": ("ratio", "lower"),
    "storage.filedisk.fsync_wait_ms_p50": ("ms", "lower"),
    "storage.filedisk.fsyncs_per_cycle": ("count", "lower"),
    "storage.filedisk.commit_ms_p50": ("ms", "lower"),
    "storage.filedisk.checkpoint_s": ("s", "lower"),
    "storage.filedisk.pages_faulted_per_cycle": ("count", "lower"),
    "storage.filedisk.journal_bytes_per_visit": ("bytes", "lower"),
    "io.persist.save_store_s": ("s", "lower"),
    "io.persist.open_store_s": ("s", "lower"),
    "io.persist.reopen_replay_s": ("s", "lower"),
    "io.persist.store_bytes": ("bytes", "lower"),
    "serving.partition.plan_s": ("s", "lower"),
    "serving.partition.export_s": ("s", "lower"),
    "serving.partition.halo_share": ("ratio", "lower"),
    "serving.dispatcher.spawn_s": ("s", "lower"),
    "serving.dispatcher.plan_dispatch_ms_per_batch": ("ms", "lower"),
    "serving.dispatcher.sub_requests_per_request": ("ratio", "lower"),
    "serving.dispatcher.parent_overhead_ms_per_batch": ("ms", "lower"),
    "serving.protocol.pack_us_per_result": ("us", "lower"),
    "serving.protocol.unpack_us_per_result": ("us", "lower"),
    "serving.protocol.bytes_per_result": ("bytes", "lower"),
    "serving.worker.wall_ms_per_batch_max": ("ms", "lower"),
    "serving.worker.wall_imbalance": ("ratio", "lower"),
    "serving.worker.rss_mb_sum": ("MB", "lower"),
    "serving.dispatcher.retries": ("count", "lower"),
    "serving.dispatcher.worker_restarts": ("count", "lower"),
    "serving.dispatcher.degraded_requests": ("count", "lower"),
    "datasets.generate_s": ("s", "lower"),
    "bench.probe_speed_factor": ("ratio", "lower"),
    "bench.passes": ("count", "higher"),
    "bench.raw_pass_ms_p50": ("ms", "lower"),
    "bench.raw_pass_iqr_ratio": ("ratio", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.trace_coverage": ("ratio", "higher"),
}


class HardTimeout(BaseException):
    """The per-workload alarm fired; derives from BaseException so no
    recovery path inside the program can swallow it."""


# -- inputs -------------------------------------------------------------------


def _generator_fingerprint(config: WorkloadConfig) -> str:
    """Hash of the city config and of every source file that shapes it."""
    digest = hashlib.sha1(repr(config.city).encode())
    source = REPO_ROOT / "src" / "repro"
    for package in ("datasets", "network", "spatial", "trajectory"):
        for path in sorted((source / package).glob("*.py")):
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_city(config: WorkloadConfig, use_cache: bool):
    """The generated city as ``(network, database, seconds, generated)``.

    The city does not depend on the run's seed, and generating it costs as
    much as half a run, so it is pickled under the output directory, keyed
    by the generator's sources, and later runs of the checkout load it.
    """
    from repro.datasets.shenzhen_like import build_shenzhen_like

    started = perf_counter()
    cache = OUT_DIR / "cache" / f"city-{_generator_fingerprint(config)}.pkl"
    if use_cache and cache.exists():
        with cache.open("rb") as handle:
            # Written by this program below; nothing else writes there.
            network, database = pickle.load(handle)
        return network, database, perf_counter() - started, False
    dataset = build_shenzhen_like(config.city)
    network, database = dataset.network, dataset.database
    database.finalize()
    network.csr()
    elapsed = perf_counter() - started
    if use_cache:
        cache.parent.mkdir(parents=True, exist_ok=True)
        scratch = cache.with_suffix(f".{os.getpid()}.tmp")
        with scratch.open("wb") as handle:
            pickle.dump((network, database), handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, cache)
    return network, database, elapsed, True


# -- what a run carries around -------------------------------------------------


class DeviceWait:
    """Times every ``os.fsync`` the program issues while installed.

    A flush on this box's virtual disk takes anywhere from 0.5 to 150 ms
    from one second to the next, which no code change here can move and no
    CPU probe can correct, so gated times exclude the wait and the per-layer
    metrics report it next to the number of flushes.  This is the one
    wrapper present while end-to-end numbers are taken; it adds two clock
    reads to a system call.
    """

    def __init__(self) -> None:
        self.waits: list[float] = []
        self.total_s = 0.0

    def __enter__(self) -> "DeviceWait":
        self._fsync = os.fsync
        os.fsync = self._timed_fsync
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._fsync

    def _timed_fsync(self, fd) -> None:
        started = perf_counter()
        try:
            self._fsync(fd)
        finally:
            waited = perf_counter() - started
            self.waits.append(waited)
            self.total_s += waited


@dataclass
class RunContext:
    """Inputs and shared tools handed to a workload."""

    config: WorkloadConfig
    inputs: WorkloadInputs
    network: object
    database: object
    work_dir: Path
    device: DeviceWait
    tracer: spans.Tracer | None = None

    def release_city(self) -> None:
        """Drop the generated city (``durable_cycle`` serves from the store)."""
        self.network = None
        self.database = None


class Counters(defaultdict):
    """Summed program counters of one or more passes."""

    def __init__(self) -> None:
        super().__init__(float)

    def add_result(self, result) -> None:
        cost = result.cost
        self["queries"] += 1
        self["probability_checks"] += cost.probability_checks
        self["waves"] += cost.probability_waves
        self["max_wave"] = max(self["max_wave"], cost.max_wave_size)
        self["kernel_evals"] += cost.kernel_probability_evals
        self["scalar_evals"] += cost.scalar_probability_evals
        self["record_reads"] += cost.batched_record_reads
        self["examined"] += cost.segments_expanded
        if result.max_region is not None:
            self["max_cover"] += len(result.max_region.cover)

    def add_io(self, io) -> None:
        self["page_reads"] += io.page_reads
        self["pool_hits"] += io.pool_hits
        self["pool_misses"] += io.pool_misses
        self["pool_evictions"] += io.pool_evictions

    def add_report(self, report) -> None:
        for result in report.results:
            self.add_result(result)
        self.add_io(report.io)
        self["requests"] += len(report.results)
        self["regions_computed"] += report.regions_computed
        self["regions_reused"] += report.regions_reused
        self["plans_reused"] += report.plans_reused

    def merge(self, other: "Counters") -> None:
        for key, value in other.items():
            if key == "max_wave":
                self[key] = max(self[key], value)
            else:
                self[key] += value


def answer_digest(hasher, result) -> None:
    """Fold one answer (segment set + computed probabilities) into a hash."""
    hasher.update(np.fromiter(sorted(result.segments), dtype=np.int64).tobytes())
    items = sorted(result.probabilities.items())
    hasher.update(np.array([k for k, _ in items], dtype=np.int64).tobytes())
    hasher.update(np.array([v for _, v in items], dtype=np.float64).tobytes())


@dataclass
class CallRecord:
    """One public call: ``raw_s`` is wall time, ``device_s`` the part of it
    spent waiting in ``os.fsync``; gated figures use ``cpu_s``."""

    label: str
    requests: int
    visible: bool
    raw_s: float
    device_s: float

    @property
    def cpu_s(self) -> float:
        return self.raw_s - self.device_s


class PassRecorder:
    """Times the calls of one pass and interleaves the probe bursts."""

    def __init__(
        self,
        probe: Probe,
        device: DeviceWait,
        tracer: spans.Tracer | None,
        probe_every: int,
        probe_bursts: int,
    ) -> None:
        self.probe = probe
        self.device = device
        self.tracer = tracer
        self.probe_every = probe_every
        self.probe_bursts = probe_bursts
        self.calls: list[CallRecord] = []
        self.counters = Counters()
        self.hasher = hashlib.sha256()
        self.mark = probe.mark()
        self._since_probe = 0

    def call(self, label: str, fn, requests: int = 1, visible: bool = False):
        """One public call: timed, traced when tracing, then the probe."""
        waited = self.device.total_s
        started = perf_counter()
        result = self.tracer.call(label, fn) if self.tracer is not None else fn()
        elapsed = perf_counter() - started
        self.calls.append(
            CallRecord(label, requests, visible, elapsed, self.device.total_s - waited)
        )
        self._since_probe += 1
        if self._since_probe >= self.probe_every:
            self._since_probe = 0
            self.probe.run(self.probe_bursts)
        return result

    @property
    def raw_s(self) -> float:
        return sum(call.raw_s for call in self.calls)

    @property
    def cpu_s(self) -> float:
        return sum(call.cpu_s for call in self.calls)

    @property
    def requests(self) -> int:
        return sum(call.requests for call in self.calls)

    @property
    def factor(self) -> float:
        return self.probe.factor_since(self.mark)


class Workload:
    """One named workload: set-up, the pass, the untimed gates, teardown."""

    name = ""
    why = ""
    min_passes = 3
    #: Whether an untimed first pass precedes the timed window.
    warm_pass = True
    #: Probe bursts run after every ``probe_every``-th call.
    probe_every = 1
    probe_bursts = 20
    query_targets = spans.QUERY_TARGETS

    def __init__(self, context: RunContext) -> None:
        self.context = context
        self.setup_parts: dict[str, float] = {}

    @property
    def requests_per_pass(self) -> int:
        raise NotImplementedError

    def set_up(self) -> None:
        """Everything between generated inputs and the first possible answer."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the first pass."""

    def run_pass(self, recorder: PassRecorder) -> None:
        raise NotImplementedError

    def gate(self) -> list[str]:
        """Untimed correctness checks after the passes; returns failures."""
        return []

    def store_bytes(self) -> int:
        raise NotImplementedError

    def indexed_visits(self) -> int:
        return self.context.inputs.indexed_visits

    def layer_extras(self, traced: list[PassRecorder]) -> dict[str, float]:
        """Workload-specific per-layer metrics (serving, durability)."""
        return {}

    def close(self) -> None:
        pass


# -- the run -------------------------------------------------------------------


@dataclass
class RunResult:
    """What one run found, before it is rendered as the result line."""

    workload: str
    seed: int
    trace: bool
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def units(self) -> dict[str, str]:
        """Name -> unit of the metrics this run reports (by ``--trace``)."""
        table = PER_LAYER if self.trace else END_TO_END
        return {name: unit for name, (unit, _) in table.items()}

    def line(self) -> str:
        return json.dumps(
            {
                "correct": bool(self.correct and self.failed == 0),
                "attempted": max(1, int(self.attempted)),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": float(self.metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in self.units().items()
                },
            }
        )

    def document(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": int(self.trace),
            "digest": self.digest,
            "counts": self.counts,
            "notes": self.notes,
            "result": json.loads(self.line()),
        }


def peak_rss_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _quartile_ratio(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def _raise_timeout(signum, frame):
    raise HardTimeout()


def _reap(children) -> None:
    """Stop worker processes a closed client should already have stopped."""
    for child in children:
        if child.is_alive():
            child.terminate()
    for child in children:
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join(timeout=5)


class Runner:
    """Drives one workload through set-up, passes and gates."""

    def __init__(
        self,
        workload_cls,
        seed: int,
        seconds: float,
        trace: bool,
        config: WorkloadConfig = DEFAULT,
        expect_digest: str | None = None,
    ) -> None:
        self.workload_cls = workload_cls
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.config = config
        self.expect_digest = expect_digest
        self.result = RunResult(workload_cls.name, seed, trace)
        self.probe = Probe()
        self.device = DeviceWait()
        self.tracer = spans.Tracer() if trace else None
        self.passes: list[PassRecorder] = []
        self.traced_from_pass = 0
        self.traced_from_span = 0
        self.workload: Workload | None = None
        self._pass_in_flight: PassRecorder | None = None
        self.setup_s = self.warm_s = self.generate_s = 0.0
        self._began = perf_counter()

    # -- phases ------------------------------------------------------------

    def run(self) -> RunResult:
        work_dir = OUT_DIR / "stores" / f"{self.workload_cls.name}-{os.getpid()}"
        others = set(multiprocessing.active_children())
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(HARD_TIMEOUT_S)
        try:
            self._run(work_dir)
        except HardTimeout:
            # Outstanding calls are failed; what completed is still reported.
            self.result.correct = False
            self.result.notes.append(f"hard timeout after {HARD_TIMEOUT_S} s")
            if self._pass_in_flight is not None:
                self._count_failed_pass(self.workload, self._pass_in_flight)
            if self.passes:
                self._finish(self.workload)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            if self.tracer is not None:
                self.tracer.uninstall()
            try:
                if self.workload is not None:
                    self.workload.close()
            except Exception:
                traceback.print_exc()
            _reap(set(multiprocessing.active_children()) - others)
            shutil.rmtree(work_dir, ignore_errors=True)
            gc.unfreeze()
        return self.result

    def _phase(self, name: str) -> None:
        """Record when a phase ended (seconds since the run began)."""
        self.result.counts[f"t_{name}_s"] = perf_counter() - self._began

    def _run(self, work_dir: Path) -> None:
        # Traced runs regenerate the city, so ``datasets.generate_s`` is a
        # measurement of this run and not of whichever run filled the cache.
        network, database, city_s, generated = load_city(
            self.config, use_cache=not self.trace
        )
        self._phase("city")
        inputs = InputGenerator(network, database, self.config, self.seed).generate()
        context = RunContext(
            self.config, inputs, network, database, work_dir, self.device, self.tracer
        )
        del network, database
        workload = self.workload = self.workload_cls(context)
        # Heap hygiene, outside timed spans only: the collector must not walk
        # the input generator's heap during set-up or the passes.
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            self.tracer.install(spans.SERVING_SETUP_TARGETS)
        self.generate_s = city_s if generated else 0.0
        started = perf_counter()
        workload.set_up()
        self.setup_s = perf_counter() - started
        self._phase("setup")
        if self.tracer is not None:
            self.tracer.uninstall()
        workload.prepare()
        gc.collect()
        gc.freeze()

        budget = self.seconds
        with self.device:
            if workload.warm_pass:
                warm = self._one_pass(workload, timed=False)
                self.warm_s = warm.raw_s if warm is not None else 0.0
            self._phase("warm")
            if self.trace:
                # A short untraced reference first, then the traced passes.
                self._timed_window(workload, budget / 3.0, 1)
                self.traced_from_pass = len(self.passes)
                self.traced_from_span = len(self.tracer.spans)
                self.tracer.install(workload.query_targets)
                try:
                    self._timed_window(workload, budget - budget / 3.0, 1)
                finally:
                    self.tracer.uninstall()
            else:
                self._timed_window(workload, budget, workload.min_passes)

        self._phase("window")
        for failure in workload.gate():
            self.result.correct = False
            self.result.notes.append(failure)
        self._phase("gate")
        self._finish(workload)

    def _one_pass(self, workload: Workload, timed: bool) -> PassRecorder | None:
        """Run one pass; a pass that raises fails all of its requests."""
        tracer = self.tracer if self.tracer is not None and self.tracer.active else None
        recorder = PassRecorder(
            self.probe, self.device, tracer, workload.probe_every, workload.probe_bursts
        )
        self.result.attempted += workload.requests_per_pass
        self._pass_in_flight = recorder
        try:
            workload.run_pass(recorder)
        except Exception:
            traceback.print_exc()
            self._count_failed_pass(workload, recorder)
            return None
        finally:
            gc.collect()
        self._pass_in_flight = None
        digest = recorder.hasher.hexdigest()
        if not self.result.digest:
            self.result.digest = digest
        expected = self.expect_digest or self.result.digest
        if digest != expected:
            # A wrong answer fails the pass's requests and misses every
            # latency figure.
            self.result.correct = False
            self.result.failed += workload.requests_per_pass
            self.result.notes.append(f"answer digest {digest} != expected {expected}")
            return None
        if timed:
            self.passes.append(recorder)
        return recorder

    def _count_failed_pass(self, workload: Workload, recorder: PassRecorder) -> None:
        """The calls a broken pass never completed are failed requests."""
        self._pass_in_flight = None
        self.result.correct = False
        self.result.failed += max(0, workload.requests_per_pass - recorder.requests)

    def _timed_window(self, workload: Workload, seconds: float, min_passes: int) -> None:
        """Repeat whole passes for about ``seconds`` (at least ``min_passes``)."""
        started = perf_counter()
        done = 0
        longest = 0.0
        while True:
            elapsed = perf_counter() - started
            # Stop when another whole pass would overshoot the window by
            # more than it would undershoot it.
            if done >= min_passes and elapsed + longest / 2.0 > seconds:
                break
            pass_started = perf_counter()
            self._one_pass(workload, timed=True)
            longest = max(longest, perf_counter() - pass_started)
            done += 1

    # -- estimators ----------------------------------------------------------

    def _finish(self, workload: Workload) -> None:
        result = self.result
        passes = self.passes
        gated = passes[self.traced_from_pass :] if self.trace else passes
        reference = passes[: self.traced_from_pass] if self.trace else passes
        if not gated:
            result.correct = False
            result.notes.append("no timed pass completed")
            return
        totals = Counters()
        for recorder in gated:
            totals.merge(recorder.counters)
        queries = max(1.0, totals["queries"])
        reads = {recorder.counters["page_reads"] for recorder in passes}
        if len(reads) > 1:
            result.correct = False
            result.notes.append(f"page reads differ between passes: {sorted(reads)}")
        result.counts.update(
            {
                "passes": len(passes),
                "queries_per_pass": totals["queries"] / len(gated),
                "page_reads_per_pass": totals["page_reads"] / len(gated),
                "store_bytes": workload.store_bytes(),
                "indexed_visits": workload.indexed_visits(),
            }
        )
        if self.trace:
            result.counts["setup_s"] = self.setup_s
            result.metrics = self._layer_metrics(workload, gated, reference, totals, queries)
            trace_path = OUT_DIR / "traces" / f"{workload.name}-seed{self.seed}.json"
            self.tracer.write_chrome_trace(trace_path)
            result.notes.append(f"chrome trace: {trace_path}")
            return
        corrected = [recorder.cpu_s / recorder.factor for recorder in gated]
        positions = [
            index for index, call in enumerate(gated[0].calls) if call.visible
        ]
        latencies_ms = [
            statistics.median(
                recorder.calls[index].cpu_s / recorder.factor for recorder in gated
            )
            * 1e3
            for index in positions
        ]
        result.metrics = {
            "setup_s": self.setup_s,
            "qps": workload.requests_per_pass / statistics.median(corrected),
            "call_p50_ms": float(np.percentile(latencies_ms, 50)),
            "call_p95_ms": float(np.percentile(latencies_ms, 95)),
            "page_reads_per_query": totals["page_reads"] / queries,
            "store_bytes_per_visit": workload.store_bytes() / workload.indexed_visits(),
            "peak_rss_mb": peak_rss_mb(),
        }
        raw_ms = [recorder.raw_s * 1e3 for recorder in gated]
        result.counts.update(
            {
                "probe_speed_factor": statistics.median(r.factor for r in gated),
                "raw_pass_ms_p50": statistics.median(raw_ms),
                "raw_pass_iqr_ratio": _quartile_ratio(raw_ms),
                "device_wait_ms_per_pass": self.device.total_s * 1e3 / len(passes),
                "warm_pass_s": self.warm_s,
            }
        )

    def _layer_metrics(
        self,
        workload: Workload,
        traced: list[PassRecorder],
        reference: list[PassRecorder],
        totals: Counters,
        queries: float,
    ) -> dict[str, float]:
        tracer = self.tracer
        self_s = defaultdict(float, tracer.self_times(self.traced_from_span))
        setup_self = defaultdict(float, tracer.self_times(0))
        requests = max(1.0, sum(recorder.requests for recorder in traced))
        call_wall = sum(recorder.raw_s for recorder in traced)
        labels = {call.label for recorder in traced for call in recorder.calls}
        unattributed = sum(self_s[label] for label in labels)
        raw_ms = [recorder.raw_s * 1e3 for recorder in traced]
        reference_ms = [recorder.raw_s * 1e3 for recorder in reference]
        accesses = totals["pool_hits"] + totals["pool_misses"]
        regions = totals["regions_computed"] + totals["regions_reused"]

        def per_query_ms(layer: str) -> float:
            return self_s[layer] * 1e3 / queries

        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update(
            {
                "api.route_plan_us_per_req": self_s["api.route_plan"] * 1e6 / requests,
                "api.plans_reused_ratio": totals["plans_reused"] / max(1.0, totals["requests"]),
                "core.region_cache.hit_ratio": totals["regions_reused"] / max(1.0, regions),
                "core.executors.glue_ms_per_query": per_query_ms("core.executors")
                + per_query_ms("core.region_cache"),
                "core.sqmb.region_ms_per_query": per_query_ms("core.sqmb"),
                "core.sqmb.segments_expanded_per_query": totals["examined"] / queries,
                "network.csr.expand_ms_per_query": per_query_ms("network.csr"),
                "core.con_index.entry_ms_per_query": per_query_ms("core.con_index"),
                "core.con_index.warm_pass_s": self.warm_s,
                "core.tbs.search_ms_per_query": per_query_ms("core.tbs"),
                "core.tbs.waves_per_query": totals["waves"] / queries,
                "core.tbs.max_wave": totals["max_wave"],
                "core.tbs.prob_checks_per_query": totals["probability_checks"] / queries,
                "core.tbs.examined_share": totals["examined"] / max(1.0, totals["max_cover"]),
                "core.prob_kernel.eval_ms_per_query": per_query_ms("core.prob_kernel"),
                "core.prob_kernel.kernel_evals": totals["kernel_evals"] / len(traced),
                "core.prob_kernel.scalar_evals": totals["scalar_evals"] / len(traced),
                "core.st_index.build_s": workload.setup_parts.get("build_s", 0.0),
                "core.st_index.find_start_us_per_query": self_s["core.st_index.find_start"]
                * 1e6
                / queries,
                "core.st_index.gather_ms_per_query": per_query_ms("core.st_index.gather"),
                "core.st_index.decode_ms_per_query": per_query_ms("core.st_index.decode"),
                "core.st_index.record_reads_per_query": totals["record_reads"] / queries,
                "storage.pagestore.read_many_ms_per_query": per_query_ms("storage.pagestore"),
                "storage.pagestore.page_accesses_per_query": accesses / queries,
                "storage.pagestore.pool_hit_ratio": totals["pool_hits"] / max(1.0, accesses),
                "storage.pagestore.pool_evictions_per_query": totals["pool_evictions"] / queries,
                "storage.disk.read_ms_per_query": per_query_ms("storage.disk"),
                "serving.partition.plan_s": setup_self["serving.partition.plan"],
                "serving.partition.export_s": setup_self["serving.partition.export"],
                "datasets.generate_s": self.generate_s,
                "bench.probe_speed_factor": statistics.median(r.factor for r in traced),
                "bench.passes": float(len(traced)),
                "bench.raw_pass_ms_p50": statistics.median(raw_ms),
                "bench.raw_pass_iqr_ratio": _quartile_ratio(raw_ms),
                "bench.trace_overhead_ratio": statistics.median(raw_ms)
                / statistics.median(reference_ms)
                if reference_ms
                else 0.0,
                "bench.trace_coverage": 1.0 - unattributed / call_wall if call_wall else 0.0,
            }
        )
        metrics.update(workload.layer_extras(traced))
        return metrics


def render(result: RunResult) -> str:
    """Every metric by name with its unit, then the contract's result line."""
    lines = [f"workload {result.workload} seed {result.seed} trace {int(result.trace)}"]
    for name, unit in result.units().items():
        lines.append(f"  {name:<52} {result.metrics.get(name, 0.0):>16.6f} {unit}")
    for name, value in result.counts.items():
        lines.append(f"  count {name:<46} {value:>16.6f}")
    lines.append(f"  digest {result.digest}")
    for note in result.notes:
        lines.append(f"  note: {note}")
    lines.append(result.line())
    return "\n".join(lines)


def execute(
    workload_cls,
    seed: int,
    seconds: float,
    trace: bool,
    config: WorkloadConfig = DEFAULT,
    expect_digest: str | None = None,
    out: Path | None = None,
) -> RunResult:
    """Run one workload and, when asked, write the full document to ``out``."""
    result = Runner(workload_cls, seed, seconds, trace, config, expect_digest).run()
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result.document(), indent=2) + "\n")
    return result
