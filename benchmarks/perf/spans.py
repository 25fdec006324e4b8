"""In-memory span tracing from outside the program.

The benchmark owns the tracing: ``src/`` has no span code, so a traced run
wraps each layer's public callables *at the names their callers resolve* —
a method on its class, a function on the module that imported it — for the
traced passes only, and restores them afterwards.  A span records its layer
name, start, end, the span that caused it and the id of the public call it
belongs to.  A layer's self time is its spans' duration minus the part their
child spans cover; spans are kept in memory and written out as a Chrome trace
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

#: ``(owner, attribute, layer)``: owner is a dotted module path, optionally
#: followed by ``:Class``.  Where several modules import one function, each
#: importing module is listed, because each resolves its own global.
QUERY_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.api.router:Router", "route", "api.route_plan"),
    ("repro.api.client", "plan_query", "api.route_plan"),
    ("repro.api.client", "execute_plan", "core.executors"),
    ("repro.core.service", "execute_plan", "core.executors"),
    ("repro.core.executors:ExecutionContext", "bounding_region", "core.region_cache"),
    ("repro.core.executors", "sqmb_bounding_region", "core.sqmb"),
    ("repro.core.executors", "mqmb_bounding_region", "core.sqmb"),
    ("repro.core.reverse", "reverse_bounding_region", "core.sqmb"),
    ("repro.core.sqmb", "expand_slotted", "network.csr"),
    ("repro.core.con_index", "time_bounded_expansion", "network.csr"),
    ("repro.core.con_index:ConnectionIndex", "entry", "core.con_index"),
    ("repro.core.con_index:ConnectionIndex", "travel_time_vector", "core.con_index"),
    ("repro.core.executors.sqmb_tbs", "trace_back_search", "core.tbs"),
    ("repro.core.executors.mqmb_tbs", "trace_back_search", "core.tbs"),
    ("repro.core.executors.reverse", "trace_back_search", "core.tbs"),
    ("repro.core.prob_kernel:ColumnarEq31Estimator", "__init__", "core.prob_kernel"),
    ("repro.core.prob_kernel:ColumnarEq31Estimator", "probabilities", "core.prob_kernel"),
    ("repro.core.st_index:STIndex", "find_start_segment", "core.st_index.find_start"),
    ("repro.core.st_index:STIndex", "gather_window_columns", "core.st_index.gather"),
    ("repro.core.st_index", "decode_time_list_columns", "core.st_index.decode"),
    ("repro.core.st_index:STIndex", "append_trajectories", "core.st_index.append"),
    ("repro.storage.pagestore:BufferPool", "get_pages", "storage.pagestore"),
    ("repro.storage.pagestore:BufferPool", "get_page", "storage.pagestore"),
    ("repro.storage.pagestore:BufferPool", "invalidate", "storage.pagestore"),
    ("repro.storage.pagestore:PageStore", "read", "storage.pagestore"),
    ("repro.storage.pagestore:PageStore", "append", "storage.pagestore"),
    ("repro.storage.pagestore:PageStore", "flush", "storage.pagestore"),
    ("repro.storage.pagestore:PageStore", "ensure_committed", "storage.pagestore"),
    ("repro.storage.disk:SimulatedDisk", "read_page", "storage.disk"),
    ("repro.storage.disk:SimulatedDisk", "write_page", "storage.disk"),
    ("repro.storage.disk:SimulatedDisk", "extent_bytes", "storage.disk"),
    ("repro.storage.disk:SimulatedDisk", "snapshot", "storage.disk"),
)

DURABLE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.io.persist", "open_store", "io.persist"),
    ("repro.io.persist", "save_store", "io.persist"),
    ("repro.io.persist", "load_network", "io.persist"),
    ("repro.core.st_index:STIndex", "restore", "core.st_index.restore"),
    ("repro.storage.backends.filedisk:FileBackedDisk", "open", "storage.filedisk"),
    ("repro.storage.backends.filedisk:FileBackedDisk", "commit", "storage.filedisk.commit"),
    ("repro.storage.backends.filedisk:FileBackedDisk", "checkpoint", "storage.filedisk.checkpoint"),
    ("repro.storage.backends.filedisk:FileBackedDisk", "close", "storage.filedisk"),
)

SERVING_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.serving.dispatcher:ShardedEngine", "run_batch", "serving.dispatcher"),
    ("repro.serving.dispatcher:ShardedEngine", "plan_dispatch", "serving.dispatcher.plan_dispatch"),
    ("repro.serving.dispatcher", "unpack_result", "serving.protocol.unpack"),
    ("repro.serving.dispatcher", "plan_query", "serving.dispatcher"),
    # ``mp_connection`` is the dispatcher's alias of the stdlib module, so
    # this is the one wrapper visible outside the program while installed.
    ("multiprocessing.connection", "wait", "serving.worker.wait"),
)

SERVING_SETUP_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.serving.dispatcher", "partition_network", "serving.partition.plan"),
    ("repro.serving.dispatcher", "export_shard_payload", "serving.partition.export"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Span recorder plus the install/restore of the layer wrappers."""

    def __init__(self) -> None:
        # One row per span: [layer, start, end, parent index, call id].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._call_id = 0
        self._installed: list[tuple[object, str, object]] = []
        #: Layers whose wrapped calls' return values are kept (``kept``):
        #: how the benchmark reads a partition or dispatch plan the client
        #: API does not hand out.
        self.keep = {"serving.partition.plan", "serving.dispatcher.plan_dispatch"}
        self.kept: dict[str, list] = defaultdict(list)

    # -- recording ---------------------------------------------------------

    def begin(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, perf_counter(), 0.0, parent, self._call_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def call(self, label: str, fn):
        """Run one public call under a root span (its own call id)."""
        self._call_id += 1
        index = self.begin(label)
        try:
            return fn()
        finally:
            self.end(index)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        begin, end = self.begin, self.end
        kept = self.kept[layer] if layer in self.keep else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def install(self, targets) -> None:
        for owner_path, attribute, layer in targets:
            owner = _resolve(owner_path)
            raw = vars(owner)[attribute]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: object = type(raw)(self._wrap(raw.__func__, layer))
            else:
                wrapped = self._wrap(raw, layer)
            self._installed.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    @property
    def active(self) -> bool:
        """Whether layer wrappers are currently installed."""
        return bool(self._installed)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    # -- analysis ----------------------------------------------------------

    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer self time (seconds) over spans ``first_span`` onward."""
        spans = self.spans
        child_time = defaultdict(float)
        for index in range(first_span, len(spans)):
            _, start, end, parent, _ = spans[index]
            if parent >= first_span:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index in range(first_span, len(spans)):
            layer, start, end, _, _ = spans[index]
            totals[layer] += (end - start) - child_time.get(index, 0.0)
        return dict(totals)

    def durations(self, layer: str, first_span: int = 0) -> list[float]:
        """Inclusive durations (seconds) of one layer's spans."""
        return [
            end - start
            for name, start, end, _, _ in self.spans[first_span:]
            if name == layer
        ]

    def write_chrome_trace(self, path: Path) -> None:
        """Write the spans in the Chrome ``traceEvents`` format."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "call": call_id},
            }
            for index, (layer, start, end, parent, call_id) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
