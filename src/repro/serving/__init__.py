"""Sharded multi-process serving: route, scatter, gather.

The single-process pipeline (client → router → planner → executor →
storage) runs one thread at a time per engine, and one interpreter's
GIL would bound it anyway.  This package exports the engine once, rebuilds one
full replica (ST-Index, Con-Index and its own
:class:`~repro.storage.disk.SimulatedDisk`) in each ``multiprocessing``
worker process, and serves them behind a scatter-gather dispatcher:

* :mod:`repro.serving.partition` — the kd-median split of the network
  into K spatial routing groups, and the spawn-safe replica payload;
* :mod:`repro.serving.worker` — the worker-process entry point: rebuild
  the replica engine from the payload, serve each hosted group's
  sub-batch over a pipe;
* :mod:`repro.serving.protocol` — the pickle-framed messages and the
  numpy-packed result encoding that keeps IPC cheap;
* :mod:`repro.serving.dispatcher` — :class:`ShardedEngine`: routes each
  request to the group owning its start segment, decomposes cross-group
  m-queries, merges results, and aggregates per-group
  :class:`~repro.storage.disk.DiskStats` exactly — under a supervisor
  that respawns dead workers, retries timed-out scatters with backoff,
  and degrades exhausted sub-batches to the local fallback service;
* :mod:`repro.serving.faults` — deterministic fault injection
  (:class:`FaultPlan`, built on :mod:`repro.injection`) for reproducing
  every failure mode in tests.

Accounting guarantee: each group runs serially as one cold window on a
replica whose page geometry is identical to the full index, so its
:class:`~repro.core.service.ShardReport` page reads and pool counters
equal a fresh single-process engine running the same sub-requests —
proven by ``tests/test_serving.py``'s equivalence oracle.  Its
``page_writes`` can be lower: a worker's later group reuses the
Con-Index entries an earlier group on the same replica already built.
"""

from repro.serving.dispatcher import (
    DispatchPlan,
    ShardedEngine,
    ShardedEngineClosedError,
)
from repro.serving.faults import (
    CORRUPT_FRAME,
    DELAY_RESPONSE,
    DROP_FRAME,
    KILL_BEFORE_RECV,
    RAISE_IN_SERVE,
    FaultPlan,
    FaultSpec,
)
from repro.serving.partition import PartitionPlan, ShardSpec, partition_network

__all__ = [
    "CORRUPT_FRAME",
    "DELAY_RESPONSE",
    "DROP_FRAME",
    "DispatchPlan",
    "FaultPlan",
    "FaultSpec",
    "KILL_BEFORE_RECV",
    "PartitionPlan",
    "RAISE_IN_SERVE",
    "ShardSpec",
    "ShardedEngine",
    "ShardedEngineClosedError",
    "partition_network",
]
