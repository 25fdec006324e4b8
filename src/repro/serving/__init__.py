"""Sharded multi-process serving: route, scatter, gather.

The single-process pipeline (client → router → planner → executor →
storage) runs one thread at a time per engine, and one interpreter's
GIL would bound it anyway.  This package exports the engine once, rebuilds one
full replica (ST-Index, Con-Index and its own
:class:`~repro.storage.disk.SimulatedDisk`) in each ``multiprocessing``
worker process, and serves them behind a scatter-gather dispatcher:

* :mod:`repro.serving.partition` — the kd-median split of the network
  into K spatial routing groups, one per worker process, and the
  spawn-safe replica payload;
* :mod:`repro.serving.worker` — the worker-process entry point: rebuild
  the replica engine from the payload, serve its group's sub-batch of
  each batch over a pipe;
* :mod:`repro.serving.protocol` — the pickle-framed messages and the
  numpy-packed result encoding that keeps IPC cheap;
* :mod:`repro.serving.dispatcher` — :class:`ShardedEngine`: routes each
  request to the group owning its start segment, splits a cross-group
  ``*_each`` m-query into per-location s-queries and merges them back,
  and aggregates per-group
  :class:`~repro.storage.disk.DiskStats` exactly — under a supervisor
  that respawns dead workers, retries timed-out scatters with backoff,
  and degrades exhausted sub-batches to the local fallback service;
* :mod:`repro.serving.faults` — deterministic fault injection
  (:class:`FaultPlan`, built on :mod:`repro.injection`) for reproducing
  every failure mode in tests.

Accounting guarantee: each worker runs its one group's sub-batch as one
cold window on a replica whose page geometry is identical to the full
index, so its :class:`~repro.core.service.ShardReport` window equals a
long-lived single-process client on a fresh replica running that
group's sub-batches, batch after batch — proven by
``tests/test_serving.py``'s equivalence oracle.  Answers equal the
single-process engine's in full (segments, computed probabilities,
bounding regions) for every group count.
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
