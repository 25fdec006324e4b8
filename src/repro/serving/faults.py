"""Deterministic fault injection for the sharded serving stack.

Every failure mode the dispatcher's supervisor handles — a worker dying
mid-batch, a reply arriving after its deadline, a dropped or corrupted
frame, an executor raising inside the worker — is reproducible from a
:class:`FaultPlan` threaded through ``ShardedEngine(fault_plan=...)``
into each worker process.  Faults fire on *message counters* (the Nth
``recv`` / the Nth ``run`` a given worker incarnation sees), never on
wall time, so a test that injects a plan observes the identical failure
sequence on every run without sleeps or real crashes:

* ``KILL_BEFORE_RECV`` — the worker process exits (``os._exit``) just
  before its Nth pipe ``recv``, exactly as an OOM-kill between batches
  would look to the dispatcher (EOF on the pipe).  Note the timing is
  the *worker's*: whether the dispatcher notices before or after its
  next scatter depends on process startup speed, so tests that need a
  deterministic mid-batch death use ``KILL_IN_RUN`` instead.
* ``KILL_IN_RUN`` — the worker exits immediately after *receiving* its
  Nth ``run`` command, before sending anything: the dispatcher has an
  outstanding attempt and observes EOF, deterministically exercising the
  died-mid-batch → respawn → retry path.
* ``DELAY_RESPONSE`` — the worker computes the reply but *withholds* it
  until just before it answers its next command, so the frame arrives
  after the dispatcher's deadline fired and retried: the canonical
  late-frame case the request-id discard protects against.
* ``DROP_FRAME`` — the reply is computed and silently discarded; the
  dispatcher sees a worker that accepted the batch and never answered
  (a hung worker, minus the hang).
* ``CORRUPT_FRAME`` — the reply is replaced by a garbage object that
  fails frame validation on the parent side.
* ``RAISE_IN_SERVE`` — an injected exception raised inside
  ``_serve_run``, exercising the worker's per-message error isolation
  (``MSG_ERROR`` reply, loop stays alive).

A spec targets one worker index and, by default, only **incarnation 0**
(the originally spawned process) — a respawned replacement starts with
fresh counters and, unless the spec says ``incarnation=None`` (every
incarnation), a clean fault-free plan.  That is what makes "kill the
worker, watch the retry succeed on the respawn" a terminating,
deterministic scenario, while ``incarnation=None`` keeps the fault alive
through every respawn to drive the retries-exhausted/degradation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

KILL_BEFORE_RECV = "kill_before_recv"
KILL_IN_RUN = "kill_in_run"
DELAY_RESPONSE = "delay_response"
DROP_FRAME = "drop_frame"
CORRUPT_FRAME = "corrupt_frame"
RAISE_IN_SERVE = "raise_in_serve"

FAULT_KINDS = frozenset(
    {
        KILL_BEFORE_RECV,
        KILL_IN_RUN,
        DELAY_RESPONSE,
        DROP_FRAME,
        CORRUPT_FRAME,
        RAISE_IN_SERVE,
    }
)

#: Exit status of a fault-killed worker, distinguishable from a real
#: crash (-signal) and a clean exit (0) in test assertions.
FAULT_EXIT_CODE = 86


class FaultInjected(RuntimeError):
    """The injected executor-side failure (``RAISE_IN_SERVE``)."""


# repro-lint: payload
@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: *what* happens, *where*, and *when*.

    Attributes:
        kind: one of the ``FAULT_KINDS`` constants.
        worker: index of the worker process the fault applies to.
        at: 1-based trigger count — the worker's Nth pipe ``recv`` for
            ``KILL_BEFORE_RECV``, its Nth ``run`` command for the other
            kinds (``KILL_IN_RUN`` included).  Counters are per process
            incarnation.
        incarnation: which incarnation of the worker the fault fires in
            (``0`` = the originally spawned process, the default); pass
            ``None`` to fire in every incarnation, so respawned
            replacements fail identically and retries exhaust.
    """

    kind: str
    worker: int = 0
    at: int = 1
    incarnation: Optional[int] = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 1:
            raise ValueError(f"fault trigger count must be >= 1, got {self.at}")


# repro-lint: payload
@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of :class:`FaultSpec` entries.

    Plain data (strings, ints, tuples) by construction, so the plan
    crosses the ``spawn`` boundary as a ``Process`` argument — the same
    contract shard payloads obey (RL003).
    """

    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def of(cls, *specs: FaultSpec) -> "FaultPlan":
        return cls(faults=tuple(specs))

    def for_worker(
        self, worker: int, incarnation: int
    ) -> Tuple[FaultSpec, ...]:
        """The specs that apply to one worker-process incarnation."""
        return tuple(
            spec
            for spec in self.faults
            if spec.worker == worker
            and (spec.incarnation is None or spec.incarnation == incarnation)
        )


class FaultInjector:
    """Worker-side trigger bookkeeping for one process incarnation.

    The worker loop consults the injector at its two hook points:
    :meth:`on_recv` immediately before every pipe ``recv`` (may never
    return — ``KILL_BEFORE_RECV`` exits the process), and
    :meth:`on_run` once per ``run`` command, returning the reply-side
    fault kinds to apply to that command's handling.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan],
        worker: int,
        incarnation: int,
    ) -> None:
        self._specs = (
            plan.for_worker(worker, incarnation) if plan is not None else ()
        )
        self._recv_count = 0
        self._run_count = 0

    @property
    def active(self) -> bool:
        return bool(self._specs)

    def on_recv(self) -> None:
        """Hook before a pipe ``recv``; exits the process on a kill spec."""
        self._recv_count += 1
        for spec in self._specs:
            if spec.kind == KILL_BEFORE_RECV and spec.at == self._recv_count:
                import os

                # A real crash does not unwind the stack or flush pipes;
                # os._exit is the closest deterministic stand-in.
                os._exit(FAULT_EXIT_CODE)

    def on_run(self) -> List[str]:
        """Reply-side fault kinds that fire for this ``run`` command."""
        self._run_count += 1
        return [
            spec.kind
            for spec in self._specs
            if spec.kind != KILL_BEFORE_RECV and spec.at == self._run_count
        ]


def validate_plan(plan: Optional[FaultPlan], num_workers: int) -> None:
    """Reject specs that target workers the engine never spawns."""
    if plan is None:
        return
    for spec in plan.faults:
        if not 0 <= spec.worker < num_workers:
            raise ValueError(
                f"fault spec targets worker {spec.worker}, but the engine "
                f"runs {num_workers} worker(s)"
            )
