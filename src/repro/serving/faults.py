"""Deterministic fault injection for the sharded serving stack.

Every failure mode the dispatcher's supervisor handles — a worker dying
mid-batch, a reply arriving after its deadline, a dropped or corrupted
frame, an executor raising inside the worker — is reproducible from a
:class:`FaultPlan` threaded through ``ShardedEngine(fault_plan=...)``
into each worker process.  Faults fire on *message counters* (the Nth
``recv`` / the Nth ``run`` a given worker incarnation sees, counted by
the shared :class:`~repro.injection.Injector`), never on wall time, so
a test that injects a plan observes the identical failure sequence on
every run without sleeps or real crashes:

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
* ``RAISE_IN_SERVE`` — an injected exception raised while the worker
  serves the ``run``, exercising the worker's per-message error isolation
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

from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional, Tuple

from repro.injection import Plan, Spec, check_count

KILL_BEFORE_RECV = "kill_before_recv"
KILL_IN_RUN = "kill_in_run"
DELAY_RESPONSE = "delay_response"
DROP_FRAME = "drop_frame"
CORRUPT_FRAME = "corrupt_frame"
RAISE_IN_SERVE = "raise_in_serve"

#: The worker loop's two hooks: before every pipe ``recv``, and once per
#: ``run`` command after it is received.
RECV = "recv"
RUN = "run"

#: Exit status of a fault-killed worker, distinguishable from a real
#: crash (-signal) and a clean exit (0) in test assertions.
FAULT_EXIT_CODE = 86


class FaultInjected(RuntimeError):
    """The injected executor-side failure (``RAISE_IN_SERVE``)."""


# repro-lint: payload
@dataclass(frozen=True)
class FaultSpec(Spec):
    """One injected fault: *what* happens, *where*, and *when*.

    Attributes:
        kind: one of the six fault kinds above.
        at: 1-based trigger count — the worker's Nth pipe ``recv`` for
            ``KILL_BEFORE_RECV``, its Nth ``run`` command for the other
            kinds (``KILL_IN_RUN`` included).  Counters are per process
            incarnation.
        worker: index of the worker process the fault applies to.
        incarnation: which incarnation of the worker the fault fires in
            (``0`` = the originally spawned process, the default); pass
            ``None`` to fire in every incarnation, so respawned
            replacements fail identically and retries exhaust.
    """

    HOOKS: ClassVar[Mapping[str, str]] = {
        KILL_BEFORE_RECV: RECV,
        KILL_IN_RUN: RUN,
        DELAY_RESPONSE: RUN,
        DROP_FRAME: RUN,
        CORRUPT_FRAME: RUN,
        RAISE_IN_SERVE: RUN,
    }

    worker: int = 0
    incarnation: Optional[int] = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_count("fault worker", self.worker, minimum=0)
        if self.incarnation is not None:
            check_count("fault incarnation", self.incarnation, minimum=0)


# repro-lint: payload
@dataclass(frozen=True)
class FaultPlan(Plan):
    """An immutable set of :class:`FaultSpec` entries.

    Plain data (strings, ints, tuples) by construction, so the plan
    crosses the ``spawn`` boundary as a ``Process`` argument — the same
    contract shard payloads obey (RL003).
    """

    def for_worker(self, worker: int, incarnation: int) -> Tuple[FaultSpec, ...]:
        """The specs that apply to one worker-process incarnation."""
        return tuple(
            spec
            for spec in self.specs
            if spec.worker == worker
            and (spec.incarnation is None or spec.incarnation == incarnation)
        )


def validate_plan(plan: Optional[FaultPlan], num_workers: int) -> None:
    """Reject specs that target workers the engine never spawns."""
    if plan is None:
        return
    for spec in plan.specs:
        if not 0 <= spec.worker < num_workers:
            raise ValueError(
                f"fault spec targets worker {spec.worker}, but the engine "
                f"runs {num_workers} worker(s)"
            )
