"""Deterministic, counter-keyed failure injection: the one core.

Two failure domains build on it — worker faults in
:mod:`repro.serving.faults` and disk crashes in
:mod:`repro.storage.crashsim`.  A domain declares its failure *kinds* and,
in ``Spec.HOOKS``, the hook each kind fires at (a pipe ``recv``, an
``fsync``, a journal record, ...).  The code under test calls
:meth:`Injector.fire` on every pass through a hook; the injector counts
passes per hook and returns the specs whose ``at`` is this pass.  Failures
fire on these counters, never on wall time, so a plan replays the same
failure sequence on every run.
"""

from __future__ import annotations

import numbers
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping, Tuple, Type, TypeVar


def check_count(name: str, value: object, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer ``>= minimum``.

    Integers of any kind pass (numpy's included); bools do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class Spec:
    """One injected failure: *what* fires (``kind``) and on which pass (``at``).

    Attributes:
        kind: a key of the domain's ``HOOKS``.
        at: 1-based trigger count — the spec fires on the ``at``-th pass
            through its kind's hook, counted per :class:`Injector`.
    """

    #: The domain's kinds, each mapped to the hook it fires at.
    HOOKS: ClassVar[Mapping[str, str]] = {}

    kind: str
    at: int = 1

    def __post_init__(self) -> None:
        if self.kind not in self.HOOKS:
            domain = type(self).__name__.removesuffix("Spec").lower()
            raise ValueError(f"unknown {domain} kind {self.kind!r}")
        check_count("trigger count", self.at, minimum=1)


PlanT = TypeVar("PlanT", bound="Plan")


@dataclass(frozen=True)
class Plan:
    """An immutable tuple of specs: plain data, picklable across ``spawn``."""

    specs: Tuple[Spec, ...] = ()

    @classmethod
    def of(cls: Type[PlanT], *specs: Spec) -> PlanT:
        return cls(specs=tuple(specs))


class Injector:
    """Pass counters for one process / disk instance; a fresh one starts at 0."""

    def __init__(self, specs: Iterable[Spec] = ()) -> None:
        self._specs = tuple(specs)
        self._passes: Counter[str] = Counter()

    def fire(self, hook: str) -> Tuple[Spec, ...]:
        """Count one pass through ``hook``; the specs that fire on it."""
        if not self._specs:
            return ()
        self._passes[hook] += 1
        count = self._passes[hook]
        return tuple(s for s in self._specs if s.HOOKS[s.kind] == hook and s.at == count)

    def passes(self, hook: str) -> int:
        """Passes counted through ``hook`` (none without specs)."""
        return self._passes[hook]
