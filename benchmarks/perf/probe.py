"""Machine-speed probe: a fixed reference computation timed between calls.

On this shared box a busy neighbour slows a whole run for minutes, so no
statistic of a run's own timings removes it.  The probe runs the same small
computation — the program's own instruction mix: small-array
``searchsorted``/``take``/``unique``, dict lookups, a list sort — in short
bursts between the calls of every pass.  A pass's *speed factor* is the
median burst duration over that pass divided by :data:`REFERENCE_BURST_S`;
gated pass and call times are divided by it.  Set-up is one long call and is
not corrected: bracketing it with bursts at both ends made its spread worse.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Median burst duration on the box the bounds were derived on, in a calm
#: hour.  Only a scale: every corrected time is proportional to it, so it
#: must not change once numbers have been committed against it.
REFERENCE_BURST_S = 0.00015


class Probe:
    """The reference computation plus the burst durations it has seen."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20170419)  # fixed: the probe never varies
        self._fixed = np.unique(rng.integers(0, 1 << 40, size=600, dtype=np.int64))
        self._waves = [
            np.concatenate(
                (
                    rng.choice(self._fixed, size=size // 2),
                    rng.integers(0, 1 << 40, size=size - size // 2, dtype=np.int64),
                )
            )
            for size in (24, 40, 64, 96, 160, 240, 40, 64, 24, 96)
        ]
        self._table = {int(key): index for index, key in enumerate(self._fixed)}
        self._lookups = [int(key) for wave in self._waves[:4] for key in wave]
        self._unsorted = [int(key) for key in self._waves[5]]
        self.durations: list[float] = []

    def burst(self) -> float:
        """Run the reference computation once; record and return its time."""
        started = perf_counter()
        fixed = self._fixed
        for keys in self._waves:
            positions = fixed.searchsorted(keys)
            hit = np.take(fixed, positions, mode="clip") == keys
            np.unique(keys[hit] >> 20)
        table = self._table
        found = 0
        for key in self._lookups:
            if key in table:
                found += table[key]
        sorted(self._unsorted)
        elapsed = perf_counter() - started
        self.durations.append(elapsed)
        return elapsed

    def run(self, bursts: int) -> None:
        for _ in range(bursts):
            self.burst()

    def mark(self) -> int:
        """Position in the burst log, for :meth:`factor_since`."""
        return len(self.durations)

    def factor_since(self, mark: int) -> float:
        """Speed factor over the bursts recorded since ``mark`` (1.0 if none)."""
        window = self.durations[mark:]
        if not window:
            return 1.0
        return statistics.median(window) / REFERENCE_BURST_S
