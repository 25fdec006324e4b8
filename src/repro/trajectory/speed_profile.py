"""Time-of-day speed profiles with rush-hour congestion.

The paper's Figures 4.5/4.6 hinge on traffic dynamics: "at around 7am and
6pm, the running time drops significantly ... The traffic condition goes
down during these rush hours, which leads to smaller reachable regions".
This module produces exactly that structure for the synthetic fleet: a
smooth congestion factor over the day with deep dips at the morning and
evening rush hours, free-flow speeds by road level, and per-sample noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.network.model import RoadLevel
from repro.trajectory.model import SECONDS_PER_DAY


#: Free-flow speeds (metres/second) by road level.
DEFAULT_FREE_FLOW_MPS: dict[RoadLevel, float] = {
    RoadLevel.PRIMARY: 16.7,  # ~60 km/h arterials
    RoadLevel.SECONDARY: 8.3,  # ~30 km/h local roads
}


@dataclass(frozen=True)
class RushHour:
    """One congestion dip: a Gaussian well in the speed factor."""

    center_s: float
    width_s: float
    depth: float  # 0 < depth < 1; factor bottoms out at (1 - depth)

    def factor_at(self, time_s: float) -> float:
        z = (time_s - self.center_s) / self.width_s
        return 1.0 - self.depth * math.exp(-0.5 * z * z)


@dataclass
class SpeedProfile:
    """Deterministic time-of-day speed model.

    ``speed(level, time_s)`` returns the typical travel speed for a road of
    ``level`` at ``time_s`` seconds after midnight; :meth:`sample_speed`
    adds lognormal-ish noise from a caller-supplied RNG so different
    taxis/days observe different speeds (which is what gives the Con-Index
    distinct Near/Far bounds).

    Attributes:
        free_flow_mps: free-flow speed per road level.
        rush_hours: congestion dips (defaults: 07:45 and 18:00).
        night_boost: multiplicative bonus in the dead of night.
        noise_sigma: std-dev of the multiplicative noise (lognormal scale).
    """

    free_flow_mps: dict[RoadLevel, float] = field(
        default_factory=lambda: dict(DEFAULT_FREE_FLOW_MPS)
    )
    rush_hours: list[RushHour] = field(
        default_factory=lambda: [
            RushHour(center_s=7.75 * 3600, width_s=3600.0, depth=0.60),
            RushHour(center_s=18.0 * 3600, width_s=3900.0, depth=0.65),
        ]
    )
    night_boost: float = 1.15
    noise_sigma: float = 0.18

    def congestion_factor(self, time_s: float) -> float:
        """Speed multiplier in (0, night_boost]; dips during rush hours."""
        t = time_s % SECONDS_PER_DAY
        factor = 1.0
        for rush in self.rush_hours:
            # Wrap-around: evaluate the dip at t, t±day so 23:59 feels an
            # early-morning rush if one straddles midnight.
            f = min(
                rush.factor_at(t),
                rush.factor_at(t - SECONDS_PER_DAY),
                rush.factor_at(t + SECONDS_PER_DAY),
            )
            factor = min(factor, f)
        # Late night (00:00-05:00) enjoys a mild boost, tapering linearly.
        if t < 5 * 3600:
            night = self.night_boost - (self.night_boost - 1.0) * (t / (5 * 3600))
            factor *= night
        return factor

    def speed(self, level: RoadLevel, time_s: float) -> float:
        """Typical (noise-free) speed for a road level at a time of day."""
        return self.free_flow_mps[level] * self.congestion_factor(time_s)

    def sample_speed(
        self, level: RoadLevel, time_s: float, rng: random.Random
    ) -> float:
        """One noisy speed observation (always > 0.5 m/s).

        The paper's Near list removes zero speeds (§3.2.2); we floor samples
        at 0.5 m/s so stationary GPS glitches never poison min-speed stats.
        """
        base = self.speed(level, time_s)
        noise = math.exp(rng.gauss(0.0, self.noise_sigma))
        return max(0.5, base * noise)
