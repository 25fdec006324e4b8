"""The ShenzhenLike synthetic dataset.

Substitutes for the paper's evaluation data (Table 4.1: Shenzhen, 400 sq
miles, 21,385 taxis, 30 days, 407M GPS records) with a laptop-scale city
that preserves every property the algorithms exercise:

* a road network with primary arterials and secondary local roads,
  re-segmented at a fixed spatial granularity (§3.1);
* a taxi fleet producing one trajectory per taxi-day, continuously driving
  speed-weighted random walks biased toward the city centre (real taxi
  demand concentrates downtown — and so do the paper's query locations);
* time-of-day speeds with rush-hour congestion at ~07:45 and ~18:00, so
  reachable regions shrink at rush hour (Figs 4.5/4.6);
* tight speed noise, so the Con-Index Far bound fits the true
  Prob-reachable region closely — the geometry that gives SQMB+TBS its
  advantage over exhaustive search.

Everything is deterministic given the config's seed.  The module-level
:func:`default_dataset` caches built datasets per config so the benchmark
suite builds each one once per session.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.network.generator import grid_city, random_planar_city, ring_radial_city
from repro.network.model import RoadLevel, RoadNetwork
from repro.network.segmentation import ResegmentationResult, resegment
from repro.spatial.geometry import Point
from repro.trajectory.generator import FleetConfig, TaxiFleetGenerator
from repro.trajectory.speed_profile import SpeedProfile
from repro.trajectory.store import TrajectoryDatabase


@dataclass(frozen=True)
class ShenzhenLikeConfig:
    """Dataset knobs (defaults tuned for the benchmark suite).

    Attributes:
        topology: city shape — ``"grid"`` (default), ``"ring_radial"``
            (concentric ring roads + spokes, a common Chinese-metropolis
            layout) or ``"random_planar"`` (Delaunay street web).
        grid_rows / grid_cols: intersections per side of the grid city.
        spacing_m: distance between intersections.
        granularity_m: re-segmentation granularity (paper example: 500 m).
        primary_every: every k-th street is a primary arterial.
        num_taxis / num_days: fleet size and dataset span.
        seed: master seed.
        center_bias: walk bias toward downtown (see FleetConfig).
        uniform_mix: fraction of trip endpoints drawn uniformly over the
            city (longer cross-town trips widen historical reach).
        idle_mean_s: mean idle gap between trips.
        primary_mps / secondary_mps: free-flow speeds.  The defaults are
            deliberately low so the 35-minute maximum bounding region of the
            longest benchmark query still fits inside the synthetic city —
            the same *city is much larger than any query region* geometry
            the paper's Shenzhen evaluation has.
        noise_sigma: per-sample speed noise; small values keep the Far
            bound tight.
        jitter_m: random offset on intersection positions.
    """

    topology: str = "grid"
    grid_rows: int = 11
    grid_cols: int = 11
    spacing_m: float = 2400.0
    granularity_m: float = 800.0
    primary_every: int = 5
    num_taxis: int = 400
    num_days: int = 30
    seed: int = 42
    center_bias: float = 2.5
    uniform_mix: float = 0.4
    idle_mean_s: float = 90.0
    primary_mps: float = 5.0
    secondary_mps: float = 2.5
    noise_sigma: float = 0.05
    jitter_m: float = 0.0

    def scaled(self, **overrides) -> "ShenzhenLikeConfig":
        """A copy with some fields overridden (for tests/ablations)."""
        return replace(self, **overrides)


#: A small configuration for unit/integration tests: a few minutes to
#: generate is unacceptable there, a few hundred milliseconds is fine.
TEST_CONFIG = ShenzhenLikeConfig(
    grid_rows=5,
    grid_cols=5,
    spacing_m=1000.0,
    granularity_m=500.0,
    num_taxis=25,
    num_days=10,
)


def demo_config(config: ShenzhenLikeConfig) -> ShenzhenLikeConfig:
    """The demo configuration, shrunk to :data:`TEST_CONFIG` under CI.

    The example scripts build a city that takes a few seconds; with the
    ``REPRO_TEST_CONFIG`` environment variable set (the CI examples
    gate) they run the same code paths on the sub-second test city.
    """
    import os

    if os.environ.get("REPRO_TEST_CONFIG"):
        return TEST_CONFIG
    return config


@dataclass
class ShenzhenLikeDataset:
    """A fully built dataset: network + trajectories + speed profile."""

    config: ShenzhenLikeConfig
    original_network: RoadNetwork
    resegmentation: ResegmentationResult
    network: RoadNetwork
    profile: SpeedProfile
    database: TrajectoryDatabase
    center: Point = field(default_factory=lambda: Point(0.0, 0.0))

    @property
    def num_segments(self) -> int:
        return self.network.num_segments

    def describe(self) -> list[tuple[str, str]]:
        """Dataset-description rows in the spirit of Table 4.1."""
        bounds = self.network.bounds()
        rows = [
            (
                "City size",
                f"{bounds.width / 1000.0:.1f} x {bounds.height / 1000.0:.1f} km",
            ),
            ("Road segments (re-segmented)", f"{self.network.num_segments:,}"),
            (
                "Total road length",
                f"{self.network.total_length() / 1000.0:.1f} km",
            ),
        ]
        rows.extend(self.database.stats().as_rows())
        return rows


def build_shenzhen_like(
    config: ShenzhenLikeConfig | None = None,
) -> ShenzhenLikeDataset:
    """Generate the dataset (network, re-segmentation, fleet, database)."""
    cfg = config if config is not None else ShenzhenLikeConfig()
    if cfg.topology == "grid":
        original = grid_city(
            rows=cfg.grid_rows,
            cols=cfg.grid_cols,
            spacing=cfg.spacing_m,
            primary_every=cfg.primary_every,
            seed=cfg.seed,
            jitter=cfg.jitter_m,
            center_origin=True,
        )
    elif cfg.topology == "ring_radial":
        original = ring_radial_city(
            rings=max(2, cfg.grid_rows // 2),
            spokes=max(6, cfg.grid_cols),
            ring_spacing=cfg.spacing_m / 2.0,
            seed=cfg.seed,
        )
    elif cfg.topology == "random_planar":
        original = random_planar_city(
            num_nodes=cfg.grid_rows * cfg.grid_cols,
            extent=cfg.spacing_m * (cfg.grid_rows - 1),
            seed=cfg.seed,
        )
    else:
        raise ValueError(f"unknown topology {cfg.topology!r}")
    reseg = resegment(original, granularity=cfg.granularity_m)
    profile = SpeedProfile(
        free_flow_mps={
            RoadLevel.PRIMARY: cfg.primary_mps,
            RoadLevel.SECONDARY: cfg.secondary_mps,
        },
        noise_sigma=cfg.noise_sigma,
    )
    fleet = FleetConfig(
        num_taxis=cfg.num_taxis,
        num_days=cfg.num_days,
        seed=cfg.seed,
        center_bias=cfg.center_bias,
        dest_uniform_mix=cfg.uniform_mix,
        idle_mean_s=cfg.idle_mean_s,
    )
    generator = TaxiFleetGenerator(reseg.network, profile=profile, config=fleet)
    database = TrajectoryDatabase(num_taxis=cfg.num_taxis, num_days=cfg.num_days)
    generator.generate_into(database)
    return ShenzhenLikeDataset(
        config=cfg,
        original_network=original,
        resegmentation=reseg,
        network=reseg.network,
        profile=profile,
        database=database,
    )


_CACHE: dict[ShenzhenLikeConfig, ShenzhenLikeDataset] = {}


def default_dataset(
    config: ShenzhenLikeConfig | None = None,
) -> ShenzhenLikeDataset:
    """Build-once-per-process dataset cache (used by the benchmark suite)."""
    cfg = config if config is not None else ShenzhenLikeConfig()
    dataset = _CACHE.get(cfg)
    if dataset is None:
        dataset = build_shenzhen_like(cfg)
        _CACHE[cfg] = dataset
    return dataset
