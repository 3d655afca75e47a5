"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.mobility.behavior import BehaviorSettings
from repro.mobility.pandemic import PandemicTimeline
from repro.network.scheduler import SchedulerSettings
from repro.simulation.clock import StudyCalendar, default_calendar
from repro.simulation.faults import RecoverySettings
from repro.simulation.sharding import ParallelismSettings
from repro.traffic.demand import DemandSettings
from repro.traffic.voice import VoiceSettings

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Every knob of a simulation run.

    The defaults reproduce the paper's setting at laptop scale: ~20k
    simulated native users standing in for the operator's 22M, a
    proportionally scaled radio network, and the full February–May 2020
    calendar. ``small()`` / ``tiny()`` provide cheaper presets for tests
    and quick experiments.
    """

    num_users: int = 20_000
    target_site_count: int = 1_000
    seed: int = 2020
    roamer_share: float = 0.03
    m2m_share: float = 0.08
    market_share_noise: float = 0.04

    calendar: StudyCalendar = field(default_factory=default_calendar)
    # Custom policy timeline (None = the real UK 2020 timeline). Used by
    # counterfactual scenarios.
    timeline: PandemicTimeline | None = None
    behavior: BehaviorSettings = field(default_factory=BehaviorSettings)
    demand: DemandSettings = field(default_factory=DemandSettings)
    voice: VoiceSettings = field(default_factory=VoiceSettings)
    scheduler: SchedulerSettings = field(default_factory=SchedulerSettings)

    # Baseline utilization the voice interconnect is dimensioned for —
    # high enough that the voice surge exceeds capacity (§4.2).
    interconnect_baseline_utilization: float = 0.84

    # Ops response of the voice interconnect (§4.2): how many alarm days
    # before the capacity upgrade lands, and its size. Set the days very
    # high for the "no ops response" counterfactual.
    interconnect_detection_days: int = 10
    interconnect_upgrade_factor: float = 2.2

    # Probability a device produces nighttime signalling on a given
    # night (phones idle/off at night are invisible to the probes).
    # Governs the home-detection yield: the paper located homes for
    # ~16M of ~22M users (§2.3).
    night_observation_probability: float = 0.58

    # Sharded/parallel execution (see repro.simulation.sharding for the
    # determinism contract). num_shards=1, workers=1 is the serial
    # engine; workers=1 with num_shards>1 runs the sharded math in
    # process; workers>1 fans the shards out over a process pool.
    parallelism: ParallelismSettings = field(
        default_factory=ParallelismSettings
    )

    # Failure handling of the sharded engine: how often a failed shard
    # is retried and the capped exponential backoff between attempts
    # (see repro.simulation.faults). Purely operational — results are
    # independent of every field.
    recovery: RecoverySettings = field(default_factory=RecoverySettings)

    # Deterministic fault-injection plan (repro.simulation.faults
    # grammar), e.g. "kill:shard=2,day=60". None = no faults. The
    # REPRO_FAULTS environment variable overrides it. Test harness
    # only: decides whether an attempt fails, never what it computes.
    fault_spec: str | None = None

    # The one optional output: the General Signalling Dataset's raw
    # per-event frames (§2.2), stored as the run's event partition.
    emit_signaling: bool = False

    def __post_init__(self) -> None:
        if self.num_users <= 0:
            raise ValueError("num_users must be positive")
        if self.target_site_count <= 0:
            raise ValueError("target_site_count must be positive")
        if not 0.0 < self.interconnect_baseline_utilization < 1.5:
            raise ValueError("interconnect utilization must be in (0, 1.5)")
        if not isinstance(self.parallelism, ParallelismSettings):
            raise TypeError(
                "parallelism must be a ParallelismSettings instance"
            )
        if not isinstance(self.recovery, RecoverySettings):
            raise TypeError("recovery must be a RecoverySettings instance")

    def with_parallelism(
        self, num_shards: int, workers: int | None = None
    ) -> "SimulationConfig":
        """A copy running ``num_shards`` shards on ``workers`` processes.

        ``workers`` defaults to ``num_shards`` (one process per shard,
        capped by the pool at pool-creation time).
        """
        return self.with_overrides(
            parallelism=ParallelismSettings(
                num_shards=num_shards,
                workers=num_shards if workers is None else workers,
            )
        )

    # -- presets -----------------------------------------------------------
    @classmethod
    def default(cls, seed: int = 2020) -> "SimulationConfig":
        """The full-scale configuration used by the benchmarks."""
        return cls(seed=seed)

    @classmethod
    def small(cls, seed: int = 2020) -> "SimulationConfig":
        """~5k users: integration tests and quick looks."""
        return cls(num_users=5_000, target_site_count=300, seed=seed)

    @classmethod
    def tiny(cls, seed: int = 2020) -> "SimulationConfig":
        """~1.5k users: unit-test scale (noisy, structurally complete)."""
        return cls(num_users=1_500, target_site_count=150, seed=seed)

    def with_overrides(self, **changes) -> "SimulationConfig":
        """Return a copy with fields replaced (dataclasses.replace)."""
        return replace(self, **changes)
