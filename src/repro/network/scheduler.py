"""LTE capacity / scheduler model: offered load → radio KPIs.

The paper's radio KPIs (§2.4) are produced by the eNodeB scheduler:
TTI (Transmission Time Interval) utilization — "the number of active
UEs the LTE scheduler assigns per TTI" — average active downlink users,
and the average per-user downlink throughput over all active bearers.

:class:`CellScheduler` turns per-cell-hour *offered* traffic into those
KPIs. Modelling choices that matter for reproducing the paper:

- **Served vs offered** — cells clip at air-interface capacity; at the
  operating points of this study cells are far from saturated (the
  paper observes ~15% load reductions, not congestion).
- **Application-limited throughput** — per-user throughput is
  ``min(application demand rate, fair share of capacity)``, degraded
  slightly by cell load. During the pandemic content providers throttled
  bitrates and heavy applications moved to WiFi, so the *application*
  term drops — how the paper explains throughput falling while the
  radio got quieter (§4.1).
- **Sampling correction** — the simulation carries a ~0.1% sample of
  the real subscriber base, so absolute per-cell volumes are tiny
  compared to a production cell. ``prb_share`` rescales volume into TTI
  occupancy so the *radio load* KPI sits at realistic absolute levels
  while remaining exactly proportional to the sampled traffic. All of
  the paper's figures are relative (delta vs week 9), which this
  preserves by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SchedulerSettings", "CellScheduler", "HourlyRadioKpis"]


@dataclass(frozen=True)
class SchedulerSettings:
    """Tunables of the scheduler model."""

    # TTI occupancy present even with little traffic (control channels,
    # signalling, SIB broadcasts).
    baseline_load: float = 0.015
    # Sampling correction: fraction of air-interface capacity the
    # sampled traffic is scaled against when computing TTI occupancy.
    prb_share: float = 0.03
    # TTI occupancy contributed by each simultaneously active UE.
    per_user_tti_load: float = 0.002
    # How strongly cell load degrades achieved per-user throughput.
    load_penalty: float = 0.35


@dataclass
class HourlyRadioKpis:
    """Vectorized per-cell KPIs for one hour (or an (hours, cells) block)."""

    served_dl_mb: np.ndarray
    served_ul_mb: np.ndarray
    dl_active_users: np.ndarray
    radio_load_pct: np.ndarray
    user_dl_throughput_mbps: np.ndarray
    active_seconds: np.ndarray


class CellScheduler:
    """Compute per-cell-hour radio KPIs from offered load."""

    def __init__(self, settings: SchedulerSettings | None = None) -> None:
        self._settings = settings or SchedulerSettings()

    @property
    def settings(self) -> SchedulerSettings:
        return self._settings

    def active_users_from_volume(
        self,
        dl_volume_mb: np.ndarray,
        app_rate_mbps: np.ndarray,
        connected_users: np.ndarray,
    ) -> np.ndarray:
        """Average users with data in the DL buffer during the hour.

        A user transferring ``v`` MB at an application rate ``r`` Mbps
        keeps a DL buffer busy for ``8 v / r`` seconds; summing over the
        cell's users and dividing by the hour gives the average active
        count. A small presence-coupled term models always-on background
        activity of attached devices.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            transfer_seconds = np.where(
                app_rate_mbps > 0, dl_volume_mb * 8.0 / app_rate_mbps, 0.0
            )
        return transfer_seconds / 3600.0 + 0.01 * connected_users

    def schedule_hours(
        self,
        capacity_mbps: np.ndarray,
        offered_dl_mb: np.ndarray,
        offered_ul_mb: np.ndarray,
        active_users: np.ndarray,
        app_rate_dl_mbps: np.ndarray,
    ) -> HourlyRadioKpis:
        """Schedule a block of hours across all cells in one shot.

        The offered-load arrays may be ``(num_cells,)`` for a single
        hour or ``(num_hours, num_cells)`` for a whole day;
        ``capacity_mbps`` and ``app_rate_dl_mbps`` are per-cell and
        broadcast over hours.  Every operation is elementwise, so the
        blocked form is bitwise identical to scheduling the hours one
        at a time — which is what lets the engine vectorize its hourly
        loop without disturbing the serial-equivalence contract.
        """
        settings = self._settings
        capacity_mb_per_hour = capacity_mbps * 3600.0 / 8.0
        served_dl = np.minimum(offered_dl_mb, capacity_mb_per_hour)
        # Uplink capacity of the deployments we model is ~half of DL.
        served_ul = np.minimum(offered_ul_mb, capacity_mb_per_hour * 0.5)

        reference = capacity_mb_per_hour * settings.prb_share
        data_load = np.divide(
            served_dl,
            reference,
            out=np.zeros_like(served_dl),
            where=reference > 0,
        )
        radio_load = np.clip(
            settings.baseline_load
            + data_load
            + settings.per_user_tti_load * active_users,
            0.0,
            1.0,
        )

        fair_share = np.divide(
            capacity_mbps,
            np.maximum(active_users, 1.0),
            out=np.zeros(np.shape(served_dl), dtype=np.float64),
            where=capacity_mbps > 0,
        )
        degradation = 1.0 - settings.load_penalty * radio_load
        throughput = np.minimum(app_rate_dl_mbps, fair_share) * degradation
        throughput = np.maximum(throughput, 0.0)

        # Seconds with active data in the cell during the hour.
        active_seconds = np.clip(active_users * 3600.0, 0.0, 3600.0)

        return HourlyRadioKpis(
            served_dl_mb=served_dl,
            served_ul_mb=served_ul,
            dl_active_users=active_users,
            radio_load_pct=radio_load * 100.0,
            user_dl_throughput_mbps=throughput,
            active_seconds=active_seconds,
        )
