"""The paper's analysis, implemented as a library.

Everything in :mod:`repro.core` is measurement-side code: it consumes
the data feeds (synthetic here, the operator's in the paper) and
produces the metrics, series, matrices and correlations behind every
figure:

- :mod:`repro.core.metrics` — per-user-day mobility metrics: the
  temporal-uncorrelated entropy (eq. 1) and the radius of gyration
  (eq. 2, in both the literal and the corrected form).
- :mod:`repro.core.sessionize` — reconstruct per-tower dwell times from
  raw signalling events (the passive-probe path).
- :mod:`repro.core.statistics` — per-user-day metric series over the
  study window (§2.3's aggregated mobility statistics).
- :mod:`repro.core.home` — nighttime home detection (§2.3).
- :mod:`repro.core.validation` — census validation of detected homes
  (Fig 2).
- :mod:`repro.core.baseline` — week-9 delta-variation machinery.
- :mod:`repro.core.mobility_series` — national/regional/cluster
  mobility series (Figs 3, 5, 6).
- :mod:`repro.core.correlation` — entropy-vs-cases (Fig 4) and
  users-vs-volume correlations (§4.4).
- :mod:`repro.core.relocation` — the Inner-London mobility matrix
  (Fig 7).
- :mod:`repro.core.performance` — network-performance weekly series
  (Figs 8, 10, 11, 12).
- :mod:`repro.core.voice_analysis` — the voice analysis (Fig 9).
- :mod:`repro.core.rat_usage` — RAT time shares (§2.4).
- :mod:`repro.core.report` — text rendering of series and tables.
- :mod:`repro.core.study` — :class:`CovidImpactStudy`, the one-stop
  driver that reproduces the entire evaluation.

Beyond the paper: :mod:`repro.core.annual_context` (the "years of
growth" framings), :mod:`repro.core.metrics_extra` (visited towers,
predictability bounds), :mod:`repro.core.paper_targets` (the verdict
bands) and :mod:`repro.core.robustness` (seed sweeps).  Like the rest of
the package they need numpy alone.
"""

from repro.core.annual_context import contextualize_summary, years_of_growth
from repro.core.metrics import mobility_entropy, radius_of_gyration
from repro.core.metrics_extra import (
    predictability_bound,
    random_entropy,
    top_location_share,
    visited_towers,
)
from repro.core.robustness import SweepResult, seed_sweep
from repro.core.sessionize import (
    sessionize_events,
    sessionize_events_stream,
    sessionize_segments,
    sessionize_segments_stream,
)
from repro.core.statistics import MobilityDailyMetrics, compute_daily_metrics
from repro.core.home import HomeDetectionResult, detect_homes
from repro.core.validation import HomeValidation, validate_against_census
from repro.core.baseline import daily_pct_change, weekly_median_delta
from repro.core.mobility_series import (
    geodemographic_mobility,
    national_mobility,
    regional_mobility,
)
from repro.core.correlation import (
    cluster_users_volume_correlation,
    entropy_cases_correlation,
)
from repro.core.relocation import RelocationMatrix, relocation_matrix
from repro.core.performance import WeeklySeries, performance_series
from repro.core.voice_analysis import voice_series
from repro.core.rat_usage import rat_time_share
from repro.core.study import CovidImpactStudy

__all__ = [
    "CovidImpactStudy",
    "SweepResult",
    "contextualize_summary",
    "predictability_bound",
    "random_entropy",
    "seed_sweep",
    "top_location_share",
    "visited_towers",
    "years_of_growth",
    "HomeDetectionResult",
    "HomeValidation",
    "MobilityDailyMetrics",
    "RelocationMatrix",
    "WeeklySeries",
    "cluster_users_volume_correlation",
    "compute_daily_metrics",
    "daily_pct_change",
    "detect_homes",
    "entropy_cases_correlation",
    "geodemographic_mobility",
    "mobility_entropy",
    "national_mobility",
    "performance_series",
    "radius_of_gyration",
    "rat_time_share",
    "regional_mobility",
    "relocation_matrix",
    "sessionize_events",
    "sessionize_events_stream",
    "sessionize_segments",
    "sessionize_segments_stream",
    "validate_against_census",
    "voice_series",
    "weekly_median_delta",
]
