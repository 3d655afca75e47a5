"""Analysis-side infrastructure: the persistent artifact cache.

:mod:`repro.core` computes the paper's artifacts; this package makes
recomputing them across processes unnecessary.  See
:mod:`repro.analysis.cache` for the content-addressed store that
:class:`~repro.core.study.CovidImpactStudy`, :mod:`repro.api` and the
CLI share, :mod:`repro.analysis.mobility` for the segment-composed
incremental analytics live runs re-key it with, and
:mod:`repro.analysis.parallel` for the process pool that fans the
per-shard kernels out across workers.
"""

from repro.analysis.cache import (
    CODE_EPOCHS,
    DEFAULT_GYRATION_MODE,
    ArtifactCache,
    artifact_key,
    report_params,
    summary_params,
)
from repro.analysis.mobility import (
    incremental_daily_metrics,
    incremental_homes,
)
from repro.analysis.parallel import (
    ShardPlan,
    plan_for,
    resolve_workers,
)

__all__ = [
    "CODE_EPOCHS",
    "DEFAULT_GYRATION_MODE",
    "ArtifactCache",
    "ShardPlan",
    "artifact_key",
    "incremental_daily_metrics",
    "incremental_homes",
    "plan_for",
    "report_params",
    "resolve_workers",
    "summary_params",
]
