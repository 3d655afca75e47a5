"""The end-to-end study driver.

:class:`CovidImpactStudy` runs (or receives) a simulation and exposes
one method per paper artifact — ``fig2()`` through ``fig12()``,
``table1()``, the §2.4 RAT shares and the §4.4 correlations — plus a
``summary()`` of every headline number and a printable ``report()``.

All results are computed lazily, in the calling process, and memoized
on the study object, so figures share their intermediates without
recomputation and the memo is freed with the study.  ``summary()`` and
``report()`` compute their figures in the order they ask for them,
whether telemetry is on or off; only the per-shard kernels behind
``metrics`` and ``homes`` fan out, across the analysis process pool
(``workers``).  Fig 7's presence count is a per-shard kernel too, but
it always runs in process, one shard and one window of days at a time.

Given an :class:`~repro.analysis.cache.ArtifactCache` (attached
automatically by :meth:`repro.api.Run.study` and the CLI for persisted
runs), every figure payload is fetched from / stored into the run's
content-addressed ``cache/analysis/`` store, so a second process never
recomputes what the first already produced.  Two of the three shared
intermediates, the daily metrics and home detection, are stored once,
as the per-segment range artifacts of :mod:`repro.analysis.mobility`,
and composed in memory; the third, the labeled KPI frame, is recomputed
by every study, because labeling takes less time than reading a stored
copy back.  Cached and fresh results are bitwise identical; without a
cache the cost is one ``None`` check per artifact.
"""

from __future__ import annotations

from functools import cached_property, wraps

import numpy as np

from repro import telemetry
from repro.analysis.cache import report_params, summary_params
from repro.core.correlation import (
    EntropyCasesResult,
    cluster_users_volume_correlation,
    entropy_cases_correlation,
)
from repro.core.home import HomeDetectionResult
from repro.core.mobility_series import (
    MobilitySeries,
    geodemographic_mobility,
    national_mobility,
    regional_mobility,
)
from repro.core.performance import (
    PERF_METRICS,
    WeeklySeries,
    label_kpis,
    performance_panel,
)
from repro.core.relocation import RelocationMatrix, relocation_matrix
from repro.core.report import render_series_block
from repro.core.rat_usage import rat_time_share
from repro.core.statistics import MobilityDailyMetrics
from repro.core.validation import HomeValidation, validate_against_census
from repro.core.voice_analysis import VOICE_METRICS, voice_series
from repro.geo.oac import oac_table
from repro.simulation.clock import BASELINE_WEEK
from repro.simulation.config import SimulationConfig
from repro.simulation.feeds import DataFeeds

__all__ = ["CovidImpactStudy"]


def _memoized(method):
    """Compute a no-argument study method once per study object.

    The result lives in the instance's ``_memo``, so it is freed with
    the study (``functools.cache`` on a method would keep every study
    alive for the life of the process).
    """
    name = method.__name__

    @wraps(method)
    def memoized(self):
        if name not in self._memo:
            self._memo[name] = method(self)
        return self._memo[name]

    return memoized


class CovidImpactStudy:
    """Reproduce the paper's evaluation on a data-feeds bundle.

    Parameters
    ----------
    feeds:
        The data feeds to analyze.
    gyration_mode:
        Passed through to :func:`~repro.core.statistics.
        compute_daily_metrics`.
    cache:
        An :class:`~repro.analysis.cache.ArtifactCache` to fetch/store
        every artifact through, or ``None`` (the default) for purely
        in-memory computation.
    workers:
        Process-pool width for the shard-streaming kernels (metrics,
        home detection).  ``None`` (default) keeps them in process;
        results are bitwise identical for every value.  The figures
        always compute in the calling process, Fig 7's per-shard
        presence kernel included.
    """

    def __init__(
        self,
        feeds: DataFeeds,
        gyration_mode: str = "weighted",
        *,
        cache: "object | None" = None,
        workers: int | None = None,
    ) -> None:
        self._feeds = feeds
        self._gyration_mode = gyration_mode
        self._cache = cache
        self._workers = workers
        self._memo: dict[str, object] = {}

    @classmethod
    def run(
        cls,
        config: SimulationConfig | None = None,
        gyration_mode: str = "weighted",
    ) -> "CovidImpactStudy":
        """Simulate with ``config`` and wrap the result in a study."""
        from repro.simulation.engine import Simulator

        feeds = Simulator(config or SimulationConfig()).run()
        return cls(feeds, gyration_mode=gyration_mode)

    @property
    def feeds(self) -> DataFeeds:
        return self._feeds

    @property
    def artifact_cache(self):
        """The attached artifact cache (``None`` when uncached)."""
        return self._cache

    def _artifact(self, name: str, params: dict, compute):
        """Route one artifact through the persistent cache, if any."""
        if self._cache is None:
            return compute()
        return self._cache.get_or_compute(name, params, compute)

    def _mobility_params(self) -> dict:
        return {"gyration_mode": self._gyration_mode}

    # -- shared intermediates ------------------------------------------------
    # Each stage runs under a telemetry span (recorded only while
    # repro.telemetry is enabled). Spans fire on first computation —
    # cached re-reads cost nothing — and nest by call stack, so the
    # phase table shows each stage under whichever artifact actually
    # triggered it.
    # metrics and homes compute through repro.analysis.mobility, which
    # stores them only as segment-keyed range artifacts: on a segmented
    # live run an advance recomputes just the appended segment, the
    # prefix ranges are cache hits, and the composition is
    # bitwise-identical to a from-scratch recomputation.
    @cached_property
    def metrics(self) -> MobilityDailyMetrics:
        """Per-user-day entropy/gyration over the whole window."""
        from repro.analysis.mobility import incremental_daily_metrics

        with telemetry.span("metrics") as sp:
            result = incremental_daily_metrics(
                self._feeds,
                gyration_mode=self._gyration_mode,
                cache=self._cache,
                workers=self._workers,
            )
            sp.add(
                "user_days",
                self._feeds.num_users * self._feeds.mobility.num_days,
            )
            return result

    @cached_property
    def homes(self) -> HomeDetectionResult:
        from repro.analysis.mobility import incremental_homes

        with telemetry.span("home_detection"):
            return incremental_homes(
                self._feeds, cache=self._cache, workers=self._workers
            )

    @cached_property
    def labeled_kpis(self):
        """The KPI feed with its week and geography labels (never cached:
        labeling is cheaper than reading a stored copy back)."""
        with telemetry.span("label_kpis"):
            return label_kpis(self._feeds)

    # -- paper artifacts ------------------------------------------------------
    def table1(self) -> list[tuple[str, str]]:
        """Table 1: the geodemographic cluster catalog."""
        return oac_table()

    @_memoized
    def fig2(self) -> HomeValidation:
        """Fig 2: inferred vs census LAD populations."""
        with telemetry.span("fig2"):
            return self._artifact(
                "fig2",
                {},
                lambda: validate_against_census(self._feeds, self.homes),
            )

    @_memoized
    def fig3(self) -> dict[str, MobilitySeries]:
        """Fig 3: national daily gyration/entropy change."""
        with telemetry.span("fig3"):
            return self._artifact(
                "fig3",
                self._mobility_params(),
                lambda: national_mobility(self.metrics, self._feeds),
            )

    @_memoized
    def fig4(self) -> EntropyCasesResult:
        """Fig 4: entropy change vs cumulative confirmed cases."""
        with telemetry.span("fig4"):
            return self._artifact(
                "fig4",
                self._mobility_params(),
                lambda: entropy_cases_correlation(self.fig3(), self._feeds),
            )

    @_memoized
    def fig5(self) -> dict[str, MobilitySeries]:
        """Fig 5: regional mobility (five high-density regions)."""
        with telemetry.span("fig5"):
            return self._artifact(
                "fig5",
                self._mobility_params(),
                lambda: regional_mobility(self.metrics, self._feeds),
            )

    @_memoized
    def fig6(self) -> dict[str, MobilitySeries]:
        """Fig 6: mobility per geodemographic cluster."""
        with telemetry.span("fig6"):
            return self._artifact(
                "fig6",
                self._mobility_params(),
                lambda: geodemographic_mobility(self.metrics, self._feeds),
            )

    @_memoized
    def fig7(self) -> RelocationMatrix:
        """Fig 7: the Inner-London relocation mobility matrix."""
        with telemetry.span("fig7"):
            return self._artifact(
                "fig7",
                {},
                lambda: relocation_matrix(self._feeds, self.homes),
            )

    @_memoized
    def fig8(self) -> dict[str, WeeklySeries]:
        """Fig 8: UK + regional series for every data-traffic KPI."""
        with telemetry.span("fig8"):
            return self._artifact(
                "fig8", {"percentile": 50.0}, self._fig8_fresh
            )

    def _fig8_fresh(self) -> dict[str, WeeklySeries]:
        return performance_panel(
            self._feeds, PERF_METRICS, grouping="county",
            labeled=self.labeled_kpis,
        )

    @_memoized
    def fig9(self) -> dict[str, WeeklySeries]:
        """Fig 9: national voice-traffic series (QCI = 1)."""
        with telemetry.span("fig9"):
            return self._artifact(
                "fig9",
                {"percentile": 50.0},
                lambda: voice_series(
                    self._feeds, labeled=self.labeled_kpis
                ),
            )

    @_memoized
    def fig10(self) -> dict[str, WeeklySeries]:
        """Fig 10: network performance per geodemographic cluster."""
        with telemetry.span("fig10"):
            return self._artifact(
                "fig10", {"percentile": 50.0}, self._fig10_fresh
            )

    def _fig10_fresh(self) -> dict[str, WeeklySeries]:
        return performance_panel(
            self._feeds, PERF_METRICS, grouping="oac",
            labeled=self.labeled_kpis,
        )

    @_memoized
    def fig11(self) -> dict[str, WeeklySeries]:
        """Fig 11: Inner-London postal-district network performance."""
        with telemetry.span("fig11"):
            return self._artifact(
                "fig11", {"percentile": 50.0}, self._fig11_fresh
            )

    def _fig11_fresh(self) -> dict[str, WeeklySeries]:
        return performance_panel(
            self._feeds, PERF_METRICS, grouping="district_area",
            restrict_county="Inner London",
            labeled=self.labeled_kpis,
        )

    @_memoized
    def fig12(self) -> dict[str, WeeklySeries]:
        """Fig 12: London network performance per OAC cluster."""
        with telemetry.span("fig12"):
            return self._artifact(
                "fig12", {"percentile": 50.0}, self._fig12_fresh
            )

    def _fig12_fresh(self) -> dict[str, WeeklySeries]:
        return performance_panel(
            self._feeds, PERF_METRICS, grouping="oac",
            restrict_county="Inner London",
            labeled=self.labeled_kpis,
        )

    @_memoized
    def rat_share(self) -> dict[str, float]:
        """§2.4: connected-time share per RAT."""
        with telemetry.span("rat_share"):
            return self._artifact(
                "rat_share",
                {},
                lambda: rat_time_share(self._feeds.rat_time),
            )

    @_memoized
    def cluster_correlations(self) -> dict[str, float]:
        """§4.4: users-vs-DL-volume correlation per cluster."""
        with telemetry.span("cluster_correlations"):
            def fresh() -> dict[str, float]:
                fig10 = self.fig10()
                return cluster_users_volume_correlation(
                    fig10["connected_users"], fig10["dl_volume_mb"]
                )

            return self._artifact(
                "cluster_correlations", {"percentile": 50.0}, fresh
            )

    def verdicts(self):
        """Score this run against every machine-readable paper target."""
        from repro.core.paper_targets import evaluate_summary

        return evaluate_summary(self.summary())

    def recovery_ranking(self, metric: str = "gyration"):
        """§3.2 quantified: regional recovery slopes, fastest first."""
        from repro.core.recovery import rank_recoveries

        return rank_recoveries(self.fig5()[metric])

    def weekly_rhythm(self, metric: str = "gyration"):
        """Weekday/weekend gap of the national series, per week."""
        from repro.core.seasonality import weekly_rhythm

        series = self.fig3()[metric]
        return weekly_rhythm(
            series.values["UK"], series.x, self._feeds.calendar
        )

    # -- headline numbers -----------------------------------------------------
    @telemetry.timed("summary")
    def summary(self) -> dict[str, float]:
        """Every takeaway number of the paper, measured on this run."""
        return self._artifact(
            "summary", summary_params(self._gyration_mode), self._summary_fresh
        )

    def _summary_fresh(self) -> dict[str, float]:
        feeds = self._feeds
        weeks_of_day = feeds.calendar.weeks[
            np.flatnonzero(feeds.calendar.weeks >= BASELINE_WEEK)
        ]
        fig3 = self.fig3()
        fig4 = self.fig4()
        fig8 = self.fig8()
        fig9 = self.fig9()
        fig10 = self.fig10()
        fig7 = self.fig7()
        validation = self.fig2()

        def weekly_avg(series: MobilitySeries, week: int) -> float:
            return series.at_week("UK", week, weeks_of_day=weeks_of_day)

        gyration = fig3["gyration"]
        entropy = fig3["entropy"]
        lockdown_gyration = min(
            weekly_avg(gyration, 13), weekly_avg(gyration, 14)
        )
        lockdown_entropy = min(
            weekly_avg(entropy, 13), weekly_avg(entropy, 14)
        )

        dl = fig8["dl_volume_mb"]
        ul = fig8["ul_volume_mb"]
        # The paper quotes the uplink range "during lockdown" (§1):
        # restrict to weeks 13+ (weeks 10–12 show the pre-lockdown
        # growth the paper reports separately).
        ul_lockdown = ul.values["UK"][ul.weeks >= 13]
        users = fig8["dl_active_users"]
        throughput = fig8["user_dl_throughput_mbps"]
        load = fig8["radio_load_pct"]
        voice_vol = fig9["voice_volume_mb"]
        dl_loss = fig9["voice_dl_loss_rate"]
        ul_loss = fig9["voice_ul_loss_rate"]

        lockdown_days = np.flatnonzero(
            feeds.calendar.weeks[fig7.days] >= 14
        )
        away = np.mean(
            [fig7.away_share(int(day)) for day in lockdown_days]
        )
        baseline_days = np.flatnonzero(
            feeds.calendar.weeks[fig7.days] == BASELINE_WEEK
        )
        away_baseline = np.mean(
            [fig7.away_share(int(day)) for day in baseline_days]
        )

        correlations = self.cluster_correlations()
        rat = self.rat_share()

        result = {
            "gyration_change_lockdown_pct": lockdown_gyration,
            "entropy_change_lockdown_pct": lockdown_entropy,
            "home_detection_rate": self.homes.detection_rate,
            "fig2_r_squared": validation.r_squared,
            "fig4_pearson_pre_lockdown": fig4.pearson_r_pre_lockdown,
            "fig4_pearson_pre_declaration": fig4.pearson_r_pre_declaration,
            "dl_volume_week10_pct": dl.at_week("UK", 10),
            "dl_volume_min_pct": dl.minimum("UK")[1],
            "dl_volume_min_week": dl.minimum("UK")[0],
            "ul_volume_lockdown_min_pct": float(ul_lockdown.min()),
            "ul_volume_lockdown_max_pct": float(ul_lockdown.max()),
            "ul_volume_week10_pct": ul.at_week("UK", 10),
            "active_users_min_pct": users.minimum("UK")[1],
            "throughput_min_pct": throughput.minimum("UK")[1],
            "radio_load_min_pct": load.minimum("UK")[1],
            "voice_volume_peak_pct": voice_vol.maximum("UK")[1],
            "voice_volume_peak_week": voice_vol.maximum("UK")[0],
            "voice_dl_loss_peak_pct": dl_loss.maximum("UK")[1],
            "voice_dl_loss_final_pct": float(dl_loss.values["UK"][-1]),
            "voice_ul_loss_min_pct": ul_loss.minimum("UK")[1],
            "inner_london_away_share_lockdown": float(away),
            "inner_london_away_share_baseline": float(away_baseline),
            "inner_london_dl_min_pct": dl.minimum("Inner London")[1],
            "outer_london_dl_min_pct": dl.minimum("Outer London")[1],
            "cosmopolitan_users_min_pct": (
                fig10["connected_users"].minimum("Cosmopolitans")[1]
            ),
            "rural_dl_min_pct": fig10["dl_volume_mb"].minimum(
                "Rural Residents"
            )[1],
            "corr_cosmopolitans": correlations.get("Cosmopolitans", 0.0),
            "corr_ethnicity_central": correlations.get(
                "Ethnicity Central", 0.0
            ),
            "corr_rural": correlations.get("Rural Residents", 0.0),
            "corr_suburbanites": correlations.get("Suburbanites", 0.0),
            "ec_dl_min_pct": self._fig11_min("EC"),
            "wc_dl_min_pct": self._fig11_min("WC"),
            "n_active_users_peak_pct": self._fig11_n_peak(),
            "rat_share_4g": rat.get("4G", 0.0),
        }
        # §4.1 / §4.2 growth framings ("rewound by one year", "seven
        # years of voice growth in days").
        from repro.core.annual_context import contextualize_summary

        result.update(contextualize_summary(result))
        return result

    def _fig11_min(self, area: str) -> float:
        series = self.fig11()["dl_volume_mb"]
        if area not in series.values:
            return float("nan")
        return series.minimum(area)[1]

    def _fig11_n_peak(self) -> float:
        """Max N-district active-user change over weeks 10–14 (§5.1)."""
        series = self.fig11()["dl_active_users"]
        if "N" not in series.values:
            return float("nan")
        mask = (series.weeks >= 10) & (series.weeks <= 14)
        return float(series.values["N"][mask].max())

    @telemetry.timed("report")
    def report(self, full: bool = False) -> str:
        """Printable study report: every figure as a text panel.

        The default report covers the national figures (3, 8, 9) plus
        the headline summary; ``full=True`` adds the Fig 2/4 scatters
        and the regional/cluster/London panels (5, 6, 10, 11, 12).
        """
        return self._artifact(
            "report",
            report_params(full, self._gyration_mode),
            lambda: self._report_fresh(full),
        )

    def _report_fresh(self, full: bool) -> str:
        from repro.core.baseline import weekly_mean
        from repro.core.report import scatter_plot

        blocks = []
        fig3 = self.fig3()
        weeks_of_day = self._feeds.calendar.weeks[fig3["gyration"].x]

        for metric in ("gyration", "entropy"):
            weeks, weekly = weekly_mean(
                fig3[metric].values["UK"], weeks_of_day
            )
            blocks.append(
                render_series_block(
                    f"Fig 3 — national {metric} (weekly mean of daily % change)",
                    weeks,
                    {"UK": weekly},
                )
            )
        if full:
            validation = self.fig2()
            blocks.append(
                "Fig 2 — inferred vs census LAD population "
                f"(r² = {validation.r_squared:.3f})\n"
                + scatter_plot(
                    validation.table["census_population"].astype(float),
                    validation.table["inferred_users"].astype(float),
                    x_label="census",
                    y_label="inferred users",
                )
            )
            fig4 = self.fig4()
            blocks.append(
                "Fig 4 — entropy change vs cumulative cases "
                f"(pre-declaration r = {fig4.pearson_r_pre_declaration:+.2f})\n"
                + scatter_plot(
                    fig4.cumulative_cases,
                    fig4.entropy_change_pct,
                    x_label="cumulative cases",
                    y_label="entropy change %",
                )
            )
            for fig_name, figure in (
                ("Fig 5", self.fig5()), ("Fig 6", self.fig6()),
            ):
                for metric in ("gyration", "entropy"):
                    series = figure[metric]
                    blocks.append(
                        render_series_block(
                            f"{fig_name} — {metric} "
                            "(% vs national week 9)",
                            series.x,
                            dict(sorted(series.values.items())),
                        )
                    )
        for metric, series in self.fig8().items():
            blocks.append(
                render_series_block(
                    f"Fig 8 — {metric}", series.weeks, series.values
                )
            )
        for metric, series in self.fig9().items():
            blocks.append(
                render_series_block(
                    f"Fig 9 — {metric}", series.weeks, series.values
                )
            )
        if full:
            for fig_name, figure in (
                ("Fig 10", self.fig10()),
                ("Fig 11 (Inner London)", self.fig11()),
                ("Fig 12 (London clusters)", self.fig12()),
            ):
                for metric in ("dl_volume_mb", "connected_users"):
                    series = figure[metric]
                    blocks.append(
                        render_series_block(
                            f"{fig_name} — {metric}",
                            series.weeks,
                            dict(sorted(series.values.items())),
                        )
                    )
        summary = self.summary()
        lines = ["Headline numbers", "----------------"]
        lines.extend(
            f"{key:<40} {value:>10.3f}" for key, value in summary.items()
        )
        blocks.append("\n".join(lines))
        return "\n\n".join(blocks)
