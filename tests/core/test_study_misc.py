"""Tests for the study driver, correlations, RAT shares and reports."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import CovidImpactStudy, rat_time_share
from repro.core.correlation import pearson
from repro.core.report import (
    format_week_header,
    render_series_block,
    sparkline,
)
from repro.frames import Frame
from repro.geo import oac_table


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(10, dtype=float)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_anticorrelation(self):
        x = np.arange(10, dtype=float)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_series_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0]), np.array([2.0]))

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))


class TestRatShare:
    def test_shares_sum_to_one(self, study):
        shares = study.rat_share()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_4g_dominates(self, study):
        shares = study.rat_share()
        # Paper §2.4: ~75% of connected time on 4G.
        assert shares["4G"] == pytest.approx(0.75, abs=0.03)
        assert shares["4G"] > shares["3G"] > shares["2G"]

    def test_empty_feed_rejected(self):
        empty = Frame(
            {
                "day": np.array([0]),
                "rat": np.array(["4G"]),
                "connected_seconds": np.array([0.0]),
            }
        )
        with pytest.raises(ValueError):
            rat_time_share(empty)


class TestTable1:
    def test_eight_rows(self, study):
        assert len(study.table1()) == 8
        assert study.table1() == oac_table()


class TestSummary:
    def test_summary_keys_cover_takeaways(self, study):
        summary = study.summary()
        expected = {
            "gyration_change_lockdown_pct",
            "entropy_change_lockdown_pct",
            "home_detection_rate",
            "fig2_r_squared",
            "fig4_pearson_pre_declaration",
            "dl_volume_week10_pct",
            "dl_volume_min_pct",
            "ul_volume_lockdown_min_pct",
            "voice_volume_peak_pct",
            "voice_dl_loss_peak_pct",
            "inner_london_away_share_lockdown",
            "rat_share_4g",
        }
        assert expected <= set(summary)

    def test_summary_values_finite(self, study):
        for key, value in study.summary().items():
            assert np.isfinite(value), key

    def test_headline_directions(self, study):
        summary = study.summary()
        assert summary["gyration_change_lockdown_pct"] < -30
        assert summary["dl_volume_min_pct"] < -15
        assert summary["voice_volume_peak_pct"] > 100
        assert summary["voice_dl_loss_peak_pct"] > 100
        assert 0.05 < summary["inner_london_away_share_lockdown"] < 0.2

    def test_report_renders(self, study):
        report = study.report()
        assert "Fig 3" in report
        assert "Fig 8" in report
        assert "Headline numbers" in report


class TestReportHelpers:
    def test_sparkline_length(self):
        assert len(sparkline(np.arange(10.0))) == 10

    def test_sparkline_constant(self):
        assert sparkline(np.ones(4)) == "▄▄▄▄"

    def test_sparkline_empty(self):
        assert sparkline(np.array([])) == ""

    def test_sparkline_nan(self):
        out = sparkline(np.array([1.0, np.nan, 2.0]))
        assert out[1] == "·"

    def test_week_header(self):
        header = format_week_header(np.array([9, 10]))
        assert "9" in header and "10" in header

    def test_render_block(self):
        block = render_series_block(
            "Panel",
            np.array([9, 10]),
            {"UK": np.array([0.0, -10.0])},
        )
        assert "Panel" in block
        assert "UK" in block
        assert "-10.0" in block


class TestStudyConstruction:
    def test_from_existing_feeds(self, feeds):
        study = CovidImpactStudy(feeds)
        assert study.feeds is feeds

    def test_study_is_freed_after_memoized_calls(self, feeds):
        study = CovidImpactStudy(feeds)
        study.fig2()
        study.rat_share()
        ref = weakref.ref(study)
        del study
        gc.collect()
        assert ref() is None

    def test_gyration_mode_paper(self, feeds):
        study = CovidImpactStudy(feeds, gyration_mode="paper")
        metrics = study.metrics
        assert metrics.gyration_km.shape[0] == feeds.calendar.num_days
