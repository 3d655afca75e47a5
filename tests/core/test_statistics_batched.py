"""Daily-metrics helpers: the ``out=`` buffer contract and empty means.

Covers the ``out=`` buffer contract of :func:`top_tower_filter` (the
per-day metric kernel filters into one reused buffer) and the
empty-mask NaN behavior of the aggregate means.  The equivalence of
the in-memory and sharded metric walks lives in
``tests/analysis/test_associativity.py``.
"""

import warnings

import numpy as np
import pytest

from repro.core.statistics import MobilityDailyMetrics, top_tower_filter


class TestTopTowerFilterOut:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.dwell = rng.random((50, 12)) * 3600.0

    def test_out_buffer_matches_copy(self):
        before = self.dwell.copy()
        expected = top_tower_filter(self.dwell, 5)
        out = np.empty_like(self.dwell)
        result = top_tower_filter(self.dwell, 5, out=out)
        assert result is out
        assert np.array_equal(out, expected)
        assert np.array_equal(self.dwell, before)  # input untouched

    def test_in_place_filtering(self):
        expected = top_tower_filter(self.dwell, 5)
        buffer = self.dwell.copy()
        result = top_tower_filter(buffer, 5, out=buffer)
        assert result is buffer
        assert np.array_equal(buffer, expected)

    def test_identity_cut_still_copies_into_out(self):
        out = np.zeros_like(self.dwell)
        result = top_tower_filter(self.dwell, 50, out=out)
        assert result is out
        assert np.array_equal(out, self.dwell)

    def test_without_out_returns_fresh_array(self):
        result = top_tower_filter(self.dwell, 50)
        assert result is not self.dwell
        result[:] = 0.0
        assert (self.dwell > 0).all()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            top_tower_filter(self.dwell, 5, out=np.empty((50, 11)))

    def test_nonpositive_cut_rejected(self):
        with pytest.raises(ValueError, match="top_towers"):
            top_tower_filter(self.dwell, 0)


class TestEmptyMaskMeans:
    @pytest.fixture
    def metrics(self):
        rng = np.random.default_rng(3)
        return MobilityDailyMetrics(
            user_ids=np.arange(6),
            entropy=rng.random((4, 6)).astype(np.float32),
            gyration_km=rng.random((4, 6)).astype(np.float32),
        )

    def test_empty_mask_is_nan_without_warning(self, metrics):
        mask = np.zeros(6, dtype=bool)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = metrics.daily_mean_subset("entropy", mask)
        assert means.shape == (4,)
        assert np.isnan(means).all()

    def test_zero_user_study_daily_mean(self):
        empty = MobilityDailyMetrics(
            user_ids=np.empty(0, dtype=np.int64),
            entropy=np.empty((4, 0), dtype=np.float32),
            gyration_km=np.empty((4, 0), dtype=np.float32),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = empty.daily_mean("gyration")
        assert np.isnan(means).all()
        assert means.dtype == np.float32

    def test_nonempty_mask_unchanged(self, metrics):
        mask = np.array([True, False, True, False, False, False])
        expected = metrics.entropy[:, mask].mean(axis=1)
        assert np.array_equal(
            metrics.daily_mean_subset("entropy", mask), expected
        )

    def test_unknown_metric_rejected(self, metrics):
        with pytest.raises(KeyError):
            metrics.daily_mean("speed")
