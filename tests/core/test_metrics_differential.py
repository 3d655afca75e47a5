"""Differential tests: vectorized mobility kernels vs per-row Python.

:func:`mobility_entropy` and :func:`radius_of_gyration` are the inner
kernels of the daily-metrics walk; both are segment-sum / bincount
vectorizations of a formula that is trivial to state row by row.
These property tests (hypothesis) re-derive every row with a naive
pure-Python reference — dicts for the tower merge, ``math`` for the
arithmetic — and require the kernels to agree to float round-off on
generated edge rows: zero-dwell users, single-tower users, duplicate
anchors pointing at one physical tower.  A prepared
:class:`TowerGeometry` must do the same for every dwell matrix it is
applied to, as the daily-metrics walk applies one per shard to every
day.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    TowerGeometry,
    mobility_entropy,
    radius_of_gyration,
)

# Dwell seconds: heavily weighted toward the edge cases (exact zeros,
# whole days) but covering arbitrary magnitudes.
dwell_values = st.one_of(
    st.just(0.0),
    st.just(86_400.0),
    st.floats(min_value=0.0, max_value=86_400.0,
              allow_nan=False, allow_infinity=False),
)
# A small tower-id pool forces duplicate anchors within a row.
tower_ids = st.integers(min_value=0, max_value=4)
coords = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def matrix(draw, elements, shape):
    rows, k = shape
    return np.array(
        draw(st.lists(st.lists(elements, min_size=k, max_size=k),
                      min_size=rows, max_size=rows))
    )


@st.composite
def dwell_rows(draw, with_coords=False):
    rows = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=6))
    shape = (rows, k)
    dwell = matrix(draw, dwell_values, shape)
    sites = matrix(draw, tower_ids, shape)
    if not with_coords:
        return dwell, sites
    lats = matrix(draw, coords, shape)
    lons = matrix(draw, coords, shape)
    assert dwell.shape == sites.shape == lats.shape == lons.shape == shape
    return dwell, lats, lons


@st.composite
def anchor_days(draw):
    """One anchor layout and several days of dwell on it."""
    shape = (
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.integers(min_value=1, max_value=6)),
    )
    sites = matrix(draw, tower_ids, shape)
    lats = matrix(draw, coords, shape)
    lons = matrix(draw, coords, shape)
    days = [
        matrix(draw, dwell_values, shape)
        for _ in range(draw(st.integers(min_value=2, max_value=5)))
    ]
    return sites, lats, lons, days


def entropy_row_reference(dwell, sites):
    """Eq. 1 for one user-day, the obvious way: merge by tower id."""
    per_tower = {}
    for seconds, site in zip(dwell, sites):
        per_tower[site] = per_tower.get(site, 0.0) + seconds
    total = sum(per_tower.values())
    if total <= 0:
        return 0.0
    entropy = 0.0
    for seconds in per_tower.values():
        p = seconds / total
        if p > 0:
            entropy -= p * math.log(p)
    return entropy


def gyration_row_reference(dwell, lats, lons, mode):
    """Eq. 2 for one user-day, scalar arithmetic throughout."""
    total = sum(dwell)
    if total <= 0:
        return 0.0
    km_per_deg_lat = 111.32
    km_per_deg_lon = km_per_deg_lat * math.cos(math.radians(lats[0]))
    x = [(lon - lons[0]) * km_per_deg_lon for lon in lons]
    y = [(lat - lats[0]) * km_per_deg_lat for lat in lats]
    if mode == "weighted":
        w = [seconds / total for seconds in dwell]
        cx = sum(wi * xi for wi, xi in zip(w, x))
        cy = sum(wi * yi for wi, yi in zip(w, y))
        sq = sum(
            wi * ((xi - cx) ** 2 + (yi - cy) ** 2)
            for wi, xi, yi in zip(w, x, y)
        )
        return math.sqrt(sq)
    t = [seconds / 86_400.0 for seconds in dwell]
    count = max(sum(1 for seconds in dwell if seconds > 0), 1)
    cx = sum(ti * xi for ti, xi in zip(t, x)) / count
    cy = sum(ti * yi for ti, yi in zip(t, y)) / count
    sq = sum(
        (ti * xi - cx) ** 2 + (ti * yi - cy) ** 2
        for ti, xi, yi, seconds in zip(t, x, y, dwell)
        if seconds > 0
    ) / count
    return math.sqrt(sq)


class TestEntropyDifferential:
    @given(dwell_rows())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_row_reference(self, data):
        dwell, sites = data
        vectorized = mobility_entropy(dwell, sites)
        for row in range(dwell.shape[0]):
            expected = entropy_row_reference(dwell[row], sites[row])
            assert math.isclose(
                vectorized[row], expected, rel_tol=1e-9, abs_tol=1e-12
            )

    def test_zero_dwell_row_is_zero(self):
        dwell = np.zeros((3, 4))
        sites = np.arange(12).reshape(3, 4)
        assert np.array_equal(mobility_entropy(dwell, sites), np.zeros(3))

    def test_single_tower_row_is_zero(self):
        # All dwell on one physical tower — degenerate distribution.
        dwell = np.array([[3600.0, 0.0, 0.0]])
        sites = np.array([[7, 8, 9]])
        assert mobility_entropy(dwell, sites)[0] == 0.0

    def test_duplicate_anchors_merge_into_one_tower(self):
        # Two anchors on tower 5 must count as a single p(j): the
        # merged row is uniform over two towers -> log(2).
        split = np.array([[1800.0, 1800.0, 3600.0]])
        split_sites = np.array([[5, 5, 6]])
        merged = np.array([[3600.0, 3600.0]])
        merged_sites = np.array([[5, 6]])
        assert math.isclose(
            mobility_entropy(split, split_sites)[0],
            math.log(2.0), rel_tol=1e-12,
        )
        assert math.isclose(
            mobility_entropy(split, split_sites)[0],
            mobility_entropy(merged, merged_sites)[0], rel_tol=1e-12,
        )


class TestGyrationDifferential:
    @given(dwell_rows(with_coords=True))
    @settings(max_examples=120, deadline=None)
    def test_weighted_matches_per_row_reference(self, data):
        dwell, lats, lons = data
        vectorized = radius_of_gyration(dwell, lats, lons, mode="weighted")
        for row in range(dwell.shape[0]):
            expected = gyration_row_reference(
                dwell[row], lats[row], lons[row], "weighted"
            )
            assert math.isclose(
                vectorized[row], expected, rel_tol=1e-9, abs_tol=1e-9
            )

    @given(dwell_rows(with_coords=True))
    @settings(max_examples=120, deadline=None)
    def test_paper_mode_matches_per_row_reference(self, data):
        dwell, lats, lons = data
        vectorized = radius_of_gyration(dwell, lats, lons, mode="paper")
        for row in range(dwell.shape[0]):
            expected = gyration_row_reference(
                dwell[row], lats[row], lons[row], "paper"
            )
            assert math.isclose(
                vectorized[row], expected, rel_tol=1e-9, abs_tol=1e-9
            )

    def test_zero_dwell_row_is_zero(self):
        dwell = np.zeros((2, 3))
        coords_matrix = np.ones((2, 3))
        for mode in ("weighted", "paper"):
            out = radius_of_gyration(
                dwell, coords_matrix, coords_matrix, mode=mode
            )
            assert np.array_equal(out, np.zeros(2))

    def test_single_tower_row_is_zero(self):
        dwell = np.array([[86_400.0, 0.0]])
        lats = np.array([[51.5, 53.0]])
        lons = np.array([[-0.1, -2.2]])
        assert radius_of_gyration(dwell, lats, lons)[0] == 0.0


class TestPreparedGeometry:
    @given(anchor_days())
    @settings(max_examples=80, deadline=None)
    def test_one_geometry_serves_many_days(self, data):
        sites, lats, lons, days = data
        geometry = TowerGeometry(sites, lats, lons)
        for dwell in days:
            entropy = geometry.entropy(dwell)
            weighted = geometry.gyration(dwell, mode="weighted")
            paper = geometry.gyration(dwell, mode="paper")
            for row in range(dwell.shape[0]):
                assert math.isclose(
                    entropy[row],
                    entropy_row_reference(dwell[row], sites[row]),
                    rel_tol=1e-9, abs_tol=1e-12,
                )
                for mode, out in (("weighted", weighted), ("paper", paper)):
                    expected = gyration_row_reference(
                        dwell[row], lats[row], lons[row], mode
                    )
                    assert math.isclose(
                        out[row], expected, rel_tol=1e-9, abs_tol=1e-9
                    )
            # Bitwise the one-shot calls, which build a fresh geometry.
            assert np.array_equal(entropy, mobility_entropy(dwell, sites))
            assert np.array_equal(
                weighted, radius_of_gyration(dwell, lats, lons)
            )
            assert np.array_equal(
                paper, radius_of_gyration(dwell, lats, lons, mode="paper")
            )

    @given(anchor_days())
    @settings(max_examples=40, deadline=None)
    def test_every_call_checks_its_dwell(self, data):
        sites, lats, lons, days = data
        geometry = TowerGeometry(sites, lats, lons)
        first, later = days[0], days[1]
        geometry.entropy(first)
        geometry.gyration(first)

        negative = later.copy()
        negative[-1, -1] = -1.0
        wider = np.zeros((later.shape[0], later.shape[1] + 1))
        for bad in (negative, wider, later[0]):
            with pytest.raises(ValueError):
                geometry.entropy(bad)
            with pytest.raises(ValueError):
                geometry.gyration(bad)
        with pytest.raises(ValueError, match="mode"):
            geometry.gyration(later, mode="nope")
        # A rejected matrix leaves the geometry usable.
        assert np.array_equal(
            geometry.entropy(later), mobility_entropy(later, sites)
        )

    def test_missing_half_raises(self):
        dwell = np.ones((1, 2))
        with pytest.raises(ValueError, match="sites"):
            TowerGeometry(lats=dwell, lons=dwell).entropy(dwell)
        with pytest.raises(ValueError, match="lats and lons"):
            TowerGeometry(sites=np.array([[1, 2]])).gyration(dwell)
