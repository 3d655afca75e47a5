"""Inner-London relocation: the mobility matrix of Fig 7.

For every Inner-London *resident* (home detected per §2.3), the paper
checks the counties among their top-20 visited locations each day. A
resident is present in a county if any visited tower lies there; a
resident whose daily locations never touch Inner London has (at least
temporarily) relocated. Figure 7 reports, per county and day, the
percent change in the number of Inner-London residents present,
relative to the week-9 median; the Inner London row itself shows the
sustained ~10% post-lockdown decrease.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.home import HomeDetectionResult
from repro.simulation.clock import BASELINE_WEEK
from repro.simulation.feeds import DataFeeds

__all__ = [
    "RelocationMatrix",
    "relocation_matrix",
    "shard_relocation_presence",
]

HOME_COUNTY = "Inner London"


@dataclass
class RelocationMatrix:
    """Daily presence of Inner-London residents per county."""

    counties: list[str]  # Inner London first, then top receiving
    days: np.ndarray
    presence: np.ndarray  # (num_counties, num_days) raw resident counts
    change_pct: np.ndarray  # same shape, % change vs week-9 median
    num_residents: int

    def county_series(self, county: str) -> np.ndarray:
        return self.change_pct[self.counties.index(county)]

    def to_frame(self):
        """The matrix as a wide frame: one row per county, one column
        per day index (stringified), cells = % change vs week 9."""
        from repro.frames import Frame

        data = {"county": self.counties}
        for column, day in enumerate(self.days.tolist()):
            data[str(day)] = self.change_pct[:, column]
        return Frame(data)

    def away_share(self, day_index: int) -> float:
        """Fraction of residents absent from Inner London on a day."""
        row = self.counties.index(HOME_COUNTY)
        return 1.0 - self.presence[row, day_index] / self.num_residents


def relocation_matrix(
    feeds: DataFeeds,
    homes: HomeDetectionResult,
    top_counties: int = 10,
    presence_threshold_s: float = 300.0,
    baseline_week: int = BASELINE_WEEK,
) -> RelocationMatrix:
    """Build the Fig 7 mobility matrix.

    The coordinator selects the residents, ranks the receiving counties
    and takes the baseline; the per-(county, day) presence counts come
    from :func:`shard_relocation_presence`, run over every shard in
    process (:func:`repro.analysis.parallel.walk_shards`), and their
    int64 partials add exactly.

    Parameters
    ----------
    homes:
        Home-detection output; residents are users whose *detected*
        home tower lies in Inner London.
    top_counties:
        Number of receiving counties (ranked by week-9 inbound
        residents) to include, besides Inner London itself.
    presence_threshold_s:
        Minimum daily dwell at a tower for it to count as a visited
        location.

    Raises :class:`ValueError` when the feed has no day in
    ``baseline_week`` or no detected Inner-London resident, before any
    shard is read.
    """
    from repro.analysis.parallel import walk_shards

    calendar = feeds.calendar
    days = np.flatnonzero(calendar.weeks >= baseline_week)
    in_baseline = calendar.weeks[days] == baseline_week
    if not in_baseline.any():
        raise ValueError(f"no days in baseline week {baseline_week}")

    geography = feeds.geography
    all_counties = list(geography.county_names)
    county_index = {name: i for i, name in enumerate(all_counties)}
    # One county index per district; a site's county is its district's.
    county_of_district = np.array(
        [county_index[district.county] for district in geography.districts],
        dtype=np.int64,
    )
    site_county = county_of_district[feeds.topology.site_district_indices]

    resident = homes.detected & (
        site_county[np.maximum(homes.home_site, 0)]
        == county_index[HOME_COUNTY]
    )
    num_residents = int(resident.sum())
    if num_residents == 0:
        raise ValueError("no detected Inner-London residents")

    presence = np.zeros((len(all_counties), days.size), dtype=np.int64)
    for partial in walk_shards(
        feeds,
        "relocation",
        {
            "resident": resident,
            "site_county": site_county,
            "num_counties": len(all_counties),
            "days": days,
            "presence_threshold_s": presence_threshold_s,
        },
        workers=None,
    ):
        presence += partial

    baselines = np.median(presence[:, in_baseline], axis=1)

    # Rank receiving counties by *average* week-9 inbound residents
    # (the paper's "top 10 counties ... according to the average in
    # week 9"); weekend-trip destinations have near-zero weekday counts,
    # so a median-based ranking would drop them.
    ranking = presence[:, in_baseline].mean(axis=1)
    order = np.argsort(ranking)[::-1]
    selected: list[int] = [county_index[HOME_COUNTY]]
    for row in order:
        name = all_counties[int(row)]
        if name == HOME_COUNTY or ranking[row] <= 0:
            continue
        selected.append(int(row))
        if len(selected) >= top_counties + 1:
            break

    presence_sel = presence[selected]
    baselines_sel = np.maximum(baselines[selected], 1.0)
    change = (presence_sel / baselines_sel[:, None] - 1.0) * 100.0
    return RelocationMatrix(
        counties=[all_counties[row] for row in selected],
        days=days,
        presence=presence_sel,
        change_pct=change,
        num_residents=num_residents,
    )


def shard_relocation_presence(
    shard,
    resident: np.ndarray,
    site_county: np.ndarray,
    num_counties: int,
    days: np.ndarray,
    presence_threshold_s: float,
) -> np.ndarray:
    """One shard's Fig 7 partial: ``(counties, days)`` int64 counts.

    Cell ``[c, j]`` counts the shard's residents (``resident`` is the
    population-order mask) with at least one anchor tower in county
    ``c`` (``site_county``, indices below ``num_counties``) whose dwell
    on ``days[j]`` reaches ``presence_threshold_s``; each resident
    counts once per county and day, however many of its anchors lie
    there.  Dwell is read through :func:`repro.io.columnar.read_days`,
    one window of days at a time, and a shard without residents reads
    none.
    """
    from repro.io.columnar import read_days

    presence = np.zeros((num_counties, len(days)), dtype=np.int64)
    local = np.flatnonzero(resident[shard.rows])
    if local.size == 0:
        return presence
    # A code per (resident, county) pair: equal codes are one resident
    # present once in one county, whichever of its anchors put it there.
    codes = (
        np.arange(local.size, dtype=np.int64)[:, None] * num_counties
        + site_county[shard.anchor_sites[local]]
    )
    for column, (_, dwell) in enumerate(
        read_days(shard, "daily_dwell", days)
    ):
        visited = dwell[local] >= presence_threshold_s
        del dwell
        presence[:, column] = np.bincount(
            np.unique(codes[visited]) % num_counties, minlength=num_counties
        )
    return presence
