"""Study calendar: the real 2020 timeline of the paper.

Every figure of the paper is indexed by ISO week of 2020 ("week 9" is
the baseline, "week 13" is the first lockdown week). The calendar maps
simulation day indices to real dates, ISO weeks and weekday/weekend
flags, and carries the intervention dates:

- 11 March (week 11): WHO declares the pandemic,
- 16 March (week 12): the government recommends working from home,
- 20 March (week 12): closure of schools, restaurants, bars and gyms,
- 23 March (week 13): nationwide stay-at-home order.

The default calendar starts Monday 3 February (week 6) — the extra
February weeks exist because the paper's home-detection step needs ≥14
nights "during February 2020" — and ends Sunday 10 May (week 19).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["KeyDates", "StudyCalendar", "default_calendar", "BASELINE_WEEK"]

# The paper normalizes every metric against this ISO week.
BASELINE_WEEK = 9


@dataclass(frozen=True)
class KeyDates:
    """UK intervention dates (all 2020)."""

    pandemic_declared: dt.date = dt.date(2020, 3, 11)
    wfh_recommended: dt.date = dt.date(2020, 3, 16)
    venues_closed: dt.date = dt.date(2020, 3, 20)
    lockdown: dt.date = dt.date(2020, 3, 23)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class StudyCalendar:
    """Maps simulation day indices onto the 2020 study window.

    The per-day arrays are cached on first use and read-only: every
    run and world that shares the calendar reads the same copy.
    """

    def __init__(
        self,
        first_day: dt.date = dt.date(2020, 2, 3),
        num_days: int = 98,
        key_dates: KeyDates | None = None,
    ) -> None:
        if num_days <= 0:
            raise ValueError("num_days must be positive")
        self._first_day = first_day
        self._num_days = num_days
        self.key_dates = key_dates or KeyDates()

    def __getstate__(self) -> dict:
        """Pickle the defining fields only, never the cached arrays.

        A pickled calendar (``config.pkl``, the checkpoint digest) is
        then a function of its first day, length and key dates alone,
        whether or not a run has evaluated its cached properties.
        """
        return {
            "_first_day": self._first_day,
            "_num_days": self._num_days,
            "key_dates": self.key_dates,
        }

    # -- size & iteration ------------------------------------------------
    @property
    def num_days(self) -> int:
        return self._num_days

    @property
    def first_day(self) -> dt.date:
        return self._first_day

    @property
    def last_day(self) -> dt.date:
        return self._first_day + dt.timedelta(days=self._num_days - 1)

    @cached_property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(
            self._first_day + dt.timedelta(days=index)
            for index in range(self._num_days)
        )

    # -- conversions -------------------------------------------------------
    def date_of(self, day: int) -> dt.date:
        """Date of a simulation day index."""
        if not 0 <= day < self._num_days:
            raise IndexError(f"day {day} outside [0, {self._num_days})")
        return self.dates[day]

    def day_of(self, date: dt.date) -> int:
        """Simulation day index of a date."""
        offset = (date - self._first_day).days
        if not 0 <= offset < self._num_days:
            raise KeyError(f"{date} outside the study window")
        return offset

    def iso_week(self, day: int) -> int:
        """ISO week number of a simulation day."""
        return self.date_of(day).isocalendar().week

    @cached_property
    def weeks(self) -> np.ndarray:
        """ISO week per simulation day."""
        return _read_only(np.array(
            [date.isocalendar().week for date in self.dates], dtype=np.int64
        ))

    @cached_property
    def weekdays(self) -> np.ndarray:
        """Weekday index per simulation day (0 = Monday)."""
        return _read_only(
            np.array([date.weekday() for date in self.dates], dtype=np.int64)
        )

    @cached_property
    def is_weekend(self) -> np.ndarray:
        return _read_only(self.weekdays >= 5)

    def days_in_week(self, week: int) -> np.ndarray:
        """Simulation day indices belonging to an ISO week."""
        return np.flatnonzero(self.weeks == week)

    @cached_property
    def study_weeks(self) -> tuple[int, ...]:
        """ISO weeks fully or partially covered by the calendar."""
        seen: list[int] = []
        for week in self.weeks.tolist():
            if week not in seen:
                seen.append(week)
        return tuple(seen)

    @cached_property
    def analysis_weeks(self) -> tuple[int, ...]:
        """The weeks the paper reports on: baseline week 9 onwards."""
        return tuple(w for w in self.study_weeks if w >= BASELINE_WEEK)

    # -- february (home detection window) ----------------------------------
    @cached_property
    def february_days(self) -> np.ndarray:
        """Simulation day indices falling in February 2020 (§2.3)."""
        return _read_only(np.array(
            [index for index, date in enumerate(self.dates) if date.month == 2],
            dtype=np.int64,
        ))


def default_calendar() -> StudyCalendar:
    """The full study window: Mon 3 Feb (week 6) – Sun 10 May (week 19)."""
    return StudyCalendar(first_day=dt.date(2020, 2, 3), num_days=98)
