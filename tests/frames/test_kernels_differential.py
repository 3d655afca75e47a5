"""Differential tests: vectorized kernels vs the naive reference oracle.

Every vectorized kernel keeps its original per-group / per-row Python
implementation behind the ``REPRO_FRAMES_NAIVE=1`` environment switch.
These property tests run the same operation in both modes and require
the outputs to be **bitwise identical** (order statistics, joins)
or equal within float round-off (means, whose summation order
legitimately differs).
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import weekly_mean, weekly_mean_stack
from repro.core.performance import _grouped_weekly_delta
from repro.frames import Frame, group_by, join
from repro.frames.kernels import use_naive


@contextmanager
def frames_mode(naive: bool):
    previous = os.environ.get("REPRO_FRAMES_NAIVE")
    os.environ["REPRO_FRAMES_NAIVE"] = "1" if naive else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_FRAMES_NAIVE"]
        else:
            os.environ["REPRO_FRAMES_NAIVE"] = previous


def naive_mode():
    return frames_mode(naive=True)


def both_modes(operation):
    """Run ``operation`` vectorized and naive; return both results.

    Each mode is forced explicitly, so the suite gives the same answer
    whether or not ``REPRO_FRAMES_NAIVE`` is set in the environment.
    """
    with frames_mode(naive=False):
        assert not use_naive()
        vectorized = operation()
    with frames_mode(naive=True):
        naive = operation()
    return vectorized, naive


def assert_frames_bitwise(actual: Frame, expected: Frame) -> None:
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        left, right = actual[name], expected[name]
        assert left.dtype == right.dtype, name
        if np.issubdtype(left.dtype, np.floating):
            matches = (left == right) | (np.isnan(left) & np.isnan(right))
            assert matches.all(), (name, left, right)
        else:
            assert np.array_equal(left, right), (name, left, right)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
small_keys = st.integers(min_value=0, max_value=7)
string_keys = st.sampled_from(["N1", "EC1", "SW3", "M4", "LS9"])


@st.composite
def keyed_values(draw, min_size=1, max_size=60):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    keys = draw(
        st.lists(small_keys, min_size=size, max_size=size)
    )
    values = draw(
        st.lists(finite_floats, min_size=size, max_size=size)
    )
    return np.array(keys, dtype=np.int64), np.array(values)


# ----------------------------------------------------------------------
# GroupBy aggregations
# ----------------------------------------------------------------------
class TestGroupByDifferential:
    @given(data=keyed_values())
    @settings(max_examples=120, deadline=None)
    def test_order_statistics_bitwise(self, data):
        keys, values = data
        frame = Frame({"k": keys, "v": values})

        def run():
            return group_by(frame, "k").agg(
                med=("v", "median"),
                p25=("v", ("percentile", 25)),
                p90=("v", ("percentile", 90)),
                distinct=("v", "nunique"),
            )

        vectorized, naive = both_modes(run)
        assert_frames_bitwise(vectorized, naive)

    @given(data=keyed_values(), q=st.floats(min_value=0, max_value=100))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_percentile_bitwise(self, data, q):
        keys, values = data
        frame = Frame({"k": keys, "v": values})

        def run():
            return group_by(frame, "k").agg(p=("v", ("percentile", q)))

        vectorized, naive = both_modes(run)
        assert_frames_bitwise(vectorized, naive)

    @given(data=keyed_values())
    @settings(max_examples=60, deadline=None)
    def test_reduceat_aggregations_bitwise(self, data):
        keys, values = data
        frame = Frame({"k": keys, "v": values})

        def run():
            return group_by(frame, "k").agg(
                total=("v", "sum"), lo=("v", "min"), hi=("v", "max"),
                n=("v", "count"), head=("v", "first"), tail=("v", "last"),
            )

        vectorized, naive = both_modes(run)
        assert_frames_bitwise(vectorized, naive)

    @given(
        size=st.integers(min_value=1, max_value=40),
        nan_positions=st.sets(st.integers(min_value=0, max_value=39)),
    )
    @settings(max_examples=60, deadline=None)
    def test_nan_groups_match(self, size, nan_positions):
        rng = np.random.default_rng(size)
        values = rng.normal(size=size)
        for position in nan_positions:
            if position < size:
                values[position] = np.nan
        frame = Frame({"k": rng.integers(0, 4, size), "v": values})

        def run():
            with np.errstate(invalid="ignore"):
                import warnings

                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    return group_by(frame, "k").agg(
                        med=("v", "median"),
                        p=("v", ("percentile", 60)),
                        distinct=("v", "nunique"),
                    )

        vectorized, naive = both_modes(run)
        assert_frames_bitwise(vectorized, naive)

    def test_string_nunique_matches(self):
        frame = Frame(
            {"k": [1, 1, 1, 2, 2], "s": ["a", "b", "a", "c", "c"]}
        )

        def run():
            return group_by(frame, "k").agg(distinct=("s", "nunique"))

        vectorized, naive = both_modes(run)
        assert_frames_bitwise(vectorized, naive)
        assert vectorized["distinct"].tolist() == [2, 1]

    def test_float32_median_keeps_dtype(self):
        frame = Frame(
            {"k": [0, 0, 1], "v": np.array([1.0, 2.0, 5.0], dtype=np.float32)}
        )

        def run():
            return group_by(frame, "k").agg(med=("v", "median"))

        vectorized, naive = both_modes(run)
        assert_frames_bitwise(vectorized, naive)
        assert vectorized["med"].dtype == np.float32


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
@st.composite
def join_inputs(draw):
    left_size = draw(st.integers(min_value=0, max_value=25))
    right_size = draw(st.integers(min_value=0, max_value=25))
    left = Frame(
        {
            "k": np.array(
                draw(st.lists(small_keys, min_size=left_size,
                              max_size=left_size)),
                dtype=np.int64,
            ),
            "x": np.array(
                draw(st.lists(finite_floats, min_size=left_size,
                              max_size=left_size))
            ),
        }
    )
    right = Frame(
        {
            "k": np.array(
                draw(st.lists(small_keys, min_size=right_size,
                              max_size=right_size)),
                dtype=np.int64,
            ),
            "y": np.array(
                draw(st.lists(finite_floats, min_size=right_size,
                              max_size=right_size))
            ),
            "label": np.array(
                draw(st.lists(string_keys, min_size=right_size,
                              max_size=right_size)),
                dtype=str,
            ),
            "count": np.array(
                draw(st.lists(st.integers(0, 1000), min_size=right_size,
                              max_size=right_size)),
                dtype=np.int64,
            ),
        }
    )
    return left, right


class TestJoinDifferential:
    @given(frames=join_inputs(), how=st.sampled_from(["inner", "left"]))
    @settings(max_examples=120, deadline=None)
    def test_single_key_bitwise(self, frames, how):
        left, right = frames
        vectorized, naive = both_modes(
            lambda: join(left, right, on="k", how=how)
        )
        assert_frames_bitwise(vectorized, naive)

    @given(frames=join_inputs(), how=st.sampled_from(["inner", "left"]))
    @settings(max_examples=60, deadline=None)
    def test_multi_key_bitwise(self, frames, how):
        left, right = frames
        # Second key: reuse the float column bucketed to ints so both
        # sides share a small domain with duplicates.
        left = left.with_column(
            "k2", (np.abs(left["x"]) % 3).astype(np.int64)
        )
        right = right.with_column(
            "k2", (np.abs(right["y"]) % 3).astype(np.int64)
        )
        vectorized, naive = both_modes(
            lambda: join(left, right, on=["k", "k2"], how=how)
        )
        assert_frames_bitwise(vectorized, naive)

    @given(frames=join_inputs())
    @settings(max_examples=60, deadline=None)
    def test_suffix_collision_bitwise(self, frames):
        left, right = frames
        left = left.with_column("label", np.full(len(left), "keep"))
        vectorized, naive = both_modes(
            lambda: join(left, right, on="k", how="left")
        )
        assert_frames_bitwise(vectorized, naive)
        if len(vectorized):
            assert "label_right" in vectorized


# ----------------------------------------------------------------------
# Weekly reductions
# ----------------------------------------------------------------------
@st.composite
def weekly_observations(draw, max_size=80):
    size = draw(st.integers(min_value=1, max_value=max_size))
    weeks = np.array(
        draw(st.lists(st.integers(9, 14), min_size=size, max_size=size)),
        dtype=np.int64,
    )
    values = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
                min_size=size,
                max_size=size,
            )
        )
    )
    return values, weeks


class TestWeeklyDifferential:
    @given(data=weekly_observations())
    @settings(max_examples=100, deadline=None)
    def test_weekly_mean_close(self, data):
        values, weeks = data
        (v_weeks, v_means), (n_weeks, n_means) = both_modes(
            lambda: weekly_mean(values, weeks)
        )
        assert np.array_equal(v_weeks, n_weeks)
        # Summation order differs (reduceat vs pairwise mean), so the
        # comparison is allclose, not bitwise.
        np.testing.assert_allclose(v_means, n_means, rtol=1e-12)

    @given(data=weekly_observations())
    @settings(max_examples=50, deadline=None)
    def test_weekly_mean_stack_matches_rows(self, data):
        values, weeks = data
        stacked = np.stack([values, values * 2.0, values - 1.0])
        s_weeks, s_means = weekly_mean_stack(stacked, weeks)
        for row in range(stacked.shape[0]):
            r_weeks, r_means = weekly_mean(stacked[row], weeks)
            assert np.array_equal(s_weeks, r_weeks)
            assert np.array_equal(s_means[row], r_means)

    @given(data=weekly_observations())
    @settings(max_examples=60, deadline=None)
    def test_grouped_weekly_delta_bitwise(self, data):
        values, weeks = data
        rng = np.random.default_rng(values.size)
        labels = np.array(["A", "B", "C"])[rng.integers(0, 3, values.size)]
        # Guarantee every label has a baseline-week observation so the
        # naive and vectorized paths both succeed.
        for label in "ABC":
            hit = np.flatnonzero(labels == label)
            if hit.size:
                weeks[hit[0]] = 9

        def run():
            return _grouped_weekly_delta(
                values, weeks, labels, None, baseline_week=9,
                percentile=50.0,
            )

        vectorized, naive = both_modes(run)
        assert len(vectorized) == len(naive)
        for (v_name, v_weeks, v_delta), (n_name, n_weeks, n_delta) in zip(
            vectorized, naive
        ):
            assert v_name == n_name
            assert np.array_equal(v_weeks, n_weeks)
            assert np.array_equal(v_delta, n_delta)
