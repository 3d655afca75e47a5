"""Shared helpers for engine-equivalence and regression testing.

The parallel engine's determinism contract
(:mod:`repro.simulation.sharding`) distinguishes two equality grades:

- **bitwise** — per-user arrays (dwell matrices) and anything derived
  from them row-wise are identical for every shard layout, and *all*
  outputs are identical between repeated runs of the same layout;
- **allclose** — per-cell aggregates are summed shard by shard, so
  different shard counts agree only up to floating-point association.

:func:`assert_feeds_equivalent` encodes that contract once so every
equivalence test asserts exactly the documented guarantee, and
:func:`feeds_fingerprint` produces the stable per-array digests the
golden regression test pins.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.simulation.engine import Simulator

__all__ = [
    "run_config",
    "assert_feeds_equivalent",
    "feeds_fingerprint",
]

# Tolerance of the "allclose" grade: shard merges reorder sums over at
# most a few thousand doubles, so agreement far beyond measurement
# relevance is required — disagreement at 1e-9 relative means a real
# divergence, not floating-point association.
RTOL = 1e-9
ATOL = 1e-12

_KPI_KEY_COLUMNS = ("cell_id", "day")


def run_config(config):
    """Run the simulator for ``config`` and return the feeds."""
    return Simulator(config).run()


def _assert_array(name: str, expected, actual, bitwise: bool) -> None:
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    assert expected.shape == actual.shape, (
        f"{name}: shape {actual.shape} != {expected.shape}"
    )
    if bitwise or not np.issubdtype(expected.dtype, np.floating):
        assert np.array_equal(expected, actual), f"{name}: not bitwise equal"
    else:
        assert np.allclose(expected, actual, rtol=RTOL, atol=ATOL), (
            f"{name}: beyond allclose tolerance "
            f"(max abs diff "
            f"{np.max(np.abs(expected - actual), initial=0.0)})"
        )


def _assert_frame(
    name: str, expected, actual, bitwise: bool, key_columns=()
) -> None:
    assert expected.column_names == actual.column_names, (
        f"{name}: column sets differ"
    )
    for column in expected.column_names:
        column_bitwise = bitwise or column in key_columns
        _assert_array(
            f"{name}.{column}",
            expected[column],
            actual[column],
            column_bitwise,
        )


def assert_feeds_equivalent(expected, actual, bitwise: bool = False) -> None:
    """Assert two feed bundles agree per the determinism contract.

    ``bitwise=False`` (the default) asserts the cross-shard-layout
    contract: per-user mobility arrays and signalling bitwise, cell
    aggregates allclose.  ``bitwise=True`` asserts byte-for-byte
    equality of everything — the guarantee for repeated runs of the
    *same* layout.
    """
    # -- identity / structure ---------------------------------------------
    assert expected.calendar.num_days == actual.calendar.num_days
    assert expected.num_users == actual.num_users
    assert (
        expected.interconnect_upgrade_day == actual.interconnect_upgrade_day
    )

    # -- per-user mobility: always bitwise --------------------------------
    mobility_expected, mobility_actual = expected.mobility, actual.mobility
    _assert_array(
        "mobility.user_ids",
        mobility_expected.user_ids,
        mobility_actual.user_ids,
        bitwise=True,
    )
    _assert_array(
        "mobility.anchor_sites",
        mobility_expected.anchor_sites,
        mobility_actual.anchor_sites,
        bitwise=True,
    )
    assert mobility_expected.num_days == mobility_actual.num_days
    for day in range(mobility_expected.num_days):
        _assert_array(
            f"mobility.daily_dwell[{day}]",
            mobility_expected.daily_dwell[day],
            mobility_actual.daily_dwell[day],
            bitwise=True,
        )
        _assert_array(
            f"mobility.night_dwell[{day}]",
            mobility_expected.night_dwell[day],
            mobility_actual.night_dwell[day],
            bitwise=True,
        )

    # -- cell aggregates: allclose across layouts -------------------------
    _assert_frame(
        "radio_kpis",
        expected.radio_kpis,
        actual.radio_kpis,
        bitwise,
        key_columns=_KPI_KEY_COLUMNS,
    )
    _assert_frame("rat_time", expected.rat_time, actual.rat_time, bitwise)

    # -- signalling: derived row-wise from bitwise dwell ⇒ bitwise --------
    if expected.signaling is not None:
        assert actual.signaling is not None
        assert expected.signaling.keys() == actual.signaling.keys()
        for day, frame in expected.signaling.items():
            _assert_frame(
                f"signaling[{day}]",
                frame,
                actual.signaling[day],
                bitwise=True,
            )


# -- fingerprints -----------------------------------------------------------

def _digest(array: np.ndarray, decimals: int) -> str:
    array = np.asarray(array)
    if np.issubdtype(array.dtype, np.floating):
        array = np.round(array.astype(np.float64), decimals)
        # Normalize -0.0 so the digest is sign-of-zero stable.
        array = array + 0.0
    elif array.dtype.kind in ("U", "S", "O"):
        array = np.asarray(array, dtype="U")
        payload = "\x1f".join(array.tolist()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()
    else:
        array = array.astype(np.int64)
    payload = repr(array.shape).encode() + np.ascontiguousarray(
        array
    ).tobytes()
    return hashlib.sha256(payload).hexdigest()


def feeds_fingerprint(feeds, decimals: int = 6) -> dict[str, str]:
    """Per-array SHA256 digests of a feed bundle's measured outputs.

    Values are rounded to ``decimals`` before hashing so the digest pins
    the numerics to far beyond analysis relevance while tolerating
    last-ulp library drift.  Used by the golden regression test.
    """
    fingerprint: dict[str, str] = {}
    for column in feeds.radio_kpis.column_names:
        fingerprint[f"radio_kpis.{column}"] = _digest(
            feeds.radio_kpis[column], decimals
        )
    for column in feeds.rat_time.column_names:
        fingerprint[f"rat_time.{column}"] = _digest(
            feeds.rat_time[column], decimals
        )
    fingerprint["mobility.daily_dwell"] = _digest(
        np.stack(feeds.mobility.daily_dwell), decimals
    )
    fingerprint["mobility.night_dwell"] = _digest(
        np.stack(feeds.mobility.night_dwell), decimals
    )
    fingerprint["interconnect_upgrade_day"] = _digest(
        np.array(
            [
                -1
                if feeds.interconnect_upgrade_day is None
                else feeds.interconnect_upgrade_day
            ]
        ),
        decimals,
    )
    if feeds.signaling is not None:
        # One combined digest over every day's event frame — per-day
        # keys would balloon the pinned dictionary.
        combined = hashlib.sha256()
        for day in sorted(feeds.signaling):
            frame = feeds.signaling[day]
            combined.update(str(day).encode())
            for column in frame.column_names:
                combined.update(column.encode())
                combined.update(_digest(frame[column], decimals).encode())
        fingerprint["signaling"] = combined.hexdigest()
    return fingerprint
