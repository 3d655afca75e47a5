"""The simulation-side kernel/naive dispatch gate.

Event generation — behaviour day-states, dwell assembly, dwell→segment
flattening, signalling emission — runs on whole-population array
programs by default.  The historical per-agent /
per-event Python loops are kept, verbatim in structure, as the
*differential oracle* behind the ``REPRO_SIM_NAIVE=1`` environment
switch — the exact pattern of ``REPRO_FRAMES_NAIVE`` for the frames
kernels.

Both paths consume identical RNG streams (every random vector is drawn
population-wide, in the same order, in both modes) and order their
floating-point operations identically, so outputs are **bitwise
identical** — the property ``tests/simulation/test_sim_differential.py``
enforces under hypothesis, and what lets the golden fingerprints and
the resume-equivalence guarantees hold regardless of the switch.

The switch is read *at call time* so tests can flip it per case with
``monkeypatch.setenv``; any value other than the empty string or ``"0"``
enables the naive path.  With telemetry enabled, every dispatch site
counts which path actually served it (``sim.<site>.naive`` /
``sim.<site>.vectorized``), mirroring the ``frames.*`` dispatch
counters.
"""

from __future__ import annotations

import os

from repro import telemetry

__all__ = ["use_naive", "dispatch_naive"]


def use_naive() -> bool:
    """True when ``REPRO_SIM_NAIVE=1`` selects the per-agent loops."""
    return os.environ.get("REPRO_SIM_NAIVE", "") not in ("", "0")


def dispatch_naive(site: str) -> bool:
    """Resolve the path for one dispatch site, counting the choice.

    Returns ``True`` when the naive per-agent/per-event loop should
    serve this call.  With telemetry enabled the decision lands in the
    ``sim.<site>.naive`` / ``sim.<site>.vectorized`` counters; disabled,
    the accounting costs one ``None`` check.
    """
    naive = use_naive()
    telemetry.count(f"sim.{site}.{'naive' if naive else 'vectorized'}")
    return naive
