"""repro — a full reproduction of Lutu et al., IMC 2020.

"A Characterization of the COVID-19 Pandemic Impact on a Mobile Network
Operator Traffic" measured, on O2 UK's production network, how the 2020
lockdown changed people's mobility and the radio network's behaviour.
This package rebuilds the entire stack — a synthetic UK, a cellular
network, a subscriber base, an agent population living through the
pandemic timeline — and runs the paper's genuine analysis pipeline on
top of it.  Its one runtime dependency is numpy.

Packages
--------
``repro.frames``
    Columnar dataframe core (numpy-backed; no pandas dependency).
``repro.geo``
    Synthetic UK geography: counties, LADs, postcode districts, 2011
    OAC geodemographic clusters, census populations.
``repro.network``
    Cellular substrate: radio topology, TAC device catalog, subscriber
    base, signalling, LTE scheduler, inter-MNO voice interconnect.
``repro.mobility``
    Pandemic timeline, agents and anchor places, behaviour model, daily
    dwell matrices, epidemic case curve.
``repro.traffic``
    Application mix, WiFi offload, data demand and VoLTE voice models.
``repro.simulation``
    Study calendar, configuration, the engine producing the data feeds.
``repro.core``
    The paper's analysis: mobility metrics, home detection, every
    figure, plus a few extensions (growth framings, predictability
    bounds, paper-target verdicts).
``repro.datasets`` / ``repro.io`` / ``repro.cli``
    The declarative scenario catalog and canned builders (incl.
    counterfactuals), run persistence and the ``python -m repro``
    command line.
``repro.experiments``
    Scenario-grid runner and cross-scenario comparative reports (see
    ``docs/SCENARIOS.md``).

Quickstart
----------
>>> from repro import api, SimulationConfig  # doctest: +SKIP
>>> run = api.simulate(SimulationConfig.small(), "runs/s")  # doctest: +SKIP
>>> run.study().summary()["voice_volume_peak_pct"]  # doctest: +SKIP
143.5
>>> run = api.Run.open("runs/s", lazy=True)  # doctest: +SKIP

The :mod:`repro.api` facade (:class:`~repro.api.Run`) unifies the whole
lifecycle — simulate, open, advance (live day-at-a-time runs), resume,
analyze — over the lower layers, which remain importable individually.
"""

from repro.simulation.config import SimulationConfig

__version__ = "1.0.0"

__all__ = [
    "CovidImpactStudy",
    "Run",
    "SimulationConfig",
    "Simulator",
    "api",
    "experiments",
    "__version__",
]


def __getattr__(name: str):
    # Lazy: these pull in the full stack.
    if name == "CovidImpactStudy":
        from repro.core.study import CovidImpactStudy

        return CovidImpactStudy
    if name == "Simulator":
        from repro.simulation.engine import Simulator

        return Simulator
    if name == "Run":
        from repro.api import Run

        return Run
    if name == "api":
        import repro.api

        return repro.api
    if name == "experiments":
        import repro.experiments

        return repro.experiments
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
