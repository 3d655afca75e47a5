"""Engine benchmarks: world construction and full simulation runs.

Not a paper figure — tracks the cost of the substrate itself so that
regressions in the simulator show up alongside the analysis numbers.
"""

from repro.simulation import engine
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulator, build_world


def test_build_world(benchmark):
    # The uncached builder: build_world hands back the world it last
    # built, so after the first round it would time a memo hit.
    config = SimulationConfig.tiny(seed=2020)
    world = benchmark(engine._build_world, config)
    assert world.agents.num_users > 1000


def test_full_tiny_run(benchmark):
    config = SimulationConfig.tiny(seed=2020)

    def run():
        return Simulator(config).run()

    feeds = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(feeds.radio_kpis) > 0


def test_single_day_dwell(benchmark):
    world = build_world(SimulationConfig.small(seed=2020))
    dwell = benchmark(world.trajectories.day_dwell, 50)
    assert dwell.dwell_s.shape[0] == world.agents.num_users
