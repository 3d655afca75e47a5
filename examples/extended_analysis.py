"""Beyond the paper: the extended analysis toolkit.

Two analyses the library offers on top of the paper's figures:

1. **Growth framings** — the paper's "rewound one year of data growth"
   and "seven years of voice growth in days" quotes, measured.
2. **Predictability** — Song-et-al. predictability bounds: how much
   more predictable people became under confinement.

    python examples/extended_analysis.py
"""

import datetime as dt

import numpy as np

from repro.core import (
    CovidImpactStudy,
    contextualize_summary,
    mobility_entropy,
    predictability_bound,
    visited_towers,
)
from repro.simulation.config import SimulationConfig


def main() -> None:
    study = CovidImpactStudy.run(SimulationConfig.small(seed=2020))
    feeds = study.feeds
    calendar = feeds.calendar
    day_before = calendar.day_of(dt.date(2020, 2, 25))
    day_during = calendar.day_of(dt.date(2020, 3, 31))

    # ------------------------------------------------------------------
    print("1. Growth framings (§4.1 / §4.2)")
    print("-" * 40)
    context = contextualize_summary(study.summary())
    print(
        f"data traffic rewound by {context['data_years_rewound']:.1f} "
        "years (paper: 'to levels similar to those of March 2019')"
    )
    print(
        f"voice surge equals {context['voice_years_of_growth']:.1f} "
        "years of growth (paper: 'a predicted seven years of growth')"
    )

    # ------------------------------------------------------------------
    print("\n2. Location predictability (Song et al. bound)")
    print("-" * 60)
    mobility = feeds.mobility
    sites = mobility.anchor_sites
    sample = slice(0, 1500)
    for label, day in (("before", day_before), ("during", day_during)):
        dwell = mobility.dwell(day).astype(np.float64)
        entropy = mobility_entropy(dwell, sites)[sample]
        counts = visited_towers(dwell, sites)[sample].astype(float)
        bound = predictability_bound(entropy, counts)
        print(
            f"{label:<8} mean entropy={entropy.mean():.3f} nats   "
            f"mean predictability bound={bound.mean():.1%}"
        )
    print(
        "\nconfinement makes people's locations substantially more "
        "predictable — the flip side of the paper's entropy drop."
    )


if __name__ == "__main__":
    main()
