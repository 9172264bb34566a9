"""Distributed data-center study: regenerate Table VII and Figure 7.

This is the paper's full case study: three single-site baselines plus the
five Rio de Janeiro city pairs (Brasília, Recife, New York, Calcutta, Tokyo)
swept over the network-speed coefficient α ∈ {0.35, 0.40, 0.45} and the
disaster mean time ∈ {100, 200, 300} years.

Run with::

    python examples/distributed_datacenters.py             # reduced, minutes
    python examples/distributed_datacenters.py --full      # faithful, tens of minutes
    python examples/distributed_datacenters.py --pairs 2   # only the first N city pairs
"""

import argparse

from repro.casestudy import (
    best_configuration,
    deployment,
    render_figure7,
    render_table7,
    reproduce_figure7,
    reproduce_table7,
)
from repro.core.scenarios import CITY_PAIRS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the faithful two-PM-per-data-center configuration",
    )
    parser.add_argument(
        "--pairs", type=int, default=len(CITY_PAIRS), help="number of city pairs to evaluate"
    )
    arguments = parser.parse_args()

    configuration = deployment(arguments.full)
    pairs = CITY_PAIRS[: max(1, arguments.pairs)]

    print("=== Table VII: availability of the baseline architectures ===")
    table = reproduce_table7(**configuration)
    print(render_table7(table))
    print()

    print("=== Figure 7: availability increase of distributed configurations ===")
    points = reproduce_figure7(pairs, **configuration)
    print(render_figure7(points))
    best = best_configuration(points)
    print()
    print(
        f"Best configuration: {best.city_pair} with alpha={best.alpha:.2f} and "
        f"disaster mean time {best.disaster_mean_time_years:.0f} years "
        f"(A = {best.availability:.7f}, {best.nines:.2f} nines)"
    )
    print(
        "Paper's conclusion to compare against: Rio de Janeiro - Brasilia with "
        "alpha = 0.45 and disaster mean time = 300 years."
    )


if __name__ == "__main__":
    main()
