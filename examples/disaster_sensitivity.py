"""Disaster and parameter sensitivity of a disaster-tolerant deployment.

Answers two questions a designer would ask before signing an SLA:

1. How sensitive is the availability to the assumed disaster mean time and to
   the quality of the wide-area network (α)?  (the two knobs of Figure 7)
2. Which Table VI component parameter is worth improving (or measuring more
   carefully)?  (one-at-a-time sensitivity, experiment E3)

Run with::

    python examples/disaster_sensitivity.py
"""

from repro.casestudy import SensitivityAnalysis, evaluate_grid, render_sensitivity
from repro.casestudy.grid import clamped_availability
from repro.core import CaseStudyParameters, DistributedScenario
from repro.metrics import AvailabilityResult
from repro.network import RIO_DE_JANEIRO, TOKYO


def main() -> None:
    # The nine points share one structure: one state space, nine re-ratings.
    scenarios = [
        DistributedScenario(
            RIO_DE_JANEIRO,
            TOKYO,
            alpha=alpha,
            disaster_mean_time_years=years,
            machines_per_datacenter=1,
        )
        for alpha in (0.35, 0.40, 0.45)
        for years in (100.0, 200.0, 300.0)
    ]
    outcome = evaluate_grid(scenarios, CaseStudyParameters(required_running_vms=1))

    print("=== Disaster mean time and network speed (Rio de Janeiro - Tokyo) ===")
    print(f"{'alpha':>6} {'disaster (y)':>13} {'availability':>13} {'nines':>7} {'downtime h/y':>13}")
    for scenario, row in zip(scenarios, outcome.results):
        result = AvailabilityResult(clamped_availability(row))
        print(
            f"{scenario.alpha:>6.2f} {scenario.disaster_mean_time_years:>13.0f} "
            f"{result.availability:>13.7f} {result.nines:>7.2f} "
            f"{result.downtime_hours_per_year:>13.1f}"
        )

    print()
    print("=== One-at-a-time sensitivity of the Table VI parameters (MTTF x2) ===")
    analysis = SensitivityAnalysis(factor=2.0)
    entries = analysis.run()
    print(render_sensitivity(entries))
    print()
    most_influential = entries[0]
    print(
        f"Most influential component: {most_influential.component} "
        f"(doubling its MTTF changes availability by "
        f"{most_influential.availability_delta:+.2e})"
    )


if __name__ == "__main__":
    main()
