"""Reproduction of Figure 7 — availability increase of distributed configurations.

Figure 7 of the paper plots, for each of the five city pairs, the *increase in
number of nines* of every (α, disaster-mean-time) combination relative to that
pair's baseline configuration (α = 0.35, disaster mean time = 100 years).
``reproduce_figure7`` evaluates the full 45-point sweep (or any subset) as one
orchestrated grid (:func:`repro.casestudy.grid.evaluate_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.casestudy.grid import clamped_availability, complete_rows, evaluate_grid
from repro.core.parameters import (
    ALPHA_VALUES,
    DISASTER_MEAN_TIME_YEARS,
    CaseStudyParameters,
)
from repro.core.scenarios import (
    BASELINE_ALPHA,
    BASELINE_DISASTER_YEARS,
    CITY_PAIRS,
    DistributedScenario,
)
from repro.metrics import number_of_nines


@dataclass(frozen=True)
class Figure7Point:
    """One bar of Figure 7."""

    city_pair: str
    alpha: float
    disaster_mean_time_years: float
    availability: float
    nines: float
    improvement_over_baseline: float

    @property
    def is_baseline(self) -> bool:
        return (
            self.alpha == BASELINE_ALPHA
            and self.disaster_mean_time_years == BASELINE_DISASTER_YEARS
        )


def figure7_grid(
    city_pairs=CITY_PAIRS,
    alphas: Sequence[float] = ALPHA_VALUES,
    disaster_years: Sequence[float] = DISASTER_MEAN_TIME_YEARS,
) -> list[DistributedScenario]:
    """The scenario grid of Figure 7 (optionally restricted)."""
    scenarios = []
    for first, second in city_pairs:
        for alpha in alphas:
            for years in disaster_years:
                scenarios.append(
                    DistributedScenario(
                        first=first,
                        second=second,
                        alpha=alpha,
                        disaster_mean_time_years=years,
                    )
                )
    return scenarios


def reproduce_figure7(
    city_pairs=CITY_PAIRS,
    alphas: Sequence[float] = ALPHA_VALUES,
    disaster_years: Sequence[float] = DISASTER_MEAN_TIME_YEARS,
    *,
    parameters: Optional[CaseStudyParameters] = None,
    machines_per_datacenter: int = 2,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> list[Figure7Point]:
    """Evaluate the Figure 7 sweep and report improvements over each baseline.

    The baseline of a city pair (α = 0.35, 100-year disasters) is always
    evaluated, even if excluded from ``alphas`` / ``disaster_years``, because
    the figure reports improvements relative to it.

    ``parameters`` (default: the paper's) and ``machines_per_datacenter``
    fix the deployment; every point is a rate-only variant of it.  The
    whole grid runs through :func:`~repro.casestudy.grid.evaluate_grid` as
    one structure group: one cache hit or generation, then warm-started
    re-solves, fanned out over up to ``max_workers`` engine workers.  The
    graph is cached under the same key as any other entry point that
    evaluates this structure.
    """
    grid: dict[tuple[str, float, float], DistributedScenario] = {}
    for first, second in city_pairs:
        pair_label = f"{first.name} - {second.name}"
        keys = {(BASELINE_ALPHA, BASELINE_DISASTER_YEARS)}
        keys.update((alpha, years) for alpha in alphas for years in disaster_years)
        for alpha, years in sorted(keys):
            grid[(pair_label, alpha, years)] = DistributedScenario(
                first=first,
                second=second,
                alpha=alpha,
                disaster_mean_time_years=years,
                machines_per_datacenter=machines_per_datacenter,
            )

    outcome = evaluate_grid(
        list(grid.values()),
        parameters,
        jobs=max_workers,
        use_cache=use_cache,
        cache_dir=cache_dir,
        generation_workers=max_workers,
    )
    availabilities = {
        key: clamped_availability(row)
        for key, row in zip(grid, complete_rows(outcome))
    }

    points: list[Figure7Point] = []
    for first, second in city_pairs:
        pair_label = f"{first.name} - {second.name}"
        baseline = number_of_nines(
            availabilities[(pair_label, BASELINE_ALPHA, BASELINE_DISASTER_YEARS)]
        )
        for (label, alpha, years), availability in sorted(availabilities.items()):
            if label != pair_label:
                continue
            nines = number_of_nines(availability)
            points.append(
                Figure7Point(
                    city_pair=pair_label,
                    alpha=alpha,
                    disaster_mean_time_years=years,
                    availability=availability,
                    nines=nines,
                    improvement_over_baseline=nines - baseline,
                )
            )
    return points


def best_configuration(points: Iterable[Figure7Point]) -> Figure7Point:
    """The configuration with the highest availability (the paper's headline:
    Rio de Janeiro - Brasília with α = 0.45 and 300-year disasters)."""
    points = list(points)
    if not points:
        raise ValueError("no Figure 7 points were provided")
    return max(points, key=lambda point: point.availability)
