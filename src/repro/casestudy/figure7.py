"""Reproduction of Figure 7 — availability increase of distributed configurations.

Figure 7 of the paper plots, for each of the five city pairs, the *increase in
number of nines* of every (α, disaster-mean-time) combination relative to that
pair's baseline configuration (α = 0.35, disaster mean time = 100 years).
``reproduce_figure7`` regenerates the full 45-point sweep (or any subset)
using the shared-state-space runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.casestudy.runner import DistributedSweepRunner
from repro.core.parameters import ALPHA_VALUES, DISASTER_MEAN_TIME_YEARS
from repro.core.scenarios import (
    BASELINE_ALPHA,
    BASELINE_DISASTER_YEARS,
    CITY_PAIRS,
    DistributedScenario,
)


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
    runner: Optional[DistributedSweepRunner] = None,
    city_pairs=CITY_PAIRS,
    alphas: Sequence[float] = ALPHA_VALUES,
    disaster_years: Sequence[float] = DISASTER_MEAN_TIME_YEARS,
    max_workers: Optional[int] = None,
    backend: str = "auto",
) -> list[Figure7Point]:
    """Evaluate the Figure 7 sweep and report improvements over each baseline.

    The baseline of a city pair (α = 0.35, 100-year disasters) is always
    evaluated, even if excluded from ``alphas`` / ``disaster_years``, because
    the figure reports improvements relative to it.

    The whole grid is submitted to the sweep runner as **one batch**, so the
    shared state space is generated once and every point is a re-rate +
    re-fill + warm-started re-solve; ``max_workers`` additionally fans the
    batch out over the engine's workers (``backend`` selects the zero-copy
    multiprocess scheduler or the serial path).
    """
    runner = runner or DistributedSweepRunner()
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
            )

    evaluations = dict(
        zip(
            grid,
            runner.evaluate_many(
                grid.values(), max_workers=max_workers, backend=backend
            ),
        )
    )

    points: list[Figure7Point] = []
    for first, second in city_pairs:
        pair_label = f"{first.name} - {second.name}"
        baseline = evaluations[(pair_label, BASELINE_ALPHA, BASELINE_DISASTER_YEARS)]
        for (label, alpha, years), evaluation in sorted(evaluations.items()):
            if label != pair_label:
                continue
            points.append(
                Figure7Point(
                    city_pair=pair_label,
                    alpha=alpha,
                    disaster_mean_time_years=years,
                    availability=evaluation.availability.availability,
                    nines=evaluation.nines,
                    improvement_over_baseline=evaluation.nines - baseline.nines,
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
