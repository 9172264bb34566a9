"""Reproduction of Table VII — availability of the baseline architectures.

Table VII of the paper lists the steady-state availability (and number of
nines) of three non-distributed architectures and of the five two-data-center
baseline architectures (α = 0.35, disaster mean time = 100 years).  The
functions here regenerate every row with our models; the published values are
kept alongside so EXPERIMENTS.md and the benchmark can report paper-vs-
measured deltas.

All rows — single-site *and* distributed — run through the scenario-grid
orchestrator (:mod:`repro.engine.grid`): scenarios are grouped by net
structure (the five distributed baselines share one group; each machine-count
baseline is its own), graphs come from the persistent
:class:`~repro.engine.cache.TRGCache` when present (so repeat ``repro
table7`` runs skip every state-space generation) and each group solves as
one warm-started batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.casestudy.grid import clamped_availability, complete_rows, scenario_cases
from repro.core.parameters import CaseStudyParameters, DEFAULT_PARAMETERS
from repro.core.scenarios import (
    baseline_distributed_scenarios,
    single_datacenter_baselines,
)
from repro.engine import TRGCache
from repro.engine.grid import GridCase, ScenarioGridOrchestrator
from repro.metrics import AvailabilityResult

#: The availability values published in Table VII, keyed by row label.
PAPER_TABLE_VII: dict[str, float] = {
    "Cloud system with one machine": 0.9842914,
    "Cloud system with two machines in one data center": 0.9899101,
    "Cloud system with four machines in one data center": 0.9900631,
    "Baseline architecture: Rio de Janeiro - Brasilia": 0.9997317,
    "Baseline architecture: Rio de Janeiro - Recife": 0.9995968,
    "Baseline architecture: Rio de Janeiro - New York": 0.9987753,
    "Baseline architecture: Rio de Janeiro - Calcutta": 0.9977486,
    "Baseline architecture: Rio de Janeiro - Tokyo": 0.9972643,
}


@dataclass(frozen=True)
class Table7Row:
    """One row of the reproduced Table VII."""

    label: str
    measured: AvailabilityResult
    paper_availability: Optional[float]

    @property
    def paper_nines(self) -> Optional[float]:
        if self.paper_availability is None:
            return None
        from repro.metrics import number_of_nines

        return number_of_nines(self.paper_availability)

    @property
    def nines_difference(self) -> Optional[float]:
        """Measured minus published number of nines (None when not published)."""
        if self.paper_nines is None:
            return None
        return self.measured.nines - self.paper_nines


def _run(
    labels: list[str],
    cases: list[GridCase],
    use_cache: bool,
    cache_dir: Optional[str],
    max_workers: Optional[int],
) -> list[Table7Row]:
    """Evaluate ``cases`` as one orchestrated grid, one row per label."""
    outcome = ScenarioGridOrchestrator(
        cache=TRGCache(cache_dir) if use_cache else None,
        jobs=max_workers,
        # An explicit worker budget bounds the generation fan-out too.
        generation_workers=max_workers,
    ).run(cases)
    return [
        Table7Row(
            label=label,
            measured=AvailabilityResult(clamped_availability(row), label=label),
            paper_availability=PAPER_TABLE_VII.get(label),
        )
        for label, row in zip(labels, complete_rows(outcome))
    ]


def _single_site_cases(
    parameters: CaseStudyParameters,
) -> tuple[list[str], list[GridCase]]:
    scenarios = single_datacenter_baselines()
    return [scenario.label for scenario in scenarios], scenario_cases(
        scenarios, parameters
    )


def _distributed_cases(
    parameters: Optional[CaseStudyParameters], machines_per_datacenter: int
) -> tuple[list[str], list[GridCase]]:
    """The five baselines: one structure, so one net and five rate vectors."""
    scenarios = [
        replace(scenario, machines_per_datacenter=machines_per_datacenter)
        for scenario in baseline_distributed_scenarios()
    ]
    labels = [
        f"Baseline architecture: {scenario.first.name} - {scenario.second.name}"
        for scenario in scenarios
    ]
    return labels, scenario_cases(scenarios, parameters)


def single_site_rows(
    parameters: CaseStudyParameters = DEFAULT_PARAMETERS,
    use_cache: bool = True,
    max_workers: Optional[int] = None,
) -> list[Table7Row]:
    """The three non-distributed rows of Table VII.

    Evaluated through the grid orchestrator: each machine count is its own
    structure group, so graphs are cached persistently (repeat runs skip
    generation) and solved on the engine's warm path instead of the cold
    per-model ``availability()`` one.
    """
    labels, cases = _single_site_cases(parameters)
    return _run(labels, cases, use_cache, None, max_workers)


def distributed_rows(
    *,
    parameters: Optional[CaseStudyParameters] = None,
    machines_per_datacenter: int = 2,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> list[Table7Row]:
    """The five distributed baseline rows of Table VII (α = 0.35, 100-year disasters).

    ``parameters`` (default: the paper's) and ``machines_per_datacenter``
    fix the deployment.  All five rows share one structure group of the
    orchestrator (one generation or cache hit, five warm-started
    re-solves; ``max_workers`` bounds the engine workers the batch fans
    out over).
    """
    labels, cases = _distributed_cases(parameters, machines_per_datacenter)
    return _run(labels, cases, use_cache, cache_dir, max_workers)


def reproduce_table7(
    *,
    parameters: Optional[CaseStudyParameters] = None,
    machines_per_datacenter: int = 2,
    include_distributed: bool = True,
    max_workers: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> list[Table7Row]:
    """Every row of Table VII (optionally skipping the expensive distributed rows).

    ``parameters`` and ``machines_per_datacenter`` configure the distributed
    rows; the single-site rows are the paper's baselines under the default
    parameters.  All rows run as **one** orchestrated grid: four structure
    groups generated concurrently (or loaded from the cache), each solved as
    one batch, merged back in table order.
    """
    labels, cases = _single_site_cases(DEFAULT_PARAMETERS)
    if include_distributed:
        distributed_labels, distributed_cases = _distributed_cases(
            parameters, machines_per_datacenter
        )
        labels.extend(distributed_labels)
        cases.extend(distributed_cases)
    return _run(labels, cases, use_cache, cache_dir, max_workers)
