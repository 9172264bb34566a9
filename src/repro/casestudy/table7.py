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

from repro.casestudy.grid import scenario_case
from repro.casestudy.runner import DistributedSweepRunner
from repro.core.parameters import CaseStudyParameters, DEFAULT_PARAMETERS
from repro.core.scenarios import (
    baseline_distributed_scenarios,
    single_datacenter_baselines,
)
from repro.engine import TRGCache
from repro.engine.grid import GridCase, GridOutcome, ScenarioGridOrchestrator
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


def _orchestrator(
    use_cache: bool,
    cache_dir: Optional[str],
    max_workers: Optional[int],
    backend: str,
    max_states: Optional[int] = None,
) -> ScenarioGridOrchestrator:
    kwargs = {} if max_states is None else {"max_states": max_states}
    return ScenarioGridOrchestrator(
        cache=TRGCache(cache_dir) if use_cache else None,
        jobs=max_workers,
        backend=backend,
        # An explicit worker budget bounds the generation fan-out too.
        generation_workers=max_workers,
        **kwargs,
    )


def _rows_from_outcome(
    outcome: GridOutcome, labels: list[str], names: list[str]
) -> list[Table7Row]:
    rows = []
    for label, name in zip(labels, names):
        result = outcome.result(name)
        value = min(1.0, max(0.0, result.value("availability")))
        rows.append(
            Table7Row(
                label=label,
                measured=AvailabilityResult(value, label=label),
                paper_availability=PAPER_TABLE_VII.get(label),
            )
        )
    return rows


def _single_site_cases(
    parameters: CaseStudyParameters,
) -> tuple[list[str], list[GridCase]]:
    labels, cases = [], []
    for scenario in single_datacenter_baselines():
        if parameters is not DEFAULT_PARAMETERS:
            scenario = replace(scenario, parameters=parameters)
        labels.append(scenario.label)
        cases.append(scenario_case(scenario))
    return labels, cases


def _distributed_cases(
    runner: DistributedSweepRunner,
) -> tuple[list[str], list[GridCase]]:
    labels, cases = [], []
    for scenario in baseline_distributed_scenarios():
        # Pin the runner's machine count on the scenario so the evaluated
        # structure provably matches the runner configuration.
        scenario = replace(
            scenario, machines_per_datacenter=runner.machines_per_datacenter
        )
        labels.append(
            f"Baseline architecture: {scenario.first.name} - {scenario.second.name}"
        )
        cases.append(
            scenario_case(
                scenario,
                parameters=runner.parameters,
                symmetry_reduction=runner.symmetry_reduction,
            )
        )
    return labels, cases


def single_site_rows(
    parameters: CaseStudyParameters = DEFAULT_PARAMETERS,
    use_cache: bool = True,
    max_workers: Optional[int] = None,
    backend: str = "auto",
) -> list[Table7Row]:
    """The three non-distributed rows of Table VII.

    Evaluated through the grid orchestrator: each machine count is its own
    structure group, so graphs are cached persistently (repeat runs skip
    generation) and solved on the engine's warm path instead of the cold
    per-model ``availability()`` one.
    """
    labels, cases = _single_site_cases(parameters)
    outcome = _orchestrator(use_cache, None, max_workers, backend).run(cases)
    return _rows_from_outcome(outcome, labels, [case.name for case in cases])


def distributed_rows(
    runner: Optional[DistributedSweepRunner] = None,
    max_workers: Optional[int] = None,
    backend: str = "auto",
) -> list[Table7Row]:
    """The five distributed baseline rows of Table VII (α = 0.35, 100-year disasters).

    All five rows share one structure group of the orchestrator (one
    generation or cache hit, five warm-started re-solves;
    ``max_workers``/``backend`` fan the batch out over engine workers).
    """
    runner = runner or DistributedSweepRunner()
    labels, cases = _distributed_cases(runner)
    outcome = _orchestrator(
        runner.use_cache,
        runner.cache_dir,
        max_workers,
        backend,
        max_states=runner.max_states,
    ).run(cases)
    return _rows_from_outcome(outcome, labels, [case.name for case in cases])


def reproduce_table7(
    runner: Optional[DistributedSweepRunner] = None,
    include_distributed: bool = True,
    max_workers: Optional[int] = None,
    backend: str = "auto",
) -> list[Table7Row]:
    """Every row of Table VII (optionally skipping the expensive distributed rows).

    Single-site and distributed rows run as **one** orchestrated grid: four
    structure groups generated concurrently (or loaded from the cache),
    each solved as one batch, merged back in table order.
    """
    runner = runner or DistributedSweepRunner()
    labels, cases = _single_site_cases(DEFAULT_PARAMETERS)
    if include_distributed:
        distributed_labels, distributed_cases = _distributed_cases(runner)
        labels.extend(distributed_labels)
        cases.extend(distributed_cases)
    outcome = _orchestrator(
        runner.use_cache,
        runner.cache_dir,
        max_workers,
        backend,
        max_states=runner.max_states,
    ).run(cases)
    return _rows_from_outcome(outcome, labels, [case.name for case in cases])
