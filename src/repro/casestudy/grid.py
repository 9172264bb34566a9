"""Case-study adapter of the scenario-grid orchestrator.

Turns the paper's scenario vocabulary — city sets, α, disaster mean times,
machines per data center, the ``l`` migration threshold, backup on/off,
N-data-center topologies — into the generic grid cases of
:mod:`repro.engine.grid` and runs them as **one** workload: scenarios with
the same rate-independent net structure share one assembled net (each case
carries its own rates, computed from its model) and one tangible
reachability graph (one generation, warm-started batch re-solves), distinct
structures generate while earlier ones solve, and the persistent
:class:`~repro.engine.cache.TRGCache` makes repeat grids start from disk.

``CaseStudyGrid`` describes the axes (the cross product is pruned where an
axis cannot affect a scenario — a single site has no α, ``l`` or backup
server); :func:`evaluate_grid` is the one-call entry point used by
``repro grid`` and the benchmark.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.core.cloud_model import CloudSystemModel
from repro.core.parameters import CaseStudyParameters
from repro.core.scenarios import (
    BACKUP_LOCATION,
    BASELINE_ALPHA,
    BASELINE_DISASTER_YEARS,
    DistributedScenario,
    MultiDataCenterScenario,
    SingleDataCenterScenario,
)
from repro.engine import TRGCache
from repro.engine.faults import RetryPolicy
from repro.engine.grid import (
    GridCase,
    GridCaseResult,
    GridOutcome,
    ScenarioGridOrchestrator,
)
from repro.exceptions import AnalysisError, ModelError
from repro.network.geo import City
from repro.spn import StochasticPetriNet
from repro.spn.reachability import DEFAULT_MAX_TANGIBLE_MARKINGS
from repro.spn.rewards import ProbabilityMeasure
from repro.symmetry import SymmetrySpec, resolve_symmetry_reduction

#: Any scenario the case-study grid can evaluate.
CloudScenario = Union[
    SingleDataCenterScenario, DistributedScenario, MultiDataCenterScenario
]

def deployment(full: bool = False) -> dict:
    """Keyword arguments of the two-data-center entry points.

    ``full`` is the paper's deployment (two PMs per data center, k = 2);
    otherwise the reduced one (one PM per data center, k = 1) that the
    command line, the examples and the benchmarks run by default.
    """
    if full:
        return {"parameters": None, "machines_per_datacenter": 2}
    return {
        "parameters": CaseStudyParameters(required_running_vms=1),
        "machines_per_datacenter": 1,
    }


@dataclass(frozen=True)
class SharedStructure:
    """The net every model of one structure key shares, built by the first.

    ``rate_symmetry`` is the structure's structural symmetry spec
    (:meth:`~repro.core.cloud_model.CloudSystemModel.symmetry_spec` with
    ``structural=True``): it reads only which transitions exist, so every
    model of the structure shares it.
    """

    net: StochasticPetriNet
    timed_transitions: frozenset[str]
    rate_symmetry: Optional[SymmetrySpec]


#: Shared structures by :meth:`~repro.core.cloud_model.CloudSystemModel.
#: structure_key`; one memo serves one batch of cases.
StructureMemo = dict[tuple, SharedStructure]


def structure_and_rates(
    model: CloudSystemModel, structures: StructureMemo
) -> tuple[SharedStructure, dict[str, float]]:
    """``model``'s shared structure and its own timed rates.

    The structure comes from ``structures``; on a key not seen yet the model
    builds the net and ``structures`` keeps it.

    Raises:
        ModelError: if the rates name other timed transitions than the
            structure's net has, i.e. the key missed an input that shapes
            the net.
    """
    key = model.structure_key()
    rates = model.timed_rates()
    structure = structures.get(key)
    if structure is None:
        net = model.build()
        structure = structures[key] = SharedStructure(
            net=net,
            timed_transitions=frozenset(
                transition.name
                for transition in net.transitions
                if not transition.immediate
            ),
            rate_symmetry=model.symmetry_spec(structural=True, net=net, rates=rates),
        )
    if rates.keys() != structure.timed_transitions:
        raise ModelError(
            "the model's timed transitions differ from its structure's net "
            f"(only the model: {sorted(rates.keys() - structure.timed_transitions)}, "
            f"only the net: {sorted(structure.timed_transitions - rates.keys())}): "
            "its structure key misses an input that shapes the net"
        )
    return structure, rates


def scenario_case(
    scenario: CloudScenario,
    parameters: Optional[CaseStudyParameters] = None,
    symmetry_reduction: Optional[bool] = None,
    name: Optional[str] = None,
    structures: Optional[StructureMemo] = None,
) -> GridCase:
    """The engine-level grid case of one case-study scenario.

    The case's net is its structure's (see :func:`structure_and_rates`):
    from ``structures`` when it already holds the scenario's structure key,
    else built now (and kept there when ``structures`` is given).  Its
    ``rates`` are the scenario's **full** timed-rate assignment, computed
    from the parameters without a net, so the net's own rates may belong
    to another scenario.  The measure is the availability of the
    scenario's own structure.  With ``symmetry_reduction`` (``None``
    resolves to :data:`repro.symmetry.DEFAULT_SYMMETRY_REDUCTION` — on) it
    also carries

    * the model's :class:`~repro.symmetry.spec.SymmetrySpec` as
      :attr:`~repro.engine.grid.GridCase.symmetry` (PM exchange within each
      data center, plus whole-data-center exchange when the scenario's data
      centers are verified interchangeable), and
    * the *structural* symmetry spec as :attr:`~repro.engine.grid.GridCase.
      rate_symmetry`, so grid cases differing only by a permutation of
      exchangeable data-center parameter blocks dedupe to one solve.
    """
    symmetry_reduction = resolve_symmetry_reduction(symmetry_reduction)
    if isinstance(scenario, SingleDataCenterScenario):
        if parameters is not None:
            scenario = replace(scenario, parameters=parameters)
        model = scenario.build_model()
        metadata: dict[str, object] = {
            "type": "single",
            "cities": [scenario.location.name],
            "machines": scenario.machines,
            "disaster_years": (
                scenario.disaster_mean_time_years
                if scenario.disaster_mean_time_years is not None
                else model.parameters.disaster.mean_time_to_disaster.hours / 8760.0
            ),
        }
    else:
        model = scenario.build_model(parameters)
        if isinstance(scenario, MultiDataCenterScenario):
            cities = [city.name for city in scenario.locations]
            machines = scenario.machines_per_datacenter
            extra = {
                "topology": scenario.topology,
                "l": scenario.minimum_operational_pms,
                "backup": scenario.has_backup_server,
            }
        else:
            cities = [scenario.first.name, scenario.second.name]
            machines = (
                scenario.machines_per_datacenter
                if scenario.machines_per_datacenter is not None
                else 2
            )
            extra = {"backup": True}
        metadata = {
            "type": "distributed",
            "cities": cities,
            "machines": machines,
            "alpha": scenario.alpha,
            "disaster_years": scenario.disaster_mean_time_years,
            **extra,
        }
    structure, rates = structure_and_rates(
        model, {} if structures is None else structures
    )
    symmetry = None
    rate_symmetry = None
    if symmetry_reduction:
        symmetry = model.symmetry_spec(net=structure.net, rates=rates)
        rate_symmetry = structure.rate_symmetry
    return GridCase(
        name=name or scenario.label,
        net=structure.net,
        measures=(
            ProbabilityMeasure("availability", model.availability_expression()),
        ),
        rates=rates,
        metadata=metadata,
        symmetry=symmetry,
        rate_symmetry=rate_symmetry,
    )


def scenario_cases(
    scenarios: Sequence[CloudScenario],
    parameters: Optional[CaseStudyParameters] = None,
    symmetry_reduction: Optional[bool] = None,
) -> list[GridCase]:
    """One :func:`scenario_case` per scenario, one net per structure key.

    Scenarios that differ only in rates (α, disaster mean time, cities)
    share the net their first scenario builds; each case re-rates it with
    its own :meth:`~repro.core.cloud_model.CloudSystemModel.timed_rates`.
    """
    structures: StructureMemo = {}
    return [
        scenario_case(scenario, parameters, symmetry_reduction, structures=structures)
        for scenario in scenarios
    ]


@dataclass(frozen=True)
class CaseStudyGrid:
    """Axes of a mixed-structure scenario grid.

    ``city_sets`` mixes deployment shapes freely: a one-city set is a
    single-site baseline, two cities are the paper's architecture, three or
    more become an N-data-center deployment over ``topology``.  Axes that
    cannot affect a scenario are pruned rather than duplicated (single sites
    ignore α, ``l`` and the backup server).
    """

    city_sets: tuple[tuple[City, ...], ...]
    alphas: tuple[float, ...] = (BASELINE_ALPHA,)
    disaster_years: tuple[float, ...] = (BASELINE_DISASTER_YEARS,)
    machines_per_datacenter: tuple[int, ...] = (2,)
    l_thresholds: tuple[int, ...] = (1,)
    backup: tuple[bool, ...] = (True,)
    topology: str = "mesh"
    backup_location: City = BACKUP_LOCATION

    def scenarios(self) -> list[CloudScenario]:
        """The grid's scenario list (cross product with pruned axes)."""
        scenarios: list[CloudScenario] = []
        for city_set in self.city_sets:
            if len(city_set) == 1:
                site = city_set[0]
                for machines in self.machines_per_datacenter:
                    for years in self.disaster_years:
                        scenarios.append(
                            SingleDataCenterScenario(
                                machines=machines,
                                label=(
                                    f"{site.name} single site "
                                    f"(machines={machines}, disaster={years:g}y)"
                                ),
                                disaster_mean_time_years=years,
                                location=site,
                            )
                        )
                continue
            for machines in self.machines_per_datacenter:
                for alpha in self.alphas:
                    for years in self.disaster_years:
                        for l_threshold in self.l_thresholds:
                            for has_backup in self.backup:
                                scenarios.append(
                                    MultiDataCenterScenario(
                                        locations=tuple(city_set),
                                        alpha=alpha,
                                        disaster_mean_time_years=years,
                                        backup=self.backup_location,
                                        machines_per_datacenter=machines,
                                        topology=self.topology,
                                        minimum_operational_pms=l_threshold,
                                        has_backup_server=has_backup,
                                    )
                                )
        return scenarios


def evaluate_grid(
    scenarios: Sequence[CloudScenario],
    parameters: Optional[CaseStudyParameters] = None,
    *,
    jobs: Optional[int] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
    symmetry_reduction: Optional[bool] = None,
    shard_directory: Optional[Path] = None,
    shard_size: Optional[int] = None,
    generation_workers: Optional[int] = None,
    memory_budget: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    resume: bool = False,
    cancel_event: Optional[threading.Event] = None,
    log_callback: Optional[Callable[[str], None]] = None,
) -> GridOutcome:
    """Evaluate a list of case-study scenarios as one orchestrated grid.

    The cases come from :func:`scenario_cases`: one net per structure key,
    each case carrying its own timed rates.  Results come back in scenario
    order; each row carries the availability
    measure plus per-group provenance (states, solve path, cache hit,
    solve seconds).  See :class:`repro.engine.grid.ScenarioGridOrchestrator`
    for the work-stealing generate→solve pipeline, the shared solve of
    rate-identical cases, the self-healing ``retry`` policy, the
    checkpoint ``resume`` mode and the ``log_callback`` progress hook.
    ``symmetry_reduction=None`` resolves to the library-wide default
    (:data:`repro.symmetry.DEFAULT_SYMMETRY_REDUCTION` — on); ``repro grid
    --no-symmetry`` passes ``False``.
    """
    cases = scenario_cases(scenarios, parameters, symmetry_reduction)
    shard_kwargs = {} if shard_size is None else {"shard_size": shard_size}
    orchestrator = ScenarioGridOrchestrator(
        cache=TRGCache(cache_dir) if use_cache else None,
        jobs=jobs,
        max_states=max_states,
        shard_directory=shard_directory,
        generation_workers=generation_workers,
        **shard_kwargs,
        memory_budget=memory_budget,
        retry=retry,
        resume=resume,
        cancel_event=cancel_event,
        log_callback=log_callback,
    )
    return orchestrator.run(cases)


def complete_rows(outcome: GridOutcome) -> list[GridCaseResult]:
    """Every row of ``outcome`` in case order; a partial run is an error.

    The case-study entry points report every case they were given, so a
    quarantined case raises :class:`~repro.exceptions.AnalysisError` naming
    the failed cases and the first failure, instead of shortening the report.
    """
    if outcome.failures:
        first = outcome.failures[0]
        raise AnalysisError(
            f"{len(outcome.failed_cases())} case(s) failed at the "
            f"{first.stage} stage ({first.error_type}: {first.error}): "
            + ", ".join(outcome.failed_cases())
        )
    return outcome.results


def clamped_availability(row: GridCaseResult) -> float:
    """A row's availability, clipped into ``[0, 1]`` against round-off."""
    return min(1.0, max(0.0, row.value("availability")))
