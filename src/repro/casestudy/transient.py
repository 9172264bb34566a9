"""Mission-window (interval) availability vs VM start time — new workload.

The paper's dependability story treats VM start time as a design knob
(Table VII / Figure 7 are steady-state); operators, however, usually ask a
*transient* question: "what availability do I get over the next mission
window — a launch weekend, a billing day — given how fast my VMs start?".
This module answers it with the batched uniformization path of the scenario
engine: one shared state space, one scenario per VM start time, and per
scenario the **point availability** ``A(t)`` and the **interval
availability** ``(1/t)∫₀ᵗ A(u) du`` over a grid of mission times, starting
from the fully-operational initial marking.

All scenarios are pure re-ratings of the reference two-data-center
structure (like the VM-start-time ablations), so the whole sweep is one
``ScenarioBatchEngine.run_transient`` batch over the structure's graph, read
from the same cache entry the steady-state entry points use
(:meth:`repro.engine.grid.GridCase.graph`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.casestudy.grid import scenario_case
from repro.core.parameters import DEFAULT_PARAMETERS, CaseStudyParameters
from repro.core.scenarios import CITY_PAIRS, DistributedScenario
from repro.engine import ScenarioBatchEngine, ScenarioSpec, TRGCache
from repro.exceptions import ConfigurationError
from repro.metrics import Duration

#: VM start times (minutes) evaluated by default — the paper's five-minute
#: baseline plus two degraded provisioning paths.
DEFAULT_VM_START_MINUTES = (5.0, 30.0, 60.0)

#: Default mission window (hours) and number of grid points.
DEFAULT_WINDOW_HOURS = 72.0
DEFAULT_GRID_POINTS = 13


@dataclass(frozen=True)
class TransientCurve:
    """Availability over one mission window for one VM start time."""

    vm_start_minutes: float
    times_hours: np.ndarray
    point_availability: np.ndarray
    interval_availability: np.ndarray
    number_of_states: int
    solve_seconds: float

    @property
    def mission_interval_availability(self) -> float:
        """Interval availability over the full mission window."""
        return float(self.interval_availability[-1])

    @property
    def mission_point_availability(self) -> float:
        """Point availability at the end of the mission window."""
        return float(self.point_availability[-1])


def mission_grid(
    window_hours: float = DEFAULT_WINDOW_HOURS,
    points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Evenly spaced mission times ``0 … window_hours`` (inclusive)."""
    if not (math.isfinite(window_hours) and window_hours > 0.0):
        raise ConfigurationError(
            f"the mission window must be a finite number of hours > 0, got "
            f"{window_hours!r}"
        )
    if points < 2:
        raise ConfigurationError(f"need at least 2 grid points, got {points!r}")
    return np.linspace(0.0, float(window_hours), int(points))


def _reference_scenario(machines_per_datacenter: int) -> DistributedScenario:
    """The reference deployment: the first city pair's baseline."""
    first, second = CITY_PAIRS[0]
    return DistributedScenario(
        first, second, machines_per_datacenter=machines_per_datacenter
    )


def vm_start_specs(
    minutes: Sequence[float],
    parameters: Optional[CaseStudyParameters] = None,
    machines_per_datacenter: int = 2,
) -> list[ScenarioSpec]:
    """One engine spec per VM start time (pure re-ratings of the reference).

    Each spec carries the perturbed model's
    :meth:`~repro.core.cloud_model.CloudSystemModel.timed_rates`, computed
    without a net; the structure is identical across the sweep, so every
    spec re-rates the reference deployment's shared reachability graph.
    """
    if not minutes:
        raise ConfigurationError("need at least one VM start time")
    parameters = parameters or DEFAULT_PARAMETERS
    scenario = _reference_scenario(machines_per_datacenter)
    specs = []
    for value in minutes:
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigurationError(
                f"VM start time must be a finite number of minutes > 0, got "
                f"{value!r}"
            )
        perturbed = replace(parameters, vm_start_time=Duration.from_minutes(value))
        specs.append(
            ScenarioSpec(
                name=f"vm_start_{value:g}min",
                rates=scenario.build_model(perturbed).timed_rates(),
                metadata={"minutes": float(value)},
            )
        )
    return specs


def reproduce_transient(
    minutes: Sequence[float] = DEFAULT_VM_START_MINUTES,
    window_hours: float = DEFAULT_WINDOW_HOURS,
    points: int = DEFAULT_GRID_POINTS,
    *,
    parameters: Optional[CaseStudyParameters] = None,
    machines_per_datacenter: int = 2,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> list[TransientCurve]:
    """Mission-window availability curves, one per VM start time.

    ``parameters`` (default: the paper's) and ``machines_per_datacenter``
    fix the reference deployment.  Its graph comes from the reachability
    cache (or is generated and stored), and the whole sweep is a single
    batched-uniformization dispatch on it.
    """
    specs = vm_start_specs(minutes, parameters, machines_per_datacenter)
    times = mission_grid(window_hours, points)
    reference = scenario_case(
        _reference_scenario(machines_per_datacenter), parameters=parameters
    )
    graph, _ = reference.graph(TRGCache(cache_dir) if use_cache else None)
    (measure,) = reference.measures
    results = ScenarioBatchEngine(graph).run_transient(specs, [measure], times)
    return [
        TransientCurve(
            vm_start_minutes=float(spec.metadata["minutes"]),
            times_hours=result.times,
            point_availability=np.clip(result.point[measure.name], 0.0, 1.0),
            interval_availability=np.clip(result.interval[measure.name], 0.0, 1.0),
            number_of_states=result.number_of_states,
            solve_seconds=result.solve_seconds,
        )
        for spec, result in zip(specs, results)
    ]
