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
``ScenarioBatchEngine.run_transient`` batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.casestudy.runner import AVAILABILITY_MEASURE, DistributedSweepRunner
from repro.casestudy.sensitivity import timed_transition_rates
from repro.engine import ScenarioSpec
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
    if window_hours <= 0.0:
        raise ConfigurationError(
            f"the mission window must be positive, got {window_hours!r} hours"
        )
    if points < 2:
        raise ConfigurationError(f"need at least 2 grid points, got {points!r}")
    return np.linspace(0.0, float(window_hours), int(points))


def vm_start_specs(
    runner: DistributedSweepRunner, minutes: Sequence[float]
) -> list[ScenarioSpec]:
    """One engine spec per VM start time (pure re-ratings of the reference).

    Each perturbed net is assembled only to read off its rate assignment
    (no state-space exploration); the structure is identical across the
    sweep, so every spec re-rates the runner's shared reachability graph.
    """
    specs = []
    for value in minutes:
        if value <= 0.0:
            raise ConfigurationError(
                f"VM start time must be positive, got {value!r} minutes"
            )
        perturbed = DistributedSweepRunner(
            parameters=replace(
                runner.parameters, vm_start_time=Duration.from_minutes(value)
            ),
            machines_per_datacenter=runner.machines_per_datacenter,
            use_cache=False,
        )
        specs.append(
            ScenarioSpec(
                name=f"vm_start_{value:g}min",
                rates=timed_transition_rates(perturbed.reference_model().build()),
                metadata={"minutes": float(value)},
            )
        )
    return specs


def reproduce_transient(
    runner: Optional[DistributedSweepRunner] = None,
    minutes: Sequence[float] = DEFAULT_VM_START_MINUTES,
    window_hours: float = DEFAULT_WINDOW_HOURS,
    points: int = DEFAULT_GRID_POINTS,
) -> list[TransientCurve]:
    """Mission-window availability curves, one per VM start time.

    The whole sweep is a single batched-uniformization dispatch on the
    runner's shared state space.
    """
    runner = runner or DistributedSweepRunner()
    specs = vm_start_specs(runner, minutes)
    times = mission_grid(window_hours, points)
    results = runner.engine().run_transient(
        specs, [runner.availability_measure()], times
    )
    return [
        TransientCurve(
            vm_start_minutes=float(spec.metadata["minutes"]),
            times_hours=result.times,
            point_availability=np.clip(result.point[AVAILABILITY_MEASURE], 0.0, 1.0),
            interval_availability=np.clip(
                result.interval[AVAILABILITY_MEASURE], 0.0, 1.0
            ),
            number_of_states=result.number_of_states,
            solve_seconds=result.solve_seconds,
        )
        for spec, result in zip(specs, results)
    ]
