"""Tests for the mission-window availability sweep (new transient workload)."""

import math

import numpy as np
import pytest

from repro.casestudy import deployment, reproduce_transient
from repro.casestudy.transient import mission_grid, vm_start_specs
from repro.exceptions import ConfigurationError

#: The reduced deployment: one PM per data center, k = 1.
SMALL = deployment()


@pytest.fixture(scope="module")
def curves():
    return reproduce_transient(
        minutes=(5.0, 60.0), window_hours=12.0, points=4, **SMALL
    )


class TestMissionGrid:
    def test_grid_spans_zero_to_window(self):
        grid = mission_grid(24.0, 5)
        assert grid[0] == 0.0
        assert grid[-1] == 24.0
        assert grid.size == 5

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            mission_grid(0.0, 5)
        with pytest.raises(ConfigurationError):
            mission_grid(24.0, 1)

    @pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf, float("1e400")])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(ConfigurationError, match="finite number of hours"):
            mission_grid(window, 5)


class TestVmStartSpecs:
    def test_one_spec_per_start_time_with_metadata(self):
        specs = vm_start_specs((5.0, 30.0), **SMALL)
        assert [spec.metadata["minutes"] for spec in specs] == [5.0, 30.0]
        assert all(spec.rates for spec in specs)

    def test_specs_differ_only_in_vm_start_rate(self):
        fast, slow = vm_start_specs((5.0, 60.0), **SMALL)
        differing = {
            name
            for name in fast.rates
            if fast.rates[name] != pytest.approx(slow.rates[name])
        }
        assert differing
        assert all(name.startswith("VM_STRT") for name in differing)

    def test_non_positive_start_time_rejected(self):
        with pytest.raises(ConfigurationError):
            vm_start_specs((0.0,), **SMALL)

    @pytest.mark.parametrize("minutes", [math.nan, math.inf])
    def test_non_finite_start_time_rejected(self, minutes):
        with pytest.raises(ConfigurationError, match="finite number of minutes"):
            vm_start_specs((5.0, minutes), **SMALL)

    def test_empty_start_times_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            vm_start_specs((), **SMALL)


class TestReproduceTransient:
    def test_curve_shapes_and_bounds(self, curves):
        for curve in curves:
            assert curve.times_hours.shape == (4,)
            assert curve.point_availability.shape == (4,)
            assert curve.interval_availability.shape == (4,)
            assert np.all(curve.point_availability >= 0.0)
            assert np.all(curve.point_availability <= 1.0)

    def test_starts_fully_available(self, curves):
        for curve in curves:
            assert curve.point_availability[0] == pytest.approx(1.0)
            assert curve.interval_availability[0] == pytest.approx(1.0)

    def test_point_availability_decreases_over_the_mission(self, curves):
        """From the fully-up initial marking the availability can only decay
        towards steady state on this window."""
        for curve in curves:
            assert np.all(np.diff(curve.point_availability) <= 1e-12)

    def test_interval_availability_dominates_point(self, curves):
        """For a decaying availability curve the running time-average stays
        above the instantaneous value."""
        for curve in curves:
            assert np.all(
                curve.interval_availability >= curve.point_availability - 1e-12
            )

    def test_slower_vm_start_lowers_mission_availability(self, curves):
        fast, slow = curves
        assert fast.vm_start_minutes < slow.vm_start_minutes
        assert (
            fast.mission_interval_availability
            > slow.mission_interval_availability
        )
        assert fast.mission_point_availability > slow.mission_point_availability

    def test_runs_as_one_engine_batch(self, curves):
        """The sweep shares the reduced deployment's state space, the one
        the steady-state entry points evaluate."""
        from repro.casestudy import evaluate_grid
        from repro.core import DistributedScenario
        from repro.network import BRASILIA, RIO_DE_JANEIRO

        reference = DistributedScenario(
            RIO_DE_JANEIRO, BRASILIA, machines_per_datacenter=1
        )
        (group,) = evaluate_grid([reference], SMALL["parameters"]).groups
        assert all(
            curve.number_of_states == group.number_of_states for curve in curves
        )
