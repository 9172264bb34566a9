"""Tests for the discrete-event SPN simulator."""

import pytest

from repro.core import (
    CaseStudyParameters,
    CloudSystemModel,
    DisasterParameters,
    single_datacenter_spec,
)
from repro.exceptions import SimulationError
from repro.spn import (
    ExpectedTokensMeasure,
    ProbabilityMeasure,
    StochasticPetriNet,
    ThroughputMeasure,
    simulate,
    solve_steady_state,
)

from tests.spn.nets import immediate_routing, machine_repair, simple_component


AVAILABILITY = ProbabilityMeasure("availability", "#X_ON > 0")


class TestAgainstAnalyticResults:
    def test_simple_component_availability(self):
        net = simple_component("X", mttf=100.0, mttr=10.0)
        analytic = solve_steady_state(net).probability("#X_ON > 0")
        result = simulate(net, [AVAILABILITY], horizon=50_000.0, replications=6, seed=42)
        estimate = result["availability"]
        assert estimate.mean == pytest.approx(analytic, abs=0.02)
        assert estimate.half_width < 0.05

    def test_machine_repair_expected_tokens(self):
        net = machine_repair(machines=3, mttf=10.0, mttr=1.0)
        analytic = solve_steady_state(net).expected_tokens("#BROKEN")
        result = simulate(
            net,
            [ExpectedTokensMeasure("broken", "#BROKEN")],
            horizon=20_000.0,
            replications=6,
            seed=7,
        )
        assert result.value("broken") == pytest.approx(analytic, rel=0.1)

    def test_throughput_estimate(self):
        net = simple_component("X", mttf=50.0, mttr=5.0)
        analytic = solve_steady_state(net).throughput("X_Failure")
        result = simulate(
            net,
            [ThroughputMeasure("failures", "X_Failure")],
            horizon=50_000.0,
            replications=6,
            seed=3,
        )
        assert result.value("failures") == pytest.approx(analytic, rel=0.15)

    def test_four_machine_site_matches_the_analytic_pipeline(self):
        """Simulated against analytic availability of the case-study site.

        Disasters every 100 years are too rare for a finite horizon to
        estimate, so the disaster process is time-compressed (up 2 years,
        recovery 0.2 years): the same structure, every regime visited often.
        """
        parameters = CaseStudyParameters(
            disaster=DisasterParameters.from_years(2.0, recovery_years=0.2)
        )
        model = CloudSystemModel(
            spec=single_datacenter_spec(machines=4), parameters=parameters
        )
        expression = model.availability_expression()
        analytic = solve_steady_state(model.build()).probability(expression)
        result = simulate(
            model.build(),
            [ProbabilityMeasure("availability", expression)],
            horizon=300_000.0,
            replications=3,
            seed=2013,
        )
        estimate = result["availability"]
        assert estimate.mean == pytest.approx(analytic, abs=0.02)
        assert estimate.half_width > 0.0

    def test_immediate_routing_weights_respected(self):
        net = immediate_routing(weight_a=1.0, weight_b=3.0)
        result = simulate(
            net,
            [
                ProbabilityMeasure("on_a", "#PATH_A = 1"),
                ProbabilityMeasure("on_b", "#PATH_B = 1"),
            ],
            horizon=20_000.0,
            replications=4,
            seed=11,
        )
        ratio = result.value("on_b") / result.value("on_a")
        assert ratio == pytest.approx(3.0, rel=0.2)


class TestReproducibility:
    def test_same_seed_gives_same_estimates(self):
        net = simple_component("X", mttf=100.0, mttr=10.0)
        first = simulate(net, [AVAILABILITY], horizon=1_000.0, replications=3, seed=5)
        second = simulate(net, [AVAILABILITY], horizon=1_000.0, replications=3, seed=5)
        assert first["availability"].replication_values == second["availability"].replication_values

    def test_different_seeds_differ(self):
        net = simple_component("X", mttf=100.0, mttr=10.0)
        first = simulate(net, [AVAILABILITY], horizon=1_000.0, replications=3, seed=5)
        second = simulate(net, [AVAILABILITY], horizon=1_000.0, replications=3, seed=6)
        assert (
            first["availability"].replication_values
            != second["availability"].replication_values
        )


class TestEstimates:
    def test_confidence_interval_contains_mean(self):
        net = simple_component("X", mttf=100.0, mttr=10.0)
        estimate = simulate(net, [AVAILABILITY], horizon=5_000.0, replications=5, seed=1)[
            "availability"
        ]
        assert estimate.lower <= estimate.mean <= estimate.upper
        assert estimate.contains(estimate.mean)

    def test_single_replication_has_zero_half_width(self):
        net = simple_component("X")
        estimate = simulate(net, [AVAILABILITY], horizon=500.0, replications=1, seed=1)[
            "availability"
        ]
        assert estimate.half_width == 0.0

    def test_zero_rate_transition_excluded_from_race(self):
        """A zero-rate timed transition must not poison the exponential race."""
        import math

        net = StochasticPetriNet("zero-rate")
        net.add_place("ON", 1)
        net.add_place("OFF", 0)
        net.add_timed_transition("NEVER", delay=math.inf)  # rate 0
        net.add_timed_transition("FLIP", delay=1.0)
        net.add_timed_transition("FLOP", delay=1.0)
        net.add_input_arc("ON", "NEVER")
        net.add_input_arc("ON", "FLIP")
        net.add_output_arc("FLIP", "OFF")
        net.add_input_arc("OFF", "FLOP")
        net.add_output_arc("FLOP", "ON")
        result = simulate(
            net,
            [ProbabilityMeasure("on", "#ON = 1")],
            horizon=2_000.0,
            replications=3,
            seed=4,
        )
        assert result.value("on") == pytest.approx(0.5, abs=0.05)

    def test_only_zero_rate_transitions_enabled_raises(self):
        """Regression: this used to divide by a zero total rate."""
        import math

        net = StochasticPetriNet("stuck")
        net.add_place("ON", 1)
        net.add_place("OFF", 0)
        net.add_timed_transition("NEVER", delay=math.inf)
        net.add_input_arc("ON", "NEVER")
        net.add_output_arc("NEVER", "OFF")
        with pytest.raises(SimulationError, match="zero rate"):
            simulate(
                net,
                [ProbabilityMeasure("on", "#ON = 1")],
                horizon=10.0,
                replications=1,
                seed=1,
            )

    def test_duplicate_input_arcs_cannot_go_negative_silently(self):
        """Regression: the kernel-based event loop must keep the scalar
        fire() guard against duplicate-input-arc nets (enabled by the max
        multiplicity, consuming the sum)."""
        from repro.exceptions import ModelError

        net = StochasticPetriNet("dup")
        net.add_place("P", 1)
        net.add_place("Q", 0)
        net.add_timed_transition("T", delay=1.0)
        net.add_input_arc("P", "T", multiplicity=1)
        net.add_input_arc("P", "T", multiplicity=1)  # consumes 2, requires 1
        net.add_output_arc("T", "Q")
        with pytest.raises(ModelError, match="negative"):
            simulate(
                net,
                [ProbabilityMeasure("q", "#Q > 0")],
                horizon=100.0,
                replications=1,
                seed=0,
            )

    def test_absorbing_net_spends_remaining_time_in_final_state(self):
        net = StochasticPetriNet("absorbing")
        net.add_place("RUN", 1)
        net.add_place("DEAD", 0)
        net.add_timed_transition("DIE", delay=1.0)
        net.add_input_arc("RUN", "DIE")
        net.add_output_arc("DIE", "DEAD")
        result = simulate(
            net,
            [ProbabilityMeasure("dead", "#DEAD = 1")],
            horizon=1_000.0,
            replications=3,
            warmup_fraction=0.0,
            seed=2,
        )
        assert result.value("dead") > 0.99


class TestArgumentValidation:
    def test_invalid_horizon(self):
        with pytest.raises(SimulationError):
            simulate(simple_component("X"), [AVAILABILITY], horizon=0.0)

    def test_invalid_replications(self):
        with pytest.raises(SimulationError):
            simulate(simple_component("X"), [AVAILABILITY], horizon=10.0, replications=0)

    def test_invalid_warmup(self):
        with pytest.raises(SimulationError):
            simulate(
                simple_component("X"), [AVAILABILITY], horizon=10.0, warmup_fraction=1.0
            )

    def test_invalid_confidence_level(self):
        with pytest.raises(SimulationError):
            simulate(
                simple_component("X"), [AVAILABILITY], horizon=10.0, confidence_level=1.0
            )

    def test_unknown_throughput_transition(self):
        with pytest.raises(SimulationError):
            simulate(
                simple_component("X"),
                [ThroughputMeasure("t", "missing")],
                horizon=10.0,
            )

    def test_custom_initial_marking(self):
        net = simple_component("X", mttf=100.0, mttr=10.0)
        result = simulate(
            net,
            [AVAILABILITY],
            horizon=2_000.0,
            replications=2,
            seed=9,
            initial_marking={"X_ON": 0, "X_OFF": 1},
        )
        assert 0.0 < result.value("availability") < 1.0
