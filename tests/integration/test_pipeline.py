"""End-to-end integration tests across the whole stack.

These tests cross-validate the independent evaluation paths of the library on
configurations small enough for exact analysis: RBD closed forms vs. SPN
analysis, analytic CTMC solution vs. Monte-Carlo simulation, full vs.
symmetry-lumped state spaces, and the parametric re-rating used by the grid
orchestrator vs. building a fresh model.
"""

import pytest

from repro.core import (
    CaseStudyParameters,
    CloudSystemModel,
    ComponentParameters,
    DistributedScenario,
    HierarchicalParameters,
    build_simple_component,
    single_datacenter_spec,
)
from repro.engine import ScenarioBatchEngine, ScenarioSpec
from repro.metrics import availability_from_mttf_mttr
from repro.network import BRASILIA, RIO_DE_JANEIRO
from repro.spn import (
    ProbabilityMeasure,
    generate_tangible_reachability_graph,
    simulate,
    solve_steady_state,
)


class TestRbdSpnConsistency:
    def test_simple_component_matches_rbd_equivalent(self):
        """A SIMPLE_COMPONENT parameterised by an RBD's equivalent MTTF/MTTR
        has exactly the RBD's availability (the hierarchical step is lossless
        for steady-state availability)."""
        hierarchy = HierarchicalParameters.from_components(ComponentParameters())
        for result in (hierarchy.os_pm, hierarchy.nas_net):
            net = build_simple_component("X", result.mttf, result.mttr)
            solution = solve_steady_state(net)
            assert solution.probability("#X_UP > 0") == pytest.approx(
                result.availability, rel=1e-9
            )

    def test_independent_simple_components_multiply(self):
        """Availability of independent components composes multiplicatively,
        matching the series RBD of the same components."""
        from repro.spn import merge

        net = merge(
            "pair",
            [
                build_simple_component("A", 1000.0, 12.0),
                build_simple_component("B", 4000.0, 1.0),
            ],
        )
        solution = solve_steady_state(net)
        both = solution.probability("#A_UP > 0 AND #B_UP > 0")
        expected = availability_from_mttf_mttr(1000.0, 12.0) * availability_from_mttf_mttr(
            4000.0, 1.0
        )
        assert both == pytest.approx(expected, rel=1e-9)


class TestLumpingExactness:
    @pytest.mark.parametrize("machines", [2, 3])
    def test_symmetry_reduction_preserves_availability(self, machines):
        model = CloudSystemModel(spec=single_datacenter_spec(machines=machines))
        expression = model.availability_expression()
        full = model.solve(symmetry_reduction=False)
        lumped = model.solve(symmetry_reduction=True)
        assert lumped.number_of_states < full.number_of_states
        assert lumped.probability(expression) == pytest.approx(
            full.probability(expression), rel=1e-9
        )

    def test_symmetry_reduction_preserves_expected_vms(self):
        model = CloudSystemModel(spec=single_datacenter_spec(machines=2))
        full = model.expected_running_vms(model.solve(symmetry_reduction=False))
        lumped = model.expected_running_vms(model.solve(symmetry_reduction=True))
        assert lumped == pytest.approx(full, rel=1e-9)


class TestAnalyticSimulationAgreement:
    def test_single_site_model(self):
        model = CloudSystemModel(
            spec=single_datacenter_spec(machines=2, required_running_vms=1)
        )
        expression = model.availability_expression()
        analytic = solve_steady_state(model.build()).probability(expression)
        simulated = simulate(
            model.build(),
            [ProbabilityMeasure("availability", expression)],
            horizon=150_000.0,
            replications=4,
            seed=7,
        )
        assert simulated["availability"].mean == pytest.approx(analytic, abs=0.01)


class TestSweepRunnerConsistency:
    def test_re_rated_solution_matches_fresh_model(self):
        """The parametric re-rating used for the Figure 7 sweep gives the
        same availability as building and solving a brand-new model."""
        from repro.casestudy import evaluate_grid

        parameters = CaseStudyParameters(required_running_vms=1)
        baseline, scenario = (
            DistributedScenario(
                RIO_DE_JANEIRO,
                BRASILIA,
                alpha=alpha,
                disaster_mean_time_years=years,
                machines_per_datacenter=1,
            )
            for alpha, years in ((0.35, 100.0), (0.45, 300.0))
        )
        # One structure group: the graph is generated for the baseline and
        # re-rated for the second scenario.
        outcome = evaluate_grid([baseline, scenario], parameters, use_cache=False)
        assert len(outcome.groups) == 1
        via_grid = outcome.results[1].value("availability")
        # Rebuild the spec at the reduced scale for a fair comparison.
        from repro.core.datacenter import two_datacenter_spec
        from repro.core.scenarios import BACKUP_LOCATION

        spec = two_datacenter_spec(
            first_location=RIO_DE_JANEIRO,
            second_location=BRASILIA,
            backup_location=BACKUP_LOCATION,
            machines_per_datacenter=1,
            required_running_vms=1,
        )
        fresh = CloudSystemModel(
            spec=spec,
            parameters=parameters.with_disaster_mean_time(300.0),
            alpha=0.45,
        )
        assert via_grid == pytest.approx(fresh.availability().availability, rel=1e-9)


class TestTransientBehaviour:
    def test_point_availability_starts_high_and_approaches_steady_state(self):
        model = CloudSystemModel(
            spec=single_datacenter_spec(machines=1, required_running_vms=1)
        )
        expression = model.availability_expression()
        graph = generate_tangible_reachability_graph(model.build())
        (transient,) = ScenarioBatchEngine(graph).run_transient(
            [ScenarioSpec("base")],
            [ProbabilityMeasure("availability", expression)],
            [0.0, 10.0, 100_000.0],
        )
        curve = transient.point["availability"]
        steady = solve_steady_state(graph).probability(expression)
        assert curve[0] == pytest.approx(1.0)
        assert curve[1] < 1.0
        assert curve[2] == pytest.approx(steady, rel=1e-3)
