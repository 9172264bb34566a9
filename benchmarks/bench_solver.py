"""Benchmark E5 — solver performance and the cost of simulation.

Measures the three stages of the analysis pipeline on the four-machine
single-site model (the largest configuration with a compact state space):
tangible reachability-graph generation, CTMC steady-state solution, and the
Monte-Carlo simulator.  That the analytic and simulated availability agree
is a tier-1 test (``tests/spn/test_simulation.py``).
"""

import numpy as np
import pytest

from repro.core import CloudSystemModel, single_datacenter_spec
from repro.markov import solvers
from repro.spn import (
    ProbabilityMeasure,
    generate_tangible_reachability_graph,
    simulate,
    solve_steady_state,
)


@pytest.fixture(scope="module")
def four_machine_model():
    return CloudSystemModel(spec=single_datacenter_spec(machines=4))


@pytest.fixture(scope="module")
def four_machine_graph(four_machine_model):
    return generate_tangible_reachability_graph(four_machine_model.build())


def bench_state_space_generation(benchmark, four_machine_model):
    graph = benchmark.pedantic(
        generate_tangible_reachability_graph,
        args=(four_machine_model.build(),),
        rounds=1,
        iterations=1,
    )
    assert graph.number_of_states == pytest.approx(2314, abs=0)


def bench_steady_state_solution(benchmark, four_machine_model, four_machine_graph):
    solution = benchmark(solve_steady_state, four_machine_graph)
    availability = solution.probability(four_machine_model.availability_expression())
    # Disaster-limited: just under the 0.9901 single-site ceiling.
    assert 0.985 < availability < 0.9902


def bench_symmetry_reduced_solution(benchmark, four_machine_model, four_machine_graph):
    def reduced():
        return four_machine_model.solve(symmetry_reduction=True)

    lumped = benchmark.pedantic(reduced, rounds=1, iterations=1)
    full = solve_steady_state(four_machine_graph)
    expression = four_machine_model.availability_expression()
    # The lumped chain is several times smaller yet yields the same metric.
    assert lumped.number_of_states < four_machine_graph.number_of_states
    assert lumped.probability(expression) == pytest.approx(
        full.probability(expression), rel=1e-9
    )


def _birth_death_generator(n: int, arrival: float = 1.0, service: float = 1.7) -> np.ndarray:
    """Dense generator of an M/M/1/K-style birth-death chain with ``n`` states."""
    q = np.zeros((n, n))
    for i in range(n - 1):
        q[i, i + 1] = arrival
        q[i + 1, i] = service
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def bench_gth_elimination(benchmark):
    """GTH elimination with the vectorized rank-1 inner update.

    The per-column Python loop of the seed implementation collapsed into one
    ``np.outer`` update per elimination step; this benchmark tracks that the
    dense elimination stays fast and keeps agreeing with the sparse direct
    solver to near machine precision.
    """
    q = _birth_death_generator(800)
    pi = benchmark(solvers.steady_state, q, method="gth")
    reference = solvers.steady_state(q, method="direct")
    assert np.max(np.abs(pi - reference)) < 1e-12
    # Closed form of the birth-death stationary ratio as a sanity anchor.
    assert pi[1] / pi[0] == pytest.approx(1.0 / 1.7, rel=1e-9)


def bench_simulation_cross_validation(benchmark):
    """Simulated availability of the four-machine site.

    The Table VI disaster parameters make disasters a rare event (mean time
    100 years), which a finite-horizon simulation cannot estimate tightly, so
    the run uses a time-compressed disaster process (mean time 2 years,
    recovery 0.2 years): the same model structure with every regime visited
    often enough for the simulator to converge.  The tier-1 test
    ``test_four_machine_site_matches_the_analytic_pipeline`` checks this
    run's estimate against the analytic availability.
    """
    from repro.core import CaseStudyParameters, DisasterParameters

    parameters = CaseStudyParameters(
        disaster=DisasterParameters.from_years(2.0, recovery_years=0.2)
    )
    model = CloudSystemModel(
        spec=single_datacenter_spec(machines=4), parameters=parameters
    )
    expression = model.availability_expression()

    def run_simulation():
        return simulate(
            model.build(),
            [ProbabilityMeasure("availability", expression)],
            horizon=300_000.0,
            replications=3,
            seed=2013,
        )

    result = benchmark.pedantic(run_simulation, rounds=1, iterations=1)
    assert 0.0 < result.value("availability") <= 1.0
