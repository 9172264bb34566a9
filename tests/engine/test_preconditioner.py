"""Size, order and accuracy of the engine's incomplete-LU preconditioner.

One :class:`~repro.engine.krylov.ReusableSolver` is chained along Figure 7's
disaster-time axis on two case-study chains: the reduced two-data-center
chain (3,048 states) and the DC+PM-lumped four-data-center mesh (1,430
states).  The factors must stay a small multiple of the system (a complete
LU holds over 30x its nonzeros here) and keep the generator's state order
without row exchanges, while every stationary vector still matches the
sparse direct solve and leaves a negligible balance residual.  A chain
whose initial marking's probability underflows solves as well, which is
why the system's normalisation row is ``Σ π = 1`` rather than a pinned
``π₀``.  A failed factorisation on the chunked path raises a typed error.

The refresh schedule is pinned three ways: as a pure decision over recorded
preconditioner-application counts, on an 84-case Figure 7 chain that must
refresh its in-RAM factors and need fewer applications per solve, and on
the same chain through the chunked solver, which must return the in-RAM
chain's vectors bitwise, from as many factorisations.
"""

import numpy as np
import pytest

from repro.casestudy.grid import CaseStudyGrid, scenario_case
from repro.core import CaseStudyParameters
from repro.core.parameters import ALPHA_VALUES
from repro.core.scenarios import (
    CITY_PAIRS,
    DistributedScenario,
    homogeneous_mesh_scenario,
)
from repro.engine import ReusableSolver, ScenarioBatchEngine
from repro.engine import krylov
from repro.engine.krylov import MatrixFreeSolver, RefreshSchedule
from repro.exceptions import AnalysisError
from repro.markov import solvers
from repro.spn.analysis import SteadyStateSolution
from repro.spn.ctmc_export import generator_matrix
from repro.spn.enabling import CompiledNet
from repro.spn.parametric import rate_vector_with_overrides
from repro.spn.reachability import generate_tangible_reachability_graph
from repro.statespace import ChunkedGraph, write_chunked_graph

from tests.spn.nets import machine_repair

#: Figure 7's disaster mean times (100, 200, 300 y) and the steps between.
YEARS = (100.0, 150.0, 200.0, 250.0, 300.0)

#: Largest factor size, as a multiple of the system's nonzeros.
MAX_FILL_RATIO = 5.0
AVAILABILITY_TOLERANCE = 1e-12
#: Largest ‖πQ‖∞ over the largest exit rate.
RESIDUAL_TOLERANCE = 1e-13


def two_datacenter(years):
    first, second = CITY_PAIRS[0]
    scenario = DistributedScenario(
        first, second, disaster_mean_time_years=years, machines_per_datacenter=1
    )
    return scenario_case(scenario, CaseStudyParameters(required_running_vms=1))


def lumped_mesh(years):
    scenario = homogeneous_mesh_scenario(
        4,
        machines_per_datacenter=1,
        capacity_aware_migration=True,
        disaster_mean_time_years=years,
    )
    parameters = CaseStudyParameters(
        required_running_vms=1, vms_per_physical_machine=1
    )
    return scenario_case(scenario, parameters)


@pytest.mark.parametrize(
    ("make_case", "states"),
    [(two_datacenter, 3_048), (lumped_mesh, 1_430)],
    ids=["two-datacenter", "lumped-mesh"],
)
def test_reused_ilu_is_small_and_exact_along_the_sweep(make_case, states):
    cases = [make_case(years) for years in YEARS]
    graph, _ = cases[0].graph()
    engine = ScenarioBatchEngine(graph)
    assert graph.number_of_states == states
    solver = ReusableSolver(engine.template())
    for case in cases:
        scenario = graph.with_rate_vector(
            rate_vector_with_overrides(graph, case.full_rates())
        )
        generator = generator_matrix(scenario)
        pi = solver.solve(scenario.edge_rates, lambda: generator)
        assert not solver.last_solve_used_fallback
        assert solver.preconditioner.nnz <= MAX_FILL_RATIO * solver.system.nnz

        (measure,) = case.measures
        exact = solvers.steady_state(generator, method="direct")
        availability = SteadyStateSolution(scenario, pi).measure(measure)
        expected = SteadyStateSolution(scenario, exact).measure(measure)
        assert abs(availability - expected) <= AVAILABILITY_TOLERANCE

        residual = np.abs(generator.T @ pi).max()
        assert residual / np.max(-generator.diagonal()) <= RESIDUAL_TOLERANCE


def test_factor_keeps_generation_order():
    case = lumped_mesh(100.0)
    graph, _ = case.graph()
    graph = graph.with_rate_vector(rate_vector_with_overrides(graph, case.full_rates()))
    system = ScenarioBatchEngine(graph).template().fresh_system(graph.edge_rates)
    factor = krylov.incomplete_lu(system)
    # The breadth-first state order, and no row exchange.
    identity = np.arange(graph.number_of_states)
    assert np.array_equal(factor.perm_c, identity)
    assert np.array_equal(factor.perm_r, identity)


def test_underflowing_initial_probability_solves_without_fallback():
    graph = generate_tangible_reachability_graph(machine_repair(400), max_states=1_000)
    generator = generator_matrix(graph)
    exact = solvers.steady_state(generator, method="direct")
    # π₀ is about 1e-473, below double range: a system pinned at π₀ = 1
    # could not represent π / π₀, so the last row stays Σ π = 1.
    assert exact[0] == 0.0
    solver = ReusableSolver(ScenarioBatchEngine(graph).template())
    pi = solver.solve(graph.edge_rates, lambda: generator)
    assert not solver.last_solve_used_fallback
    assert np.abs(pi - exact).max() <= AVAILABILITY_TOLERANCE


def test_failed_block_factorisation_raises(tmp_path, monkeypatch):
    net = machine_repair(6)
    write_chunked_graph(net, tmp_path / "graph", max_states=10_000, chunk_size=2)
    graph = ChunkedGraph.open(tmp_path / "graph", CompiledNet(net))
    assert len(graph.chunks) > 1

    def singular(matrix, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(krylov.sparse_linalg, "spilu", singular)
    with pytest.raises(AnalysisError, match="the balance system"):
        MatrixFreeSolver(graph).solve()


#: Preconditioner applications per solve (as the refresh schedule records
#: them) of recorded chains that must keep their factors: the 8-case
#: 57,188-state group of the mixed grid and the 45-point Figure 7 chain at
#: 57,188 states, both on one set of factors with nnz(L+U) 2,299,148.
FULL_MODEL_FACTOR_NNZ = 2_299_148
FULL_MODEL_GRID_GROUP = [9, 12, 18, 18, 53, 50, 53, 46]
FULL_MODEL_FIGURE7 = [
    9, 9, 9, 16, 11, 15, 18, 18, 17, 21, 20, 19, 20, 19, 18, 21, 19, 19,
    35, 40, 38, 34, 31, 31, 32, 33, 31, 54, 49, 39, 46, 42, 39, 46, 50, 40,
    53, 46, 45, 51, 47, 43, 50, 44, 52,
]
#: The first 30 solves of a 105-case chain at 3,048 states on one set of
#: factors (nnz(L+U) 71,560): the count drifts from 7 to 12 at solve 15
#: and to 14 by solve 29.
REDUCED_FACTOR_NNZ = 71_560
REDUCED_CHAIN = [
    8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 12, 11, 11, 11, 11, 11,
    8, 8, 8, 11, 8, 8, 8, 11, 14, 13,
]


def scheduled_refreshes(counts, factor_nnz, chain_length=None):
    """Refreshes the schedule makes over a chain that solves with ``counts``.

    The counts are replayed as recorded (a refresh does not lower them), so
    this pins the decision alone.  ``chain_length`` defaults to the counts'
    length; a longer chain leaves more solves to pay a refresh back.
    """
    chain_length = chain_length or len(counts)
    schedule = RefreshSchedule()
    schedule.factored(factor_nnz)
    refreshes = 0
    for position, applications in enumerate(counts):
        if schedule.due(chain_length - position):
            schedule.factored(factor_nnz)
            refreshes += 1
        schedule.solved(applications)
    return refreshes


class TestRefreshSchedule:
    @pytest.mark.parametrize(
        "counts",
        [FULL_MODEL_GRID_GROUP, FULL_MODEL_FIGURE7],
        ids=["grid-group", "figure7-chain"],
    )
    def test_full_model_chains_keep_their_factors(self, counts):
        assert scheduled_refreshes(counts, FULL_MODEL_FACTOR_NNZ) == 0

    def test_drifting_reduced_chain_refreshes(self):
        assert scheduled_refreshes(REDUCED_CHAIN, REDUCED_FACTOR_NNZ, 105) >= 1

    def test_last_solve_never_refreshes(self):
        schedule = RefreshSchedule()
        schedule.factored(1)
        schedule.solved(2)
        schedule.solved(1_000)
        assert not schedule.due(1)
        assert schedule.due(2)

    def test_repeated_point_is_not_a_baseline(self):
        # A solve converging from its warm start applies the preconditioner
        # once; taken as the baseline, every later solve would look drifted.
        counts = [1, 8, 8, 8, 8, 8, 8, 8, 8, 8]
        assert scheduled_refreshes(counts, REDUCED_FACTOR_NNZ, 105) == 0
        # Every point solved twice, the factors built at a repeat: a
        # baseline of 1 would refresh before every other solve.
        assert scheduled_refreshes([1, 8] * 20, REDUCED_FACTOR_NNZ, 105) == 0

    def test_factors_are_fresh_only_within_their_solve(self):
        schedule = RefreshSchedule()
        schedule.factored(100)
        assert schedule.fresh
        schedule.solved(8)
        schedule.due(5)
        assert not schedule.fresh


#: Figure 7's 100, 200 and 300 y plus eleven of the 10-year steps between.
CHAIN_YEARS = (
    100.0, 120.0, 130.0, 140.0, 150.0, 170.0, 180.0, 190.0, 200.0,
    230.0, 240.0, 250.0, 260.0, 300.0,
)
#: Mean preconditioner applications per solve (counted at the factor) of the
#: 84-case chain: 12.5 on one set of factors, 9.1 with the refresh
#: schedule.
MAX_MEAN_APPLICATIONS = 11.0


@pytest.fixture(scope="module")
def figure7_chain():
    """84 reduced two-DC cases in grid order, on their 3,048-state structure."""
    scenarios = CaseStudyGrid(
        city_sets=CITY_PAIRS[:2],
        alphas=ALPHA_VALUES,
        disaster_years=CHAIN_YEARS,
        machines_per_datacenter=(1,),
    ).scenarios()
    cases = [
        scenario_case(scenario, CaseStudyParameters(required_running_vms=1))
        for scenario in scenarios
    ]
    assert cases[0].symmetry is None
    graph = generate_tangible_reachability_graph(cases[0].net)
    engine = ScenarioBatchEngine(graph)
    assert (len(cases), graph.number_of_states) == (84, 3_048)
    rate_vectors = [rate_vector_with_overrides(graph, case.full_rates()) for case in cases]
    return cases, engine, rate_vectors


class Factorisations:
    """Counts the factors :func:`krylov.incomplete_lu` builds, their solves
    and the applications the refresh schedule records."""

    def __init__(self, monkeypatch):
        self.built = 0
        self.applications = 0
        self.recorded = 0
        original = krylov.incomplete_lu
        solved = RefreshSchedule.solved

        def counted(matrix, *args, **kwargs):
            self.built += 1
            return CountedFactor(original(matrix, *args, **kwargs), self)

        def recorded(schedule, applications):
            self.recorded += applications
            solved(schedule, applications)

        monkeypatch.setattr(krylov, "incomplete_lu", counted)
        monkeypatch.setattr(RefreshSchedule, "solved", recorded)


class CountedFactor:
    def __init__(self, factor, counts: Factorisations):
        self._factor = factor
        self._counts = counts
        self.nnz = factor.nnz

    def solve(self, rhs):
        self._counts.applications += 1
        return self._factor.solve(rhs)


def test_refreshed_chain_needs_fewer_applications_and_stays_exact(
    figure7_chain, monkeypatch
):
    cases, engine, rate_vectors = figure7_chain
    counts = Factorisations(monkeypatch)
    graph = engine.graph()
    solver = ReusableSolver(engine.template())
    stalest = []  # the last solve on each set of factors
    previous = None
    for position, (case, rates) in enumerate(zip(cases, rate_vectors)):
        scenario = graph.with_rate_vector(rates)
        generator = generator_matrix(scenario)
        factored = counts.built
        pi = solver.solve(
            scenario.edge_rates, lambda: generator, remaining=len(cases) - position
        )
        assert not solver.last_solve_used_fallback
        if counts.built > factored and previous is not None:
            stalest.append(previous)
        previous = (case, scenario, generator, pi)
        residual = np.abs(generator.T @ pi).max()
        assert residual / np.max(-generator.diagonal()) <= RESIDUAL_TOLERANCE
    stalest.append(previous)
    assert counts.built >= 2
    assert counts.applications / len(cases) < MAX_MEAN_APPLICATIONS
    # Every factor solve is one of GMRES's own applications: scipy is not
    # left to probe the operator for its dtype.
    assert counts.applications == counts.recorded
    # The direct solve (0.5 s each here) checks the stalest factors' vectors.
    for case, scenario, generator, pi in stalest:
        (measure,) = case.measures
        exact = solvers.steady_state(generator, method="direct")
        availability = SteadyStateSolution(scenario, pi).measure(measure)
        expected = SteadyStateSolution(scenario, exact).measure(measure)
        assert abs(availability - expected) <= AVAILABILITY_TOLERANCE


def test_chunked_chain_matches_the_in_ram_chain_bitwise(
    figure7_chain, monkeypatch, tmp_path
):
    cases, _, rate_vectors = figure7_chain
    net = cases[0].net
    write_chunked_graph(net, tmp_path / "graph", chunk_size=512)
    chunked = ChunkedGraph.open(tmp_path / "graph", CompiledNet(net))
    assert len(chunked.chunks) > 1
    counts = Factorisations(monkeypatch)
    # The same states in the same order, solved in RAM.
    materialized = chunked.materialize()
    in_ram = ReusableSolver(ScenarioBatchEngine(materialized).template())
    expected = []
    for position, rates in enumerate(rate_vectors):
        expected.append(
            in_ram.solve(
                materialized.with_rate_vector(rates).edge_rates,
                lambda: None,
                remaining=len(rate_vectors) - position,
            )
        )
        assert not in_ram.last_solve_used_fallback
    in_ram_factorisations = counts.built
    assert in_ram_factorisations >= 2
    solver = MatrixFreeSolver(chunked)
    for position, rates in enumerate(rate_vectors):
        pi = solver.solve(rates, remaining=len(rate_vectors) - position)
        assert np.array_equal(pi, expected[position])
    assert counts.built == 2 * in_ram_factorisations
    assert counts.applications == counts.recorded
