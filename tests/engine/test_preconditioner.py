"""Size and accuracy of the engine's incomplete-LU preconditioner.

One :class:`~repro.engine.krylov.ReusableSolver` is chained along Figure 7's
disaster-time axis on two case-study chains: the reduced two-data-center
chain (3,048 states) and the DC+PM-lumped four-data-center mesh (1,430
states).  The factors must stay a small multiple of the system (a complete
LU holds over 30x its nonzeros here), while every stationary vector still
matches the sparse direct solve and leaves a negligible balance residual.
A failed block factorisation on the chunked path raises a typed error.
"""

import numpy as np
import pytest

from repro.casestudy.grid import scenario_case
from repro.core import CaseStudyParameters
from repro.core.scenarios import (
    CITY_PAIRS,
    DistributedScenario,
    homogeneous_mesh_scenario,
)
from repro.engine import ReusableSolver, ScenarioBatchEngine
from repro.engine import krylov
from repro.engine.krylov import MatrixFreeSolver
from repro.exceptions import AnalysisError
from repro.markov import solvers
from repro.spn.analysis import SteadyStateSolution
from repro.spn.ctmc_export import generator_matrix
from repro.spn.enabling import CompiledNet
from repro.spn.parametric import rate_vector_with_overrides
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
    first = cases[0]
    canonicalize = first.canonicalizer.build() if first.canonicalizer else None
    engine = ScenarioBatchEngine(first.net, canonicalize=canonicalize)
    graph = engine.graph()
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


def test_failed_block_factorisation_raises(tmp_path, monkeypatch):
    net = machine_repair(6)
    write_chunked_graph(net, tmp_path / "graph", max_states=10_000, chunk_size=2)
    graph = ChunkedGraph.open(tmp_path / "graph", CompiledNet(net))
    assert len(graph.chunks) > 1

    def singular(matrix, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(krylov.sparse_linalg, "spilu", singular)
    monkeypatch.setattr(krylov, "DEFAULT_SUPERBLOCK_ROWS", 3)
    with pytest.raises(AnalysisError, match="superblock"):
        MatrixFreeSolver(graph).solve()
