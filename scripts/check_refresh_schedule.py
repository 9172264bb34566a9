"""CI check: the preconditioner refresh schedule on both sides of its trade-off.

A refresh rebuilds a chain's incomplete-LU factors when the preconditioner
applications they cost, over the solves still left, outweigh one
factorisation (:class:`repro.engine.krylov.RefreshSchedule`).  Two chains
pin both sides, at a scale the unit tests do not reach:

1. Figure 7's 45-point serial chain on the full two-data-center model
   (57,188 states: the paper's parameters with two PMs per data center).  One factorisation costs
   far more than its iterations there, so the chain must factor exactly
   once, and every stationary vector's ``‖πQ‖∞`` over the largest exit rate
   must stay at most 1e-13.
2. 84 reduced two-data-center cases (3,048 states: 2 city pairs × 3 α × 14
   disaster mean times, in ``CaseStudyGrid`` order), where the stale factors
   cost more than a rebuild: the chain must factor at least twice, and every
   availability must stay within 1e-12 of the sparse direct solve.

Factorisations are counted by wrapping
:func:`repro.engine.krylov.incomplete_lu`.  Run as
``python scripts/check_refresh_schedule.py``; the full model's graph is
generated on a cold cache (``$REPRO_CACHE_DIR``, default
``~/.cache/repro/trg``) and loaded from it afterwards.  On a 2-core
host with one BLAS thread the first chain solves in about 16 s and the
second check takes about a minute.
"""

import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

RESIDUAL_BOUND = 1e-13
AVAILABILITY_BOUND = 1e-12

#: Figure 7's 100, 200 and 300 y plus eleven of the 10-year steps between.
REDUCED_YEARS = (
    100.0, 120.0, 130.0, 140.0, 150.0, 170.0, 180.0, 190.0, 200.0,
    230.0, 240.0, 250.0, 260.0, 300.0,
)


def count_factorisations() -> list:
    """Wrap ``krylov.incomplete_lu``; the returned list grows by one per call."""
    from repro.engine import krylov

    calls = []
    original = krylov.incomplete_lu

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    krylov.incomplete_lu = counted
    return calls


def full_model_chain(calls: list) -> list[str]:
    from dataclasses import replace

    from repro.casestudy.figure7 import figure7_grid
    from repro.casestudy.grid import scenario_cases
    from repro.engine import ScenarioBatchEngine, ScenarioSpec, TRGCache
    from repro.spn.ctmc_export import generator_matrix

    cases = scenario_cases(
        [replace(scenario, machines_per_datacenter=2) for scenario in figure7_grid()]
    )
    (measure,) = cases[0].measures
    started = time.perf_counter()
    graph, _ = cases[0].graph(TRGCache())
    states = graph.number_of_states
    print(f"full model: {states} states ready in {time.perf_counter() - started:.1f} s")
    del calls[:]
    started = time.perf_counter()
    results = ScenarioBatchEngine(graph).run(
        [ScenarioSpec(name=case.name, rates=case.full_rates()) for case in cases],
        [measure],
        keep_solutions=True,
    )
    seconds = time.perf_counter() - started
    worst = 0.0
    for result in results:
        generator = generator_matrix(result.solution.graph)
        residual = np.abs(generator.T @ result.solution.probabilities).max()
        worst = max(worst, residual / np.max(-generator.diagonal()))
    print(
        f"full model: {len(results)} serial solves in {seconds:.1f} s, "
        f"{len(calls)} factorisation(s), worst residual {worst:.2e}"
    )
    problems = []
    if len(calls) != 1:
        problems.append(f"full model: {len(calls)} factorisations, expected 1")
    if not worst <= RESIDUAL_BOUND:
        problems.append(f"full model: residual {worst:.2e} above {RESIDUAL_BOUND:.0e}")
    return problems


def reduced_chain(calls: list) -> list[str]:
    from repro.casestudy.grid import CaseStudyGrid, scenario_cases
    from repro.core import CaseStudyParameters
    from repro.core.parameters import ALPHA_VALUES
    from repro.core.scenarios import CITY_PAIRS
    from repro.engine import ScenarioBatchEngine, ScenarioSpec
    from repro.markov import solvers
    from repro.spn import generate_tangible_reachability_graph
    from repro.spn.analysis import SteadyStateSolution
    from repro.spn.ctmc_export import generator_matrix

    scenarios = CaseStudyGrid(
        city_sets=CITY_PAIRS[:2],
        alphas=ALPHA_VALUES,
        disaster_years=REDUCED_YEARS,
        machines_per_datacenter=(1,),
    ).scenarios()
    cases = scenario_cases(scenarios, CaseStudyParameters(required_running_vms=1))
    (measure,) = cases[0].measures
    engine = ScenarioBatchEngine(generate_tangible_reachability_graph(cases[0].net))
    states = engine.number_of_states
    del calls[:]
    results = engine.run(
        [ScenarioSpec(name=case.name, rates=case.full_rates()) for case in cases],
        [measure],
        keep_solutions=True,
    )
    factorisations = len(calls)
    worst = 0.0
    for result in results:
        graph = result.solution.graph
        exact = solvers.steady_state(generator_matrix(graph), method="direct")
        expected = SteadyStateSolution(graph, exact).measure(measure)
        worst = max(worst, abs(result.value(measure.name) - expected))
    print(
        f"reduced model: {len(results)} serial solves on {states} states, "
        f"{factorisations} factorisation(s), worst |Δ availability| {worst:.2e}"
    )
    problems = []
    if factorisations < 2:
        problems.append(
            f"reduced model: {factorisations} factorisation(s), expected at least 2"
        )
    if not worst <= AVAILABILITY_BOUND:
        problems.append(
            f"reduced model: |Δ availability| {worst:.2e} above {AVAILABILITY_BOUND:.0e}"
        )
    return problems


def main() -> int:
    calls = count_factorisations()
    problems = full_model_chain(calls) + reduced_chain(calls)
    for problem in problems:
        print(f"FAIL: {problem}")
    if not problems:
        print("OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
