"""End-to-end exactness and grid integration of the symmetry machinery.

* lumped vs unlumped availability / expected running VMs agree to < 1e-12
  on N = 2 and N = 3 mixed grids (heterogeneous data centers stay
  unlumped at the DC level);
* grid cases differing only by a permutation of exchangeable DC parameter
  blocks collapse to one structure fingerprint and dedupe to one solve;
* the ``symmetry_reduction`` knobs share one library-wide default;
* group reports carry lumping provenance.
"""

from dataclasses import replace

import pytest

from repro.casestudy.grid import evaluate_grid, scenario_case
from repro.core.scenarios import MultiDataCenterScenario, homogeneous_mesh_scenario
from repro.core.vm_behavior import vm_up_place
from repro.engine import ScenarioBatchEngine, ScenarioSpec
from repro.engine.grid import ScenarioGridOrchestrator
from repro.exceptions import ConfigurationError
from repro.network.geo import NEW_YORK, RIO_DE_JANEIRO, TOKYO
from repro.spn.reachability import generate_tangible_reachability_graph
from repro.spn.rewards import ExpectedTokensMeasure

from tests.symmetry.conftest import TINY

TOLERANCE = 1e-12


def expected_vms_measure(model):
    total = " + ".join(
        f"#{vm_up_place(machine.index)}"
        for machine in model.spec.physical_machines
    )
    return ExpectedTokensMeasure("running_vms", total)


def mixed_grid_scenarios(datacenters):
    """One homogeneous mesh + one heterogeneous deployment of size N."""
    homogeneous = homogeneous_mesh_scenario(
        datacenters,
        machines_per_datacenter=1,
        capacity_aware_migration=True,
    )
    heterogeneous = MultiDataCenterScenario(
        locations=(RIO_DE_JANEIRO, TOKYO, NEW_YORK)[:datacenters],
        machines_per_datacenter=1,
        capacity_aware_migration=True,
    )
    return [homogeneous, heterogeneous]


class TestLumpedUnlumpedExactness:
    @pytest.mark.parametrize("datacenters", [2, 3])
    def test_mixed_grid_measures_bit_accurate(self, datacenters):
        scenarios = mixed_grid_scenarios(datacenters)
        cases = {}
        for symmetry in (True, False):
            grid_cases = []
            for scenario in scenarios:
                model = scenario.build_model(TINY)
                case = scenario_case(
                    scenario, parameters=TINY, symmetry_reduction=symmetry
                )
                grid_cases.append(
                    replace(
                        case,
                        measures=case.measures + (expected_vms_measure(model),),
                    )
                )
            outcome = ScenarioGridOrchestrator(cache=None).run(grid_cases)
            assert not outcome.partial
            cases[symmetry] = outcome
        lumped, unlumped = cases[True], cases[False]
        for row_l, row_u in zip(lumped.results, unlumped.results):
            assert row_l.name == row_u.name
            for measure in ("availability", "running_vms"):
                delta = abs(row_l.measures[measure] - row_u.measures[measure])
                assert delta < TOLERANCE, (row_l.name, measure, delta)
        # the homogeneous case actually lumped; its report says so
        homogeneous_group = lumped.results[0].group
        report = next(g for g in lumped.groups if g.key == homogeneous_group)
        assert report.lumped and report.symmetry == "dc+pm"
        assert report.symmetry_group_order >= 2
        assert report.states_before_estimate >= report.number_of_states
        unlumped_states = unlumped.results[0].number_of_states
        assert lumped.results[0].number_of_states < unlumped_states
        # heterogeneous DCs stay unlumped at the DC level (machines=1 →
        # no PM orbits either, so no symmetry spec at all)
        heterogeneous_group = lumped.results[1].group
        report = next(g for g in lumped.groups if g.key == heterogeneous_group)
        assert not report.lumped
        assert (
            lumped.results[1].number_of_states
            == unlumped.results[1].number_of_states
        )


class TestPermutedParameterBlockDedupe:
    def scenarios(self):
        # Same three cities, data centers 1 and 2 swapped: the rate vectors
        # differ (TRE_13 reads Rio->NY vs Tokyo->NY) but only by the
        # permutation of the two exchangeable parameter blocks.
        return [
            MultiDataCenterScenario(
                locations=(RIO_DE_JANEIRO, TOKYO, NEW_YORK),
                machines_per_datacenter=1,
                capacity_aware_migration=True,
            ),
            MultiDataCenterScenario(
                locations=(TOKYO, RIO_DE_JANEIRO, NEW_YORK),
                machines_per_datacenter=1,
                capacity_aware_migration=True,
            ),
        ]

    def test_permuted_blocks_one_fingerprint_one_solve(self):
        outcome = evaluate_grid(self.scenarios(), parameters=TINY, use_cache=False)
        assert not outcome.partial
        first, second = outcome.results
        # one structure fingerprint...
        assert first.group == second.group
        # ...and one stationary solve shared through the symmetry-aware
        # rate digest
        assert outcome.deduped_cases == 1
        assert {first.solve_source, second.solve_source} == {"solved", "deduped"}
        assert first.measures["availability"] == second.measures["availability"]
        # Per-structure serial oracle: one engine, both rate points (no
        # symmetry spec: heterogeneous one-PM data centers do not lump).
        cases = [scenario_case(s, parameters=TINY) for s in self.scenarios()]
        assert cases[0].symmetry is None
        engine = ScenarioBatchEngine(generate_tangible_reachability_graph(cases[0].net))
        oracle = engine.run(
            [ScenarioSpec(name=case.name, rates=case.full_rates()) for case in cases],
            list(cases[0].measures),
        )
        for row, reference in zip(outcome.results, oracle):
            delta = row.measures["availability"] - reference.measures["availability"]
            assert abs(delta) < TOLERANCE

    def test_rate_vectors_genuinely_differ(self):
        a, b = [
            scenario_case(s, parameters=TINY).full_rates()
            for s in self.scenarios()
        ]
        assert a != b  # the dedupe is not the trivial bit-identical one

    def test_without_symmetry_no_dedupe(self):
        outcome = evaluate_grid(
            self.scenarios(),
            parameters=TINY,
            use_cache=False,
            symmetry_reduction=False,
        )
        assert not outcome.partial
        assert outcome.deduped_cases == 0


class TestGridMeasureValidation:
    def test_per_dc_measure_on_lumped_grid_case_raises(self):
        scenario = homogeneous_mesh_scenario(
            3, machines_per_datacenter=1, capacity_aware_migration=True
        )
        case = scenario_case(scenario, parameters=TINY)
        assert case.symmetry is not None
        broken = replace(
            case,
            measures=(ExpectedTokensMeasure("dc1_pool", "#FailedVMS_1"),),
        )
        with pytest.raises(ConfigurationError, match="not invariant"):
            ScenarioGridOrchestrator(cache=None).run([broken])


class TestDefaultUnification:
    def test_library_default_is_on(self):
        from repro.symmetry import (
            DEFAULT_SYMMETRY_REDUCTION,
            resolve_symmetry_reduction,
        )

        assert DEFAULT_SYMMETRY_REDUCTION is True
        assert resolve_symmetry_reduction(None) is True
        assert resolve_symmetry_reduction(False) is False

    def test_solve_default_matches_explicit_on(self, mesh2_model):
        default = mesh2_model.solve(max_states=10_000)
        explicit = mesh2_model.solve(max_states=10_000, symmetry_reduction=True)
        off = mesh2_model.solve(max_states=10_000, symmetry_reduction=False)
        assert default.number_of_states == explicit.number_of_states
        assert default.number_of_states < off.number_of_states

    def test_grid_default_is_the_library_default(self):
        scenario = homogeneous_mesh_scenario(2, machines_per_datacenter=1)
        default = evaluate_grid([scenario], parameters=TINY, use_cache=False)
        off = evaluate_grid(
            [scenario], parameters=TINY, use_cache=False, symmetry_reduction=False
        )
        assert default.groups[0].lumped and not off.groups[0].lumped
        assert default.groups[0].number_of_states < off.groups[0].number_of_states
        # The lumped chain is exact: the same availability as the full one.
        (lumped,), (full,) = default.results, off.results
        delta = lumped.value("availability") - full.value("availability")
        assert abs(delta) < TOLERANCE

    def test_scenario_case_default_attaches_canonicalizer(self):
        scenario = homogeneous_mesh_scenario(2, machines_per_datacenter=1)
        case = scenario_case(scenario, parameters=TINY)
        assert case.symmetry is not None
        assert case.rate_symmetry is not None
        off = scenario_case(scenario, parameters=TINY, symmetry_reduction=False)
        assert off.symmetry is None
        assert off.rate_symmetry is None
