"""Tests for two-data-center scenarios evaluated through ``evaluate_grid``.

Every case-study entry point evaluates its scenarios with
:func:`repro.casestudy.evaluate_grid`; here the scenarios pin one PM per data
center so the whole module runs in a few seconds while still covering the
re-rating of one shared structure.  The full two-PM configuration is
exercised by the benchmark suite.
"""

import pytest

from repro.casestudy import evaluate_grid, scenario_case
from repro.core import CaseStudyParameters, DistributedScenario
from repro.core.scenarios import homogeneous_mesh_scenario
from repro.engine import ScenarioGridOrchestrator
from repro.exceptions import ConfigurationError
from repro.network import BRASILIA, RIO_DE_JANEIRO, TOKYO
from repro.spn import CompiledNet

PARAMETERS = CaseStudyParameters(required_running_vms=1)


def scenario(second=BRASILIA, alpha=0.35, years=100.0, machines=1):
    return DistributedScenario(
        RIO_DE_JANEIRO,
        second,
        alpha=alpha,
        disaster_mean_time_years=years,
        machines_per_datacenter=machines,
    )


def delays(target):
    """Mean times (hours) of the transitions a scenario's location sets."""
    rates = scenario_case(target, parameters=PARAMETERS).full_rates()
    names = ("DC_1_F", "DC_2_F", "TRE_12", "TRE_21", "TBE_12", "TBE_21")
    return {name: 1.0 / rates[name] for name in names}


def availabilities(*targets, **options):
    outcome = evaluate_grid(list(targets), PARAMETERS, **options)
    return [row.value("availability") for row in outcome.results]


class TestScenarioDelays:
    def test_delay_mapping_covers_disasters_and_migrations(self):
        mapped = delays(scenario(years=200.0))
        assert mapped["DC_1_F"] == pytest.approx(200.0 * 8760.0)
        assert mapped["DC_2_F"] == pytest.approx(200.0 * 8760.0)
        assert mapped["TRE_12"] == pytest.approx(mapped["TRE_21"])

    def test_longer_distance_means_longer_migration_delay(self):
        near = delays(scenario(second=BRASILIA))
        far = delays(scenario(second=TOKYO))
        assert far["TRE_12"] > near["TRE_12"]

    def test_higher_alpha_means_shorter_migration_delay(self):
        slow = delays(scenario(alpha=0.35))
        fast = delays(scenario(alpha=0.45))
        assert fast["TRE_12"] < slow["TRE_12"]


class TestEvaluation:
    def test_graph_is_generated_once_and_reused(self):
        outcome = evaluate_grid(
            [scenario(), scenario(alpha=0.45), scenario(second=TOKYO)],
            PARAMETERS,
            use_cache=False,
        )
        (group,) = outcome.groups
        assert group.cases == 3
        assert group.generate_attempts == 1

    def test_evaluation_matches_direct_model_solution(self):
        target = scenario(second=BRASILIA, alpha=0.40, years=200.0)
        (via_grid,) = availabilities(target)
        direct = target.build_model(PARAMETERS).availability()
        assert via_grid == pytest.approx(direct.availability, rel=1e-9)

    def test_symmetric_lumping_matches_full_graph(self):
        # Two cities with one PM each do not lump, so both sides would solve
        # the same chain; two identical data centers are exchangeable.
        target = homogeneous_mesh_scenario(2, machines_per_datacenter=1)
        assert scenario_case(target, parameters=PARAMETERS).symmetry is not None
        (lumped,) = availabilities(target, symmetry_reduction=True)
        (full,) = availabilities(target, symmetry_reduction=False)
        assert lumped == pytest.approx(full, rel=1e-9)

    def test_monotonicity_in_distance(self):
        near, far = availabilities(scenario(second=BRASILIA), scenario(second=TOKYO))
        assert far < near

    def test_monotonicity_in_disaster_mean_time(self):
        frequent, rare = availabilities(scenario(years=100.0), scenario(years=300.0))
        assert rare > frequent

    def test_evaluate_many(self):
        outcome = evaluate_grid([scenario(), scenario(alpha=0.45)], PARAMETERS)
        assert len(outcome.results) == 2
        (group,) = outcome.groups
        assert all(
            row.number_of_states == group.number_of_states
            for row in outcome.results
        )

    def test_invalid_disaster_mean_time_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_grid([scenario(years=-1.0)], PARAMETERS)


class TestMachineCounts:
    """A scenario's machine count shapes its net, so scenarios with different
    counts never share a structure group (and so never one state space)."""

    @staticmethod
    def group_of(target):
        case = scenario_case(target, parameters=PARAMETERS)
        return ScenarioGridOrchestrator().group_key(
            CompiledNet(case.net), case.symmetry
        )

    def test_each_machine_count_gets_its_own_structure(self):
        assert self.group_of(scenario(machines=1)) != self.group_of(
            scenario(machines=2)
        )

    def test_unpinned_scenario_has_two_machines(self):
        unpinned = DistributedScenario(RIO_DE_JANEIRO, BRASILIA)
        assert self.group_of(unpinned) == self.group_of(scenario(machines=2))
        assert scenario_case(unpinned).metadata["machines"] == 2
