"""Tests for the case-study scenario definitions."""

import pytest

from repro.casestudy.figure7 import figure7_grid
from repro.core import (
    ALPHA_VALUES,
    BASELINE_ALPHA,
    BASELINE_DISASTER_YEARS,
    CITY_PAIRS,
    DISASTER_MEAN_TIME_YEARS,
    DistributedScenario,
    MultiDataCenterScenario,
    SingleDataCenterScenario,
    baseline_distributed_scenarios,
    single_datacenter_baselines,
)
from repro.exceptions import ConfigurationError
from repro.network import BRASILIA, RECIFE, RIO_DE_JANEIRO, SAO_PAULO, TOKYO


class TestCityPairs:
    def test_five_pairs_anchored_at_rio(self):
        assert len(CITY_PAIRS) == 5
        assert all(first is RIO_DE_JANEIRO for first, _ in CITY_PAIRS)

    def test_partners_match_section_v(self):
        partners = [second.name for _, second in CITY_PAIRS]
        assert partners == ["Brasilia", "Recife", "New York", "Calcutta", "Tokyo"]


class TestDistributedScenario:
    def test_defaults_are_the_baseline_configuration(self):
        scenario = DistributedScenario(RIO_DE_JANEIRO, BRASILIA)
        assert scenario.alpha == BASELINE_ALPHA == 0.35
        assert scenario.disaster_mean_time_years == BASELINE_DISASTER_YEARS == 100.0
        assert scenario.backup is SAO_PAULO

    def test_label_mentions_parameters(self):
        scenario = DistributedScenario(RIO_DE_JANEIRO, TOKYO, alpha=0.45, disaster_mean_time_years=300.0)
        assert "Tokyo" in scenario.label
        assert "0.45" in scenario.label
        assert "300" in scenario.label

    def test_labels_keep_axis_precision(self):
        # Labels double as unique grid case names: two distinct axis values
        # must never round onto one label.
        close = [
            DistributedScenario(RIO_DE_JANEIRO, TOKYO, alpha=alpha).label
            for alpha in (0.351, 0.352)
        ]
        assert close[0] != close[1]
        years = [
            DistributedScenario(
                RIO_DE_JANEIRO, TOKYO, disaster_mean_time_years=y
            ).label
            for y in (99.6, 100.0)
        ]
        assert years[0] != years[1]

    def test_build_model_uses_case_study_configuration(self):
        model = DistributedScenario(RIO_DE_JANEIRO, BRASILIA).build_model()
        assert model.spec.total_initial_vms == 4
        assert model.spec.required_running_vms == 2
        assert len(model.spec.physical_machines) == 4
        assert model.alpha == 0.35

    def test_build_model_applies_disaster_mean_time(self):
        model = DistributedScenario(
            RIO_DE_JANEIRO, BRASILIA, disaster_mean_time_years=200.0
        ).build_model()
        assert model.parameters.disaster.mean_time_to_disaster.years == pytest.approx(200.0)


class TestScenarioMachineCount:
    def test_default_inherits_and_builds_the_paper_configuration(self):
        scenario = DistributedScenario(RIO_DE_JANEIRO, BRASILIA)
        assert scenario.machines_per_datacenter is None
        assert len(scenario.build_model().spec.physical_machines) == 4

    def test_explicit_machine_count_shapes_the_model(self):
        scenario = DistributedScenario(
            RIO_DE_JANEIRO, BRASILIA, machines_per_datacenter=1
        )
        model = scenario.build_model()
        assert len(model.spec.physical_machines) == 2
        assert "machines=1" in scenario.label

    def test_invalid_machine_count_rejected(self):
        with pytest.raises(ConfigurationError):
            DistributedScenario(RIO_DE_JANEIRO, BRASILIA, machines_per_datacenter=0)


@pytest.mark.parametrize("years", [float("nan"), float("inf"), 0.0, -1.0])
@pytest.mark.parametrize(
    "make",
    [
        lambda years: DistributedScenario(
            RIO_DE_JANEIRO, BRASILIA, disaster_mean_time_years=years
        ),
        lambda years: SingleDataCenterScenario(
            machines=1, label="one", disaster_mean_time_years=years
        ),
        lambda years: MultiDataCenterScenario(
            locations=(RIO_DE_JANEIRO, BRASILIA, TOKYO),
            disaster_mean_time_years=years,
        ),
    ],
    ids=["distributed", "single", "multi"],
)
def test_disaster_mean_time_must_be_positive_and_finite(make, years):
    # NaN would otherwise evaluate to the no-disaster availability and an
    # infinite mean time would fail only at the solve, as a zero rate.
    with pytest.raises(ConfigurationError, match="disaster mean time"):
        make(years)


class TestSingleDataCenterScenario:
    def test_disaster_mean_time_override(self):
        scenario = SingleDataCenterScenario(
            machines=2, label="two", disaster_mean_time_years=300.0
        )
        model = scenario.build_model()
        assert model.parameters.disaster.mean_time_to_disaster.years == pytest.approx(
            300.0
        )

    def test_location_defaults_to_rio(self):
        scenario = SingleDataCenterScenario(machines=1, label="one")
        assert scenario.build_model().spec.datacenters[0].location is RIO_DE_JANEIRO


class TestMultiDataCenterScenario:
    def test_three_site_model_builds_three_datacenters(self):
        scenario = MultiDataCenterScenario(
            locations=(RIO_DE_JANEIRO, BRASILIA, RECIFE), machines_per_datacenter=1
        )
        model = scenario.build_model()
        assert len(model.spec.datacenters) == 3
        assert model.spec.has_backup_server
        assert model.topology == "mesh"
        assert "Recife" in scenario.label

    def test_two_site_scenario_matches_distributed_structure(self):
        multi = MultiDataCenterScenario(
            locations=(RIO_DE_JANEIRO, BRASILIA), machines_per_datacenter=2
        ).build_model()
        classic = DistributedScenario(RIO_DE_JANEIRO, BRASILIA).build_model()
        assert multi.build().place_names == classic.build().place_names
        assert multi.build().transition_names == classic.build().transition_names

    def test_backup_ablation_removes_backup_paths(self):
        scenario = MultiDataCenterScenario(
            locations=(RIO_DE_JANEIRO, BRASILIA),
            machines_per_datacenter=1,
            has_backup_server=False,
        )
        net = scenario.build_model().build()
        assert not any(name.startswith("TB") for name in net.transition_names)
        assert "no-backup" in scenario.label

    def test_l_threshold_flows_into_model(self):
        scenario = MultiDataCenterScenario(
            locations=(RIO_DE_JANEIRO, BRASILIA),
            machines_per_datacenter=2,
            minimum_operational_pms=2,
        )
        model = scenario.build_model()
        assert model.minimum_operational_pms == 2
        assert "< 2" in model.build().transition("TRI_12").guard.to_source()

    def test_single_location_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiDataCenterScenario(locations=(RIO_DE_JANEIRO,))

    def test_backup_server_requires_location(self):
        with pytest.raises(ConfigurationError):
            MultiDataCenterScenario(
                locations=(RIO_DE_JANEIRO, BRASILIA), backup=None
            )


class TestScenarioCollections:
    def test_baseline_scenarios_one_per_pair(self):
        scenarios = baseline_distributed_scenarios()
        assert len(scenarios) == 5
        assert all(s.alpha == BASELINE_ALPHA for s in scenarios)
        assert all(s.disaster_mean_time_years == BASELINE_DISASTER_YEARS for s in scenarios)

    def test_figure7_grid_has_45_scenarios(self):
        scenarios = figure7_grid()
        assert len(scenarios) == len(CITY_PAIRS) * len(ALPHA_VALUES) * len(DISASTER_MEAN_TIME_YEARS)
        assert len({s.label for s in scenarios}) == 45

    def test_single_site_baselines(self):
        baselines = single_datacenter_baselines()
        assert [b.machines for b in baselines] == [1, 2, 4]
        assert all("machine" in b.label for b in baselines)
