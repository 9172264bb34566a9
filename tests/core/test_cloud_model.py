"""Tests for the assembled CloudSystemModel.

The full case-study configuration (two data centers with two PMs each) has a
six-figure tangible state space and is exercised by the benchmark suite; the
unit tests here use reduced deployments (one PM per data center) that keep
the state space small while covering every structural feature: hierarchical
RBD parameters, block fusion, the availability expression, migration-time
derivation, and the monotonicity properties the paper's conclusions rely on.
"""

import pytest

from repro.core import (
    CaseStudyParameters,
    CloudSystemModel,
    CloudSystemSpec,
    ComponentParameters,
    DataCenterSpec,
    FailureRepairPair,
    HierarchicalParameters,
    single_datacenter_spec,
)
from repro.core.cloud_model import _hierarchical_parameters
from repro.exceptions import ConfigurationError
from repro.metrics import AvailabilityResult, Duration
from repro.network import BRASILIA, RIO_DE_JANEIRO, SAO_PAULO, TOKYO
from repro.network.migration import MigrationTimes
from repro.spn import validate


def small_two_dc_spec(required=1):
    """Two data centers with a single PM each (small state space)."""
    return CloudSystemSpec(
        datacenters=(
            DataCenterSpec(index=1, location=RIO_DE_JANEIRO, hot_physical_machines=1,
                           vms_per_machine=2, initial_vms_per_hot_machine=1),
            DataCenterSpec(index=2, location=BRASILIA, hot_physical_machines=1,
                           vms_per_machine=2, initial_vms_per_hot_machine=1),
        ),
        backup_location=SAO_PAULO,
        has_backup_server=True,
        required_running_vms=required,
    )


def small_model(required=1, alpha=0.35, **kwargs):
    return CloudSystemModel(spec=small_two_dc_spec(required), alpha=alpha, **kwargs)


class TestAssembly:
    def test_single_datacenter_model_structure(self):
        model = CloudSystemModel(spec=single_datacenter_spec(machines=2))
        net = model.build()
        assert "DC_1_UP" in net.place_names
        assert "NAS_NET_1_UP" in net.place_names
        assert "OSPM_1_UP" in net.place_names and "OSPM_2_UP" in net.place_names
        assert "VM_UP_1" in net.place_names
        # No transmission component or backup server for a single site.
        assert "TRI_12" not in net.transition_names
        assert "BKP_UP" not in net.place_names

    def test_distributed_model_structure(self):
        net = small_model().build()
        assert "TRI_12" in net.transition_names
        assert "TBE_21" in net.transition_names
        assert "BKP_UP" in net.place_names
        assert "FailedVMS_1" in net.place_names and "FailedVMS_2" in net.place_names

    def test_model_passes_structural_validation(self):
        assert validate(small_model().build()) == []

    def test_build_is_cached(self):
        model = small_model()
        assert model.build() is model.build()

    def test_hierarchical_parameters_exposed(self):
        model = small_model()
        assert model.hierarchical_parameters.os_pm.mttf == pytest.approx(800.0, rel=0.01)

    def test_transition_delays_use_hierarchical_equivalents(self):
        model = small_model()
        net = model.build()
        assert net.transition("OSPM_1_F").delay == pytest.approx(
            model.hierarchical_parameters.os_pm.mttf
        )
        assert net.transition("NAS_NET_1_F").delay == pytest.approx(
            model.hierarchical_parameters.nas_net.mttf
        )

    def test_disaster_parameters_flow_into_dc_components(self):
        parameters = CaseStudyParameters().with_disaster_mean_time(300.0)
        model = small_model(parameters=parameters)
        assert model.build().transition("DC_1_F").delay == pytest.approx(300.0 * 8760.0)

    def test_three_datacenters_still_require_locations(self):
        spec = CloudSystemSpec(
            datacenters=tuple(
                DataCenterSpec(index=i, hot_physical_machines=1) for i in (1, 2, 3)
            ),
            required_running_vms=1,
        )
        with pytest.raises(ConfigurationError):
            CloudSystemModel(spec=spec, alpha=0.35)

    def test_three_datacenters_build_a_transmission_network(self):
        from repro.core.datacenter import multi_datacenter_spec
        from repro.network.geo import BRASILIA, RECIFE, RIO_DE_JANEIRO, SAO_PAULO

        spec = multi_datacenter_spec(
            locations=(RIO_DE_JANEIRO, BRASILIA, RECIFE),
            backup_location=SAO_PAULO,
            machines_per_datacenter=1,
            required_running_vms=1,
        )
        model = CloudSystemModel(spec=spec, alpha=0.35)
        names = set(model.build().transition_names)
        assert {"TRI_12", "TRI_23", "TRI_31", "TBE_13", "TBE_32"} <= names
        direct, backup = model.resolved_transmission_times()
        assert len(direct) == 6 and len(backup) == 3
        assert all(hours > 0.0 for hours in direct.values())

    def test_explicit_migration_times_rejected_beyond_two_datacenters(self):
        from repro.core.datacenter import multi_datacenter_spec
        from repro.network.geo import BRASILIA, RECIFE, RIO_DE_JANEIRO, SAO_PAULO

        spec = multi_datacenter_spec(
            locations=(RIO_DE_JANEIRO, BRASILIA, RECIFE),
            backup_location=SAO_PAULO,
            machines_per_datacenter=1,
            required_running_vms=1,
        )
        times = MigrationTimes(
            datacenter_to_datacenter=Duration.from_hours(1.0),
            backup_to_first=Duration.from_hours(0.5),
            backup_to_second=Duration.from_hours(0.75),
        )
        with pytest.raises(ConfigurationError):
            CloudSystemModel(spec=spec, alpha=0.35, migration_times=times)

    def test_distributed_deployment_requires_alpha_or_times(self):
        with pytest.raises(ConfigurationError):
            CloudSystemModel(spec=small_two_dc_spec())

    def test_explicit_migration_times_bypass_geography(self):
        times = MigrationTimes(
            datacenter_to_datacenter=Duration.from_hours(1.0),
            backup_to_first=Duration.from_hours(0.5),
            backup_to_second=Duration.from_hours(0.75),
        )
        spec = CloudSystemSpec(
            datacenters=(
                DataCenterSpec(index=1, hot_physical_machines=1),
                DataCenterSpec(index=2, hot_physical_machines=1),
            ),
            has_backup_server=True,
            required_running_vms=1,
        )
        model = CloudSystemModel(spec=spec, migration_times=times)
        net = model.build()
        assert net.transition("TRE_12").delay == 1.0
        assert net.transition("TBE_21").delay == 0.5
        assert net.transition("TBE_12").delay == 0.75

    def test_models_sharing_a_component_set_evaluate_its_rbds_once(self):
        components = ComponentParameters().with_override(
            "physical_machine", FailureRepairPair(1234.5, 6.0)
        )
        parameters = CaseStudyParameters(components=components)
        misses = _hierarchical_parameters.cache_info().misses
        models = [
            small_model(alpha=alpha, parameters=parameters) for alpha in (0.35, 0.4, 0.45)
        ]
        assert _hierarchical_parameters.cache_info().misses == misses + 1
        shared = models[0].hierarchical_parameters
        assert all(model.hierarchical_parameters is shared for model in models)
        assert shared == HierarchicalParameters.from_components(components)
        assert small_model().hierarchical_parameters != shared


class TestAvailabilityExpression:
    def test_expression_sums_all_vm_up_places(self):
        model = small_model(required=1)
        assert model.availability_expression() == "(#VM_UP_1 + #VM_UP_2) >= 1"

    def test_threshold_override(self):
        model = small_model(required=1)
        assert model.availability_expression(required_running_vms=2).endswith(">= 2")

    def test_availability_measure_object(self):
        measure = small_model().availability_measure()
        assert measure.name == "availability"


class TestEvaluation:
    def test_distributed_availability_between_zero_and_one(self):
        result = small_model(required=1).availability()
        assert isinstance(result, AvailabilityResult)
        assert 0.99 < result.availability < 1.0

    def test_distributed_beats_single_site(self):
        single = CloudSystemModel(
            spec=single_datacenter_spec(machines=1, required_running_vms=1)
        ).availability()
        distributed = small_model(required=1).availability()
        assert distributed.availability > single.availability
        # The single site is disaster-limited to roughly two nines.
        assert single.nines < 2.1
        assert distributed.nines > 3.0

    def test_stricter_threshold_reduces_availability(self):
        relaxed = small_model(required=1).availability()
        strict = small_model(required=2).availability()
        assert strict.availability < relaxed.availability

    def test_expected_running_vms(self):
        model = small_model(required=1)
        expected = model.expected_running_vms()
        assert 1.9 < expected <= 2.0

    def test_availability_reuses_precomputed_solution(self):
        model = small_model(required=1)
        solution = model.solve()
        first = model.availability(solution=solution)
        second = model.availability(solution=solution)
        assert first.availability == second.availability

    def test_longer_distance_reduces_availability(self):
        near = small_model(required=1).availability()
        far_spec = CloudSystemSpec(
            datacenters=(
                DataCenterSpec(index=1, location=RIO_DE_JANEIRO, hot_physical_machines=1),
                DataCenterSpec(index=2, location=TOKYO, hot_physical_machines=1),
            ),
            backup_location=SAO_PAULO,
            has_backup_server=True,
            required_running_vms=1,
        )
        far = CloudSystemModel(spec=far_spec, alpha=0.35).availability()
        assert far.availability < near.availability

    def test_higher_alpha_improves_availability(self):
        slow = small_model(required=1, alpha=0.35).availability()
        fast = small_model(required=1, alpha=0.45).availability()
        assert fast.availability >= slow.availability

    def test_rarer_disasters_improve_availability(self):
        frequent = small_model(required=1).availability()
        rare = small_model(
            required=1, parameters=CaseStudyParameters().with_disaster_mean_time(300.0)
        ).availability()
        assert rare.availability > frequent.availability

    def test_simulation_cross_validation(self):
        model = small_model(required=1)
        analytic = model.availability()
        simulated = model.simulate_availability(horizon=200_000.0, replications=3, seed=11)
        assert simulated.value("availability") == pytest.approx(
            analytic.availability, abs=0.01
        )
