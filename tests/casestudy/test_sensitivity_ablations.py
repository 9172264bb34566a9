"""Tests for the sensitivity and ablation experiments."""

import pytest

from repro.casestudy import AblationStudy, SensitivityAnalysis
from repro.casestudy.sensitivity import COMPONENT_NAMES, default_model_factory
from repro.core import CaseStudyParameters, CloudSystemModel, single_datacenter_spec
from repro.exceptions import ConfigurationError


def small_model_factory(parameters):
    """Two machines in one data center: small state space for fast tests."""
    return CloudSystemModel(
        spec=single_datacenter_spec(
            machines=2,
            vms_per_machine=parameters.vms_per_physical_machine,
            required_running_vms=parameters.required_running_vms,
        ),
        parameters=parameters,
    )


class TestSensitivityAnalysis:
    def test_improving_mttf_never_hurts(self):
        analysis = SensitivityAnalysis(
            model_factory=small_model_factory,
            factor=2.0,
            components=["physical_machine", "operating_system", "virtual_machine"],
        )
        for entry in analysis.run():
            assert entry.availability_delta >= -1e-12

    def test_degrading_mttf_never_helps(self):
        analysis = SensitivityAnalysis(
            model_factory=small_model_factory,
            factor=0.5,
            components=["physical_machine", "switch"],
        )
        for entry in analysis.run():
            assert entry.availability_delta <= 1e-12

    def test_entries_sorted_by_impact(self):
        analysis = SensitivityAnalysis(
            model_factory=small_model_factory,
            components=["physical_machine", "router", "nas"],
        )
        entries = analysis.run()
        impacts = [abs(entry.availability_delta) for entry in entries]
        assert impacts == sorted(impacts, reverse=True)

    def test_network_components_matter_less_than_machines(self):
        analysis = SensitivityAnalysis(
            model_factory=small_model_factory,
            components=["physical_machine", "router"],
        )
        entries = {entry.component: entry for entry in analysis.run()}
        assert abs(entries["physical_machine"].availability_delta) > abs(
            entries["router"].availability_delta
        )

    def test_mttr_perturbation_direction(self):
        analysis = SensitivityAnalysis(
            model_factory=small_model_factory,
            components=["physical_machine"],
            perturb="mttr",
            factor=2.0,
        )
        (entry,) = analysis.run()
        assert entry.availability_delta < 0.0
        assert entry.parameter == "mttr"

    def test_default_factory_uses_four_machine_site(self):
        model = default_model_factory(CaseStudyParameters())
        assert len(model.spec.physical_machines) == 4

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            SensitivityAnalysis(factor=1.0)
        with pytest.raises(ConfigurationError):
            SensitivityAnalysis(components=["gpu"])
        with pytest.raises(ConfigurationError):
            SensitivityAnalysis(perturb="cost")

    def test_nines_delta_consistent_with_availability_delta(self):
        analysis = SensitivityAnalysis(
            model_factory=small_model_factory, components=["physical_machine"]
        )
        (entry,) = analysis.run()
        assert (entry.nines_delta > 0) == (entry.availability_delta > 0)


class TestAblationStudy:
    @pytest.fixture(scope="class")
    def suite(self):
        return {result.name: result for result in AblationStudy().run_default_suite()}

    def availability(self, suite, name):
        return suite[name].availability.availability

    def test_reference_configuration(self, suite):
        assert self.availability(suite, "reference") > 0.999

    def test_removing_backup_server_reduces_availability(self, suite):
        assert self.availability(suite, "no_backup_server") <= self.availability(
            suite, "reference"
        )

    def test_warm_pool_improves_availability(self, suite):
        assert self.availability(suite, "warm_pool_1") >= self.availability(
            suite, "reference"
        )

    def test_stricter_threshold_reduces_availability(self, suite):
        assert self.availability(suite, "threshold_k2") < self.availability(
            suite, "reference"
        )

    def test_slower_vm_start_reduces_availability(self, suite):
        fast = self.availability(suite, "vm_start_5min")
        slow = self.availability(suite, "vm_start_60min")
        assert slow <= fast
        # The paper's five minutes is the reference's own start time.
        assert fast == self.availability(suite, "reference")

    def test_default_suite_contains_reference(self, suite):
        assert "reference" in suite
        assert len(suite) >= 4
