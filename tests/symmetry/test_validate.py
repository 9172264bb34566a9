"""Fail-fast validators: stale specs, asymmetric measures/rates."""

import pytest

from repro.exceptions import ConfigurationError, ModelError
from repro.spn.reachability import generate_tangible_reachability_graph
from repro.spn.rewards import (
    ExpectedTokensMeasure,
    ProbabilityMeasure,
    ThroughputMeasure,
)
from repro.symmetry import (
    validate_measure_symmetry,
    validate_rate_symmetry,
    validate_spec_for_net,
)
from repro.symmetry.validate import measure_is_symmetric


class TestCanonicalizerValidation:
    def test_stale_spec_canonicalizer_rejected_by_generator(
        self, mesh2_model, mesh3_model
    ):
        # Built for the 2-DC net, offered to the 3-DC net: the place counts
        # differ, so generation must refuse instead of lumping wrongly.
        stale = mesh2_model.symmetry_spec()
        with pytest.raises(ModelError, match="different net"):
            generate_tangible_reachability_graph(
                mesh3_model.build(), max_states=10_000, symmetry=stale
            )

    def test_matching_spec_canonicalizer_accepted(self, mesh2_model):
        graph = generate_tangible_reachability_graph(
            mesh2_model.build(),
            max_states=10_000,
            symmetry=mesh2_model.symmetry_spec(),
        )
        assert graph.number_of_states > 0

    def test_none_passes(self):
        validate_spec_for_net(None, 5, "net")


class TestMeasureSymmetry:
    def test_symmetric_availability_accepted(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        net = mesh3_model.build()
        validate_measure_symmetry(
            (mesh3_model.availability_measure(),), spec, net.place_names
        )

    def test_per_dc_probability_rejected(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        net = mesh3_model.build()
        measure = ProbabilityMeasure("dc1_vm_up", "#VM_UP_1 >= 1")
        with pytest.raises(ConfigurationError, match="not invariant"):
            validate_measure_symmetry((measure,), spec, net.place_names)

    def test_per_dc_expected_tokens_rejected(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        net = mesh3_model.build()
        measure = ExpectedTokensMeasure("dc1_pool", "#FailedVMS_1")
        with pytest.raises(ConfigurationError, match="not invariant"):
            validate_measure_symmetry((measure,), spec, net.place_names)

    def test_throughput_inside_orbit_rejected(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        net = mesh3_model.build()
        measure = ThroughputMeasure("dc1_disasters", "DC_1_F")
        with pytest.raises(ConfigurationError, match="exchangeable orbit"):
            validate_measure_symmetry((measure,), spec, net.place_names)

    def test_throughput_outside_orbit_accepted(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        net = mesh3_model.build()
        validate_measure_symmetry(
            (ThroughputMeasure("backup_failures", "BKP_F"),),
            spec,
            net.place_names,
        )

    def test_probe_detects_symmetric_total(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        net = mesh3_model.build()
        index = {name: i for i, name in enumerate(net.place_names)}
        total = ProbabilityMeasure(
            "any_pool", "(#FailedVMS_1 + #FailedVMS_2 + #FailedVMS_3) >= 1"
        )
        assert measure_is_symmetric(total.compiled(index), spec)


class TestRateSymmetry:
    def test_model_rates_pass_their_own_spec(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        rates = {
            t.name: float(t.rate)
            for t in mesh3_model.build().transitions
            if not t.immediate
        }
        validate_rate_symmetry(rates, spec)

    def test_broken_profile_rate_rejected(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        rates = {
            t.name: float(t.rate)
            for t in mesh3_model.build().transitions
            if not t.immediate
        }
        rates["DC_2_F"] = rates["DC_2_F"] * 3.0
        with pytest.raises(ConfigurationError, match="orbit representative"):
            validate_rate_symmetry(rates, spec)

    def test_broken_pair_rate_rejected(self, mesh3_model):
        spec = mesh3_model.symmetry_spec()
        rates = {
            t.name: float(t.rate)
            for t in mesh3_model.build().transitions
            if not t.immediate
        }
        rates["TRE_12"] = rates["TRE_12"] * 2.0
        with pytest.raises(ConfigurationError):
            validate_rate_symmetry(rates, spec)
