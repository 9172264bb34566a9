"""Net-free rates and structure keys of ``CloudSystemModel``.

A case's timed rates come from ``timed_rates()`` while its net may be another
model's of the same ``structure_key()``; both are checked here against nets
the models build themselves.
"""

from dataclasses import replace

import pytest

from repro.core import CaseStudyParameters
from repro.core.parameters import ComponentParameters, FailureRepairPair
from repro.core.scenarios import (
    DistributedScenario,
    MultiDataCenterScenario,
    SingleDataCenterScenario,
    homogeneous_mesh_scenario,
)
from repro.engine.cache import structure_fingerprint
from repro.exceptions import ModelError
from repro.network import BRASILIA, NEW_YORK, RECIFE, RIO_DE_JANEIRO, TOKYO
from repro.spn import CompiledNet

REDUCED = CaseStudyParameters(required_running_vms=1)
ONE_VM = CaseStudyParameters(required_running_vms=1, vms_per_physical_machine=1)
FOUR_CITIES = (RIO_DE_JANEIRO, BRASILIA, TOKYO, RECIFE)


def model(scenario, parameters=REDUCED):
    if isinstance(scenario, SingleDataCenterScenario):
        return scenario.build_model()
    return scenario.build_model(parameters)


SCENARIOS = {
    "single site": SingleDataCenterScenario(
        machines=2, label="two", disaster_mean_time_years=150.0
    ),
    "two DCs, 1 PM": DistributedScenario(
        RIO_DE_JANEIRO, TOKYO, alpha=0.4, machines_per_datacenter=1
    ),
    "two DCs, 2 PMs": DistributedScenario(
        RIO_DE_JANEIRO, BRASILIA, disaster_mean_time_years=300.0
    ),
    "mesh": MultiDataCenterScenario(
        locations=FOUR_CITIES, machines_per_datacenter=1, alpha=0.45
    ),
    "ring": MultiDataCenterScenario(
        locations=FOUR_CITIES, machines_per_datacenter=1, topology="ring"
    ),
    "mesh without backup": MultiDataCenterScenario(
        locations=FOUR_CITIES[:3],
        machines_per_datacenter=1,
        has_backup_server=False,
        backup=None,
    ),
    "ring without backup": MultiDataCenterScenario(
        locations=FOUR_CITIES,
        machines_per_datacenter=1,
        topology="ring",
        has_backup_server=False,
        backup=None,
    ),
    "two DCs without backup": MultiDataCenterScenario(
        locations=(RIO_DE_JANEIRO, NEW_YORK),
        machines_per_datacenter=1,
        has_backup_server=False,
        backup=None,
    ),
    "uniform transfer hours": homogeneous_mesh_scenario(
        3, machines_per_datacenter=1, transfer_hours=0.5
    ),
    "uniform transfer and backup hours": homogeneous_mesh_scenario(
        3, machines_per_datacenter=1, transfer_hours=0.5, backup_hours=2.0
    ),
    "in-flight cap": homogeneous_mesh_scenario(
        3, machines_per_datacenter=2, max_in_flight_vms=2
    ),
    "capacity-aware migration": MultiDataCenterScenario(
        locations=FOUR_CITIES[:3], capacity_aware_migration=True
    ),
}


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_timed_rates_are_the_built_nets_rates(kind):
    scenario = SCENARIOS[kind]
    rates = model(scenario).timed_rates()
    net = model(scenario).build()
    built = [
        (transition.name, float(transition.rate).hex())
        for transition in net.transitions
        if not transition.immediate
    ]
    assert [(name, rate.hex()) for name, rate in rates.items()] == built


def test_timed_rates_refuse_a_zero_delay():
    components = replace(
        ComponentParameters(), virtual_machine=FailureRepairPair(2880.0, 0.0)
    )
    parameters = replace(REDUCED, components=components)
    with pytest.raises(ModelError, match="VM_R_1"):
        model(SCENARIOS["two DCs, 1 PM"], parameters).timed_rates()


def fingerprint(scenario, parameters=REDUCED):
    return structure_fingerprint(CompiledNet(model(scenario, parameters).build()))


class TestStructureKey:
    def test_rate_only_variants_share_key_and_structure(self):
        variants = [
            DistributedScenario(
                RIO_DE_JANEIRO, second, alpha, years, machines_per_datacenter=1
            )
            for second, alpha, years in (
                (BRASILIA, 0.35, 100.0),
                (TOKYO, 0.45, 300.0),
                (NEW_YORK, 0.4, 170.0),
            )
        ]
        # A two-location multi-DC scenario is the same deployment shape.
        variants.append(
            MultiDataCenterScenario(
                locations=(RIO_DE_JANEIRO, RECIFE), machines_per_datacenter=1
            )
        )
        keys = {model(scenario).structure_key() for scenario in variants}
        assert len(keys) == 1
        assert len({fingerprint(scenario) for scenario in variants}) == 1

    def test_single_site_disaster_time_is_a_rate(self):
        base = SCENARIOS["single site"]
        other = replace(base, disaster_mean_time_years=400.0, label="other")
        assert model(base).structure_key() == model(other).structure_key()
        assert fingerprint(base) == fingerprint(other)

    @pytest.mark.parametrize(
        "change, parameters",
        [
            ({"machines_per_datacenter": 2}, REDUCED),
            ({}, ONE_VM),
            ({"has_backup_server": False, "backup": None}, REDUCED),
            ({"topology": "ring"}, REDUCED),
            ({"minimum_operational_pms": 2}, REDUCED),
            ({"max_in_flight_vms": 1}, REDUCED),
            ({"capacity_aware_migration": True}, REDUCED),
        ],
        ids=["pms", "vms-per-pm", "backup", "topology", "l", "in-flight", "capacity"],
    )
    def test_each_structural_input_changes_key_and_structure(
        self, change, parameters
    ):
        base = MultiDataCenterScenario(
            locations=FOUR_CITIES, machines_per_datacenter=1
        )
        changed = replace(base, **change)
        assert model(base).structure_key() != model(changed, parameters).structure_key()
        assert fingerprint(base) != fingerprint(changed, parameters)

    def test_single_site_parameters_shape_the_key(self):
        def site(vms_per_pm):
            return SingleDataCenterScenario(
                machines=2,
                label=f"{vms_per_pm} VMs per PM",
                parameters=replace(REDUCED, vms_per_physical_machine=vms_per_pm),
            )

        assert model(site(1)).structure_key() != model(site(2)).structure_key()
        assert fingerprint(site(1)) != fingerprint(site(2))
