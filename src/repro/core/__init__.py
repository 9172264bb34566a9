"""The paper's contribution: disaster-tolerant cloud dependability models."""

from repro.core.cloud_model import CloudSystemModel
from repro.core.components import (
    availability_expression,
    build_simple_component,
    down_place,
    up_place,
)
from repro.core.datacenter import (
    CloudSystemSpec,
    DataCenterSpec,
    PhysicalMachineSpec,
    multi_datacenter_spec,
    single_datacenter_spec,
    two_datacenter_spec,
)
from repro.core.hierarchical import (
    HierarchicalParameters,
    build_nas_net_rbd,
    build_os_pm_rbd,
)
from repro.core.parameters import (
    ALPHA_VALUES,
    CaseStudyParameters,
    ComponentParameters,
    DEFAULT_PARAMETERS,
    DISASTER_MEAN_TIME_YEARS,
    DisasterParameters,
    FailureRepairPair,
)
from repro.core.scenarios import (
    BACKUP_LOCATION,
    BASELINE_ALPHA,
    BASELINE_DISASTER_YEARS,
    CITY_PAIRS,
    DistributedScenario,
    MultiDataCenterScenario,
    SingleDataCenterScenario,
    baseline_distributed_scenarios,
    single_datacenter_baselines,
)
from repro.core.transmission import (
    TOPOLOGIES,
    TransmissionParameters,
    build_transmission_component,
    build_transmission_network,
    topology_pairs,
)
from repro.core.vm_behavior import (
    VmBehaviorParameters,
    build_vm_behavior,
    failed_pool_place,
    vm_up_place,
)

__all__ = [
    "CloudSystemModel",
    "availability_expression",
    "build_simple_component",
    "down_place",
    "up_place",
    "CloudSystemSpec",
    "DataCenterSpec",
    "PhysicalMachineSpec",
    "multi_datacenter_spec",
    "single_datacenter_spec",
    "two_datacenter_spec",
    "HierarchicalParameters",
    "build_nas_net_rbd",
    "build_os_pm_rbd",
    "ALPHA_VALUES",
    "CaseStudyParameters",
    "ComponentParameters",
    "DEFAULT_PARAMETERS",
    "DISASTER_MEAN_TIME_YEARS",
    "DisasterParameters",
    "FailureRepairPair",
    "BACKUP_LOCATION",
    "BASELINE_ALPHA",
    "BASELINE_DISASTER_YEARS",
    "CITY_PAIRS",
    "DistributedScenario",
    "MultiDataCenterScenario",
    "SingleDataCenterScenario",
    "baseline_distributed_scenarios",
    "single_datacenter_baselines",
    "TOPOLOGIES",
    "TransmissionParameters",
    "build_transmission_component",
    "build_transmission_network",
    "topology_pairs",
    "VmBehaviorParameters",
    "build_vm_behavior",
    "failed_pool_place",
    "vm_up_place",
]
