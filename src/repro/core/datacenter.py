"""Deployment specification: physical machines, data centers, cloud system.

Section III of the paper: a cloud system is made of ``d`` data centers, each
with a *hot pool* of ``n`` physical machines actively running VMs and a
*warm pool* of ``m`` physical machines that are powered on but idle; every
PM can host up to a fixed number of VMs; a backup server keeps copies of
every VM image; the system is operational while at least ``k`` VMs run.
These dataclasses describe that deployment and compute the naming scheme
shared by the SPN blocks (``OSPM_i``, ``NAS_NET_d``, ``DC_d``,
``FailedVMS_d``...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.network.geo import City


@dataclass(frozen=True)
class PhysicalMachineSpec:
    """One physical machine of a data center.

    Attributes:
        index: global 1-based index of the PM in the cloud system (used in
            place names such as ``OSPM_UP3`` / ``VM_UP3``).
        datacenter_index: 1-based index of the owning data center.
        vm_capacity: maximum number of VMs the PM can host.
        initial_vms: number of VMs running on the PM at time zero
            (``vm_capacity`` for hot-pool machines, 0 for warm-pool machines).
    """

    index: int
    datacenter_index: int
    vm_capacity: int
    initial_vms: int

    def __post_init__(self) -> None:
        if self.vm_capacity < 1:
            raise ConfigurationError(
                f"PM {self.index}: VM capacity must be at least 1, got {self.vm_capacity!r}"
            )
        if not 0 <= self.initial_vms <= self.vm_capacity:
            raise ConfigurationError(
                f"PM {self.index}: initial VMs must be between 0 and the capacity "
                f"({self.vm_capacity}), got {self.initial_vms!r}"
            )

    @property
    def name(self) -> str:
        """Component label of the PM's SIMPLE_COMPONENT (``OSPM_i``)."""
        return f"OSPM_{self.index}"

    @property
    def is_hot(self) -> bool:
        """Hot-pool machines start with at least one running VM."""
        return self.initial_vms > 0


@dataclass(frozen=True)
class DataCenterSpec:
    """One data center: location, hot pool and warm pool sizes.

    ``vms_per_machine`` is the hosting *capacity* of each PM ("up to two VMs
    per machine" in the paper); ``initial_vms_per_hot_machine`` is how many
    VMs each hot-pool machine runs at time zero (the case study's N = 4 VMs
    over four PMs corresponds to one VM per hot machine).  Warm-pool machines
    start empty.
    """

    index: int
    location: Optional[City] = None
    hot_physical_machines: int = 2
    warm_physical_machines: int = 0
    vms_per_machine: int = 2
    initial_vms_per_hot_machine: int = 1

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ConfigurationError("data-center indices are 1-based")
        if self.hot_physical_machines < 0 or self.warm_physical_machines < 0:
            raise ConfigurationError("pool sizes must be non-negative")
        if self.hot_physical_machines + self.warm_physical_machines < 1:
            raise ConfigurationError(
                f"data center {self.index} needs at least one physical machine"
            )
        if self.vms_per_machine < 1:
            raise ConfigurationError("each machine must be able to host at least one VM")
        if not 1 <= self.initial_vms_per_hot_machine <= self.vms_per_machine:
            raise ConfigurationError(
                f"data center {self.index}: hot machines must start with between 1 and "
                f"{self.vms_per_machine} VMs, got {self.initial_vms_per_hot_machine!r}"
            )

    @property
    def total_physical_machines(self) -> int:
        """``t = n + m`` in the paper's notation."""
        return self.hot_physical_machines + self.warm_physical_machines

    @property
    def name(self) -> str:
        """Component label of the disaster SIMPLE_COMPONENT (``DC_d``)."""
        return f"DC_{self.index}"

    @property
    def network_name(self) -> str:
        """Component label of the network SIMPLE_COMPONENT (``NAS_NET_d``)."""
        return f"NAS_NET_{self.index}"

    @property
    def failed_pool_place(self) -> str:
        """Shared place holding failed VM images awaiting re-instantiation."""
        return f"FailedVMS_{self.index}"


@dataclass(frozen=True)
class CloudSystemSpec:
    """A complete deployment: data centers, backup server and threshold ``k``."""

    datacenters: tuple[DataCenterSpec, ...]
    backup_location: Optional[City] = None
    has_backup_server: bool = True
    required_running_vms: int = 2

    def __post_init__(self) -> None:
        if not self.datacenters:
            raise ConfigurationError("a cloud system needs at least one data center")
        indices = [dc.index for dc in self.datacenters]
        if indices != list(range(1, len(indices) + 1)):
            raise ConfigurationError(
                f"data-center indices must be 1..{len(indices)} in order, got {indices}"
            )
        if self.required_running_vms < 1:
            raise ConfigurationError("at least one running VM must be required")
        if self.required_running_vms > self.total_initial_vms:
            raise ConfigurationError(
                f"the system requires {self.required_running_vms} running VMs but only "
                f"{self.total_initial_vms} VMs exist"
            )

    @property
    def total_initial_vms(self) -> int:
        """Total number of VM images in the system (conserved by the model)."""
        return sum(
            dc.hot_physical_machines * dc.initial_vms_per_hot_machine
            for dc in self.datacenters
        )

    @cached_property
    def physical_machines(self) -> tuple[PhysicalMachineSpec, ...]:
        """Globally indexed PM specifications, hot machines first per data center."""
        machines: list[PhysicalMachineSpec] = []
        next_index = 1
        for dc in self.datacenters:
            for position in range(dc.total_physical_machines):
                is_hot = position < dc.hot_physical_machines
                machines.append(
                    PhysicalMachineSpec(
                        index=next_index,
                        datacenter_index=dc.index,
                        vm_capacity=dc.vms_per_machine,
                        initial_vms=dc.initial_vms_per_hot_machine if is_hot else 0,
                    )
                )
                next_index += 1
        return tuple(machines)

    def machines_of(self, datacenter_index: int) -> tuple[PhysicalMachineSpec, ...]:
        """The PMs belonging to one data center."""
        return tuple(
            pm for pm in self.physical_machines if pm.datacenter_index == datacenter_index
        )

    @property
    def is_distributed(self) -> bool:
        """Whether the deployment spans more than one data center."""
        return len(self.datacenters) > 1


def single_datacenter_spec(
    machines: int = 2,
    vms_per_machine: int = 2,
    required_running_vms: int = 2,
    initial_vms_per_machine: Optional[int] = None,
    location: Optional[City] = None,
    has_backup_server: bool = False,
) -> CloudSystemSpec:
    """Convenience spec for the non-distributed baselines of Table VII.

    ``initial_vms_per_machine`` defaults to one VM per machine, but never
    fewer than needed to satisfy ``required_running_vms`` (e.g. the
    single-machine baseline hosts two VMs so that k = 2 can be met).
    """
    if initial_vms_per_machine is None:
        needed = -(-required_running_vms // machines)  # ceiling division
        initial_vms_per_machine = max(1, needed)
    return CloudSystemSpec(
        datacenters=(
            DataCenterSpec(
                index=1,
                location=location,
                hot_physical_machines=machines,
                warm_physical_machines=0,
                vms_per_machine=vms_per_machine,
                initial_vms_per_hot_machine=initial_vms_per_machine,
            ),
        ),
        backup_location=None,
        has_backup_server=has_backup_server,
        required_running_vms=required_running_vms,
    )


def multi_datacenter_spec(
    locations: Sequence[Optional[City]],
    backup_location: Optional[City] = None,
    machines_per_datacenter: int = 2,
    vms_per_machine: int = 2,
    initial_vms_per_hot_machine: int = 1,
    required_running_vms: int = 2,
    warm_machines_per_datacenter: int = 0,
    has_backup_server: bool = True,
) -> CloudSystemSpec:
    """A geo-distributed deployment over N ≥ 2 data centers.

    One :class:`DataCenterSpec` per entry of ``locations`` (1-based indices
    in order), all sharing the same pool sizes and VM capacity; the
    two-data-center case is exactly :func:`two_datacenter_spec`.
    """
    if len(locations) < 2:
        raise ConfigurationError(
            f"a multi-data-center deployment needs at least two data centers, "
            f"got {len(locations)}"
        )
    return CloudSystemSpec(
        datacenters=tuple(
            DataCenterSpec(
                index=position + 1,
                location=location,
                hot_physical_machines=machines_per_datacenter,
                warm_physical_machines=warm_machines_per_datacenter,
                vms_per_machine=vms_per_machine,
                initial_vms_per_hot_machine=initial_vms_per_hot_machine,
            )
            for position, location in enumerate(locations)
        ),
        backup_location=backup_location if has_backup_server else None,
        has_backup_server=has_backup_server,
        required_running_vms=required_running_vms,
    )


def two_datacenter_spec(
    first_location: Optional[City] = None,
    second_location: Optional[City] = None,
    backup_location: Optional[City] = None,
    machines_per_datacenter: int = 2,
    vms_per_machine: int = 2,
    initial_vms_per_hot_machine: int = 1,
    required_running_vms: int = 2,
    warm_machines_per_datacenter: int = 0,
) -> CloudSystemSpec:
    """Convenience spec for the paper's two-data-center architecture (Figure 6).

    The defaults reproduce the case-study configuration: two data centers,
    two PMs each, up to two VMs per machine, N = 4 VMs in total and k = 2.
    """
    return CloudSystemSpec(
        datacenters=(
            DataCenterSpec(
                index=1,
                location=first_location,
                hot_physical_machines=machines_per_datacenter,
                warm_physical_machines=warm_machines_per_datacenter,
                vms_per_machine=vms_per_machine,
                initial_vms_per_hot_machine=initial_vms_per_hot_machine,
            ),
            DataCenterSpec(
                index=2,
                location=second_location,
                hot_physical_machines=machines_per_datacenter,
                warm_physical_machines=warm_machines_per_datacenter,
                vms_per_machine=vms_per_machine,
                initial_vms_per_hot_machine=initial_vms_per_hot_machine,
            ),
        ),
        backup_location=backup_location,
        has_backup_server=True,
        required_running_vms=required_running_vms,
    )
