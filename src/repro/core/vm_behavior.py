"""SPN block: VM_BEHAVIOR (Figure 3 / Tables II-III of the paper).

One VM_BEHAVIOR block models the virtual machines hosted by one physical
machine.  Per PM *i* (in data center *d*) the block has the places named in
the paper —

* ``VM_UP_i``    VMs operational,
* ``VM_DOWN_i``  VMs failed (waiting for repair),
* ``VM_RDY_i``   VMs repaired / assigned, ready to be started,
* ``VM_STRTD_i`` VMs starting,

plus the per-data-center shared place ``FailedVMS_d`` holding VM images whose
hosting infrastructure failed ("VMs that are failed and can be started in
another PM").

The timed transitions carry the attributes of Table III (infinite-server
failure and repair, single-server start).  The immediate transitions carry
the guards of Table II: the ``FPM_*`` family flushes every VM state to
``FailedVMS_d`` when the PM, the data-center network or the data center
itself is down; ``VM_Subs_i`` dispatches ready VMs for starting while the
infrastructure is healthy.  ``VM_Acq_i`` — the only transition not named in
the paper's text — re-instantiates an image from the shared pool on this PM
when it is healthy and has spare capacity; it is required to close the token
flow described in Section III (see DESIGN.md §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.datacenter import DataCenterSpec, PhysicalMachineSpec
from repro.exceptions import ModelError
from repro.spn import StochasticPetriNet


@dataclass(frozen=True)
class VmBehaviorParameters:
    """Timing parameters of one VM_BEHAVIOR block (hours)."""

    vm_mttf: float
    vm_mttr: float
    vm_start_time: float

    def __post_init__(self) -> None:
        for label, value in (
            ("VM MTTF", self.vm_mttf),
            ("VM MTTR", self.vm_mttr),
            ("VM start time", self.vm_start_time),
        ):
            if value <= 0.0:
                raise ModelError(f"{label} must be positive, got {value!r}")


def vm_up_place(pm_index: int) -> str:
    """Place holding the operational VMs of PM ``pm_index``."""
    return f"VM_UP_{pm_index}"


def vm_down_place(pm_index: int) -> str:
    return f"VM_DOWN_{pm_index}"


def vm_ready_place(pm_index: int) -> str:
    return f"VM_RDY_{pm_index}"


def vm_starting_place(pm_index: int) -> str:
    return f"VM_STRTD_{pm_index}"


def failed_pool_place(datacenter_index: int) -> str:
    """Shared per-data-center pool of failed VM images."""
    return f"FailedVMS_{datacenter_index}"


def vm_failure_transition(pm_index: int) -> str:
    """Failure of one operational VM of PM ``pm_index`` (mean delay: VM MTTF)."""
    return f"VM_F_{pm_index}"


def vm_repair_transition(pm_index: int) -> str:
    """Repair of one failed VM of PM ``pm_index`` (mean delay: VM MTTR)."""
    return f"VM_R_{pm_index}"


def vm_start_transition(pm_index: int) -> str:
    """Start of a dispatched VM on PM ``pm_index`` (mean delay: VM start time)."""
    return f"VM_STRT_{pm_index}"


def infrastructure_failed_guard(pm_index: int, datacenter_index: int) -> str:
    """Guard of the ``FPM_*`` transitions (Table II): PM or infrastructure failed.

    The referenced places are the ``_UP`` places of the ``OSPM_i``,
    ``NAS_NET_d`` and ``DC_d`` SIMPLE_COMPONENT blocks.
    """
    return (
        f"(#OSPM_{pm_index}_UP = 0) OR (#NAS_NET_{datacenter_index}_UP = 0) "
        f"OR (#DC_{datacenter_index}_UP = 0)"
    )


def infrastructure_working_guard(pm_index: int, datacenter_index: int) -> str:
    """Guard of ``VM_Subs`` / ``VM_Acq`` (Table II): PM and infrastructure working."""
    return (
        f"(#OSPM_{pm_index}_UP > 0) AND (#NAS_NET_{datacenter_index}_UP > 0) "
        f"AND (#DC_{datacenter_index}_UP > 0)"
    )


def hosted_vms_expression(pm_index: int) -> str:
    """Number of VM images currently bound to PM ``pm_index`` (any state)."""
    return (
        f"(#{vm_up_place(pm_index)} + #{vm_down_place(pm_index)} + "
        f"#{vm_ready_place(pm_index)} + #{vm_starting_place(pm_index)})"
    )


def build_vm_behavior(
    machine: PhysicalMachineSpec,
    datacenter: DataCenterSpec,
    parameters: VmBehaviorParameters,
) -> StochasticPetriNet:
    """Build the VM_BEHAVIOR block of one physical machine.

    The block references (through guards) the ``OSPM_UP_i``, ``NAS_NET_UP_d``
    and ``DC_UP_d`` places of the corresponding SIMPLE_COMPONENT blocks; those
    places are *not* created here — the blocks are fused by
    :func:`repro.spn.merge` when the full cloud model is assembled.
    """
    if machine.datacenter_index != datacenter.index:
        raise ModelError(
            f"PM {machine.index} belongs to data center {machine.datacenter_index}, "
            f"not {datacenter.index}"
        )
    i = machine.index
    d = datacenter.index
    net = StochasticPetriNet(f"VM_BEHAVIOR_{i}")

    net.add_place(vm_up_place(i), initial_tokens=machine.initial_vms)
    net.add_place(vm_down_place(i))
    net.add_place(vm_ready_place(i))
    net.add_place(vm_starting_place(i))
    net.add_place(failed_pool_place(d))

    failed_guard = infrastructure_failed_guard(i, d)
    working_guard = infrastructure_working_guard(i, d)
    capacity_guard = (
        f"({working_guard}) AND ({hosted_vms_expression(i)} < {machine.vm_capacity})"
    )

    # Timed transitions (Table III).
    failure = vm_failure_transition(i)
    repair = vm_repair_transition(i)
    start = vm_start_transition(i)
    net.add_timed_transition(failure, delay=parameters.vm_mttf, semantics="is")
    net.add_timed_transition(repair, delay=parameters.vm_mttr, semantics="is")
    net.add_timed_transition(start, delay=parameters.vm_start_time, semantics="ss")
    net.add_input_arc(vm_up_place(i), failure)
    net.add_output_arc(failure, vm_down_place(i))
    net.add_input_arc(vm_down_place(i), repair)
    net.add_output_arc(repair, vm_ready_place(i))
    net.add_input_arc(vm_starting_place(i), start)
    net.add_output_arc(start, vm_up_place(i))

    # Dispatch of ready VMs while the infrastructure is healthy (Table II).
    net.add_immediate_transition(f"VM_Subs_{i}", guard=working_guard)
    net.add_input_arc(vm_ready_place(i), f"VM_Subs_{i}")
    net.add_output_arc(f"VM_Subs_{i}", vm_starting_place(i))

    # Flush every VM state to the shared pool when the infrastructure fails.
    for suffix, place in (
        ("UP", vm_up_place(i)),
        ("DW", vm_down_place(i)),
        ("ST", vm_starting_place(i)),
        ("Subs", vm_ready_place(i)),
    ):
        name = f"FPM_{suffix}_{i}"
        net.add_immediate_transition(name, guard=failed_guard)
        net.add_input_arc(place, name)
        net.add_output_arc(name, failed_pool_place(d))

    # Re-instantiation of pooled images on this PM (healthy + spare capacity).
    net.add_immediate_transition(f"VM_Acq_{i}", guard=capacity_guard)
    net.add_input_arc(failed_pool_place(d), f"VM_Acq_{i}")
    net.add_output_arc(f"VM_Acq_{i}", vm_ready_place(i))

    return net
