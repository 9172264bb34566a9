"""SPN block: TRANSMISSION_COMPONENT (Figure 4 / Tables IV-V of the paper).

The block models the migration of VM images between two data centers and the
restoration of images by the backup server after a disaster.  Each of the
four paths is an immediate "initiate" transition (``TRI_xy`` / ``TBI_xy``)
that claims an image from the source pool into an in-transfer place, drained
by an exponential "execute" transition (``TRE_xy`` / ``TBE_xy``) whose mean
delay is the corresponding mean time to transmit (Table V):

* ``TRE_12`` / ``TRE_21`` — data-center-to-data-center migration, ``MTT_DCS``;
* ``TBE_12`` — backup server restores images into data center 2, ``MTT_BK2``;
* ``TBE_21`` — backup server restores images into data center 1, ``MTT_BK1``.

Guards follow Table IV: direct migration out of a data center is enabled when
the data center no longer has *l* operational physical machines (the case
study uses ``l = 1``, i.e. migrate only when no PM is operational) and the
destination is healthy; the backup paths are enabled when the backup server
is up, the source data center's network or the data center itself is down
(disaster), and the destination is healthy.  The published table contains two
obvious typos (``#DC_UP2=1`` in TRI_21 and a repeated ``#OSPM_UP1`` in
TBI_21); we use the symmetric forms, as documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.components import up_place
from repro.core.datacenter import DataCenterSpec, PhysicalMachineSpec
from repro.core.vm_behavior import failed_pool_place, hosted_vms_expression
from repro.exceptions import ModelError
from repro.spn import StochasticPetriNet

#: Recognised migration topologies of :func:`build_transmission_network`.
TOPOLOGIES = ("mesh", "ring")

#: Component label of the backup server's SIMPLE_COMPONENT, whose up place
#: the restoration paths' guards read.
BACKUP_SERVER = "BKP"


def topology_pairs(count: int, topology: str = "mesh") -> tuple[tuple[int, int], ...]:
    """Ordered data-center index pairs connected by a migration path.

    ``mesh`` connects every ordered pair; ``ring`` only neighbours on the
    cycle ``1 → 2 → … → count → 1`` (both directions).  Indices are the
    1-based data-center indices of :class:`~repro.core.datacenter.
    DataCenterSpec`.  For two data centers both topologies reduce to the
    paper's pair of direct paths.
    """
    if count < 2:
        raise ModelError(f"a migration topology needs at least two data centers, got {count}")
    if topology == "mesh":
        return tuple(
            (i, j)
            for i in range(1, count + 1)
            for j in range(1, count + 1)
            if i != j
        )
    if topology == "ring":
        pairs: list[tuple[int, int]] = []
        for i in range(1, count + 1):
            j = i % count + 1
            for pair in ((i, j), (j, i)):
                if pair not in pairs:
                    pairs.append(pair)
        return tuple(pairs)
    raise ModelError(f"unknown topology {topology!r}; expected one of {TOPOLOGIES}")


@dataclass(frozen=True)
class TransmissionParameters:
    """Mean times to transmit one VM image (hours, Table V)."""

    datacenter_to_datacenter: float
    backup_to_first: float
    backup_to_second: float

    def __post_init__(self) -> None:
        for label, value in (
            ("MTT_DCS", self.datacenter_to_datacenter),
            ("MTT_BK1", self.backup_to_first),
            ("MTT_BK2", self.backup_to_second),
        ):
            if value <= 0.0:
                raise ModelError(f"{label} must be positive, got {value!r}")


def transfer_place(source_dc: int, target_dc: int) -> str:
    """In-transfer place of the direct migration path ``source -> target``."""
    return f"TRF_{source_dc}{target_dc}"


def backup_transfer_place(source_dc: int, target_dc: int) -> str:
    """In-transfer place of the backup restoration path ``source -> target``."""
    return f"TBF_{source_dc}{target_dc}"


def transfer_transition(source_dc: int, target_dc: int) -> str:
    """Timed "execute" transition of the direct migration path (``TRE_xy``)."""
    return f"TRE_{source_dc}{target_dc}"


def backup_transfer_transition(source_dc: int, target_dc: int) -> str:
    """Timed "execute" transition of the backup restoration path (``TBE_xy``)."""
    return f"TBE_{source_dc}{target_dc}"


def _operational_pms_expression(machines: Sequence[PhysicalMachineSpec]) -> str:
    return "(" + " + ".join(f"#OSPM_{pm.index}_UP" for pm in machines) + ")"


def source_exhausted_guard(
    machines: Sequence[PhysicalMachineSpec], minimum_operational_pms: int
) -> str:
    """The source data center has fewer than ``l`` operational PMs."""
    return f"{_operational_pms_expression(machines)} < {minimum_operational_pms}"


def destination_healthy_guard(
    datacenter: DataCenterSpec, machines: Sequence[PhysicalMachineSpec]
) -> str:
    """The destination can actually receive and run migrated VMs (Table IV)."""
    return (
        f"NOT ({_operational_pms_expression(machines)} = 0 "
        f"OR #NAS_NET_{datacenter.index}_UP = 0 OR #DC_{datacenter.index}_UP = 0)"
    )


def source_disaster_guard(datacenter: DataCenterSpec) -> str:
    """The source data center's network or the data center itself is down."""
    return f"(#NAS_NET_{datacenter.index}_UP = 0 OR #DC_{datacenter.index}_UP = 0)"


def build_transmission_component(
    first: DataCenterSpec,
    second: DataCenterSpec,
    first_machines: Sequence[PhysicalMachineSpec],
    second_machines: Sequence[PhysicalMachineSpec],
    parameters: TransmissionParameters,
    has_backup_server: bool = True,
    minimum_operational_pms: int = 1,
) -> StochasticPetriNet:
    """Build the TRANSMISSION_COMPONENT between two data centers.

    Args:
        first / second: the two data-center specifications.
        first_machines / second_machines: the PMs of each data center (their
            global indices appear in the guard expressions).
        parameters: the three MTT values.
        has_backup_server: include the two backup restoration paths (requires
            a ``BKP`` SIMPLE_COMPONENT in the final composed model).
        minimum_operational_pms: the paper's ``l`` — VMs leave a data center
            when fewer than ``l`` of its PMs are operational.

    The block references the ``OSPM_*_UP``, ``NAS_NET_*_UP``, ``DC_*_UP`` and
    ``BKP_UP`` places of the SIMPLE_COMPONENT blocks and the ``FailedVMS_*``
    pools of the VM_BEHAVIOR blocks; composition happens via
    :func:`repro.spn.merge`.
    """
    if first.index == second.index:
        raise ModelError("a transmission component connects two distinct data centers")
    direct = parameters.datacenter_to_datacenter
    return build_transmission_network(
        datacenters=(first, second),
        machines={first.index: first_machines, second.index: second_machines},
        direct_times={
            (first.index, second.index): direct,
            (second.index, first.index): direct,
        },
        backup_times={
            first.index: parameters.backup_to_first,
            second.index: parameters.backup_to_second,
        },
        has_backup_server=has_backup_server,
        minimum_operational_pms=minimum_operational_pms,
    )


def build_transmission_network(
    datacenters: Sequence[DataCenterSpec],
    machines: Mapping[int, Sequence[PhysicalMachineSpec]],
    direct_times: Mapping[tuple[int, int], float],
    backup_times: Mapping[int, float],
    topology: str = "mesh",
    has_backup_server: bool = True,
    minimum_operational_pms: int = 1,
    max_in_flight_vms: Optional[int] = None,
    capacity_aware_migration: bool = False,
) -> StochasticPetriNet:
    """Build the migration network of an N-data-center deployment (N ≥ 2).

    Generalises the paper's two-data-center TRANSMISSION_COMPONENT: one
    direct migration path (``TRI_ij``/``TRE_ij``) per ordered data-center
    pair of the ``topology`` (full mesh or ring), and — with a backup
    server — one restoration path (``TBI_ij``/``TBE_ij``) per ordered pair
    of *all* data centers, enabled when data center ``i`` suffered a
    disaster and ``j`` is healthy.  Restoration always spans every pair
    because it flows over the backup server's own links (a star), not the
    inter-data-center migration links the ``topology`` restricts.

    Args:
        datacenters: every data center of the deployment, in index order.
        machines: the PMs of each data center, keyed by its 1-based index.
        direct_times: mean time (hours) to transmit one VM image between
            each connected ordered pair ``(i, j)``.
        backup_times: mean time (hours) to restore one VM image from the
            backup server *into* data center ``j``, keyed by ``j``.
        topology: ``"mesh"`` (every ordered pair) or ``"ring"`` (cycle
            neighbours only); for two data centers both reduce to the
            paper's layout.
        has_backup_server / minimum_operational_pms: as in
            :func:`build_transmission_component`.
        max_in_flight_vms: WAN admission control — when set, every initiate
            transition additionally requires fewer than this many VM images
            in transit across *all* migration and restoration paths
            combined.  The cap bounds the in-flight state space (its growth
            in N dominates large meshes) and, being a sum over every
            in-transfer place, is invariant under any permutation of the
            data centers, so it composes with the symmetry lumping.
        capacity_aware_migration: destination admission control — migrate
            into data center ``j`` only while its hosting capacity has room
            for one more image, counting images already bound to its PMs,
            pooled locally and inbound in flight.  The paper's model happily
            migrates into full data centers and lets images pile up in the
            destination pool, which makes per-data-center image counts (and
            the state space) grow with the *total* VM population; with
            admission each data center invariantly holds at most its own
            capacity.  The guard sums over all inbound paths uniformly, so
            it too commutes with data-center permutations.

    For two data centers the emitted net is structurally identical (same
    places, transitions, guards and emission order) to
    :func:`build_transmission_component`, which delegates here.
    """
    if minimum_operational_pms < 1:
        raise ModelError(
            f"the migration threshold l must be at least 1, got {minimum_operational_pms!r}"
        )
    by_index = {dc.index: dc for dc in datacenters}
    if len(by_index) != len(datacenters):
        raise ModelError("data-center indices of a migration network must be unique")
    # topology_pairs works over 1..N positions; map them onto the actual
    # (possibly non-contiguous) data-center indices in sequence order.
    indices = [dc.index for dc in datacenters]
    pairs = [
        (indices[i - 1], indices[j - 1])
        for i, j in topology_pairs(len(datacenters), topology)
    ]
    backup_pairs = [(i, j) for i in indices for j in indices if i != j]
    for i, j in pairs:
        if (i, j) not in direct_times:
            raise ModelError(f"no direct transfer time given for the pair ({i}, {j})")
        if direct_times[(i, j)] <= 0.0:
            raise ModelError(
                f"the transfer time of the pair ({i}, {j}) must be positive, "
                f"got {direct_times[(i, j)]!r}"
            )
    if has_backup_server:
        for j in indices:
            if j not in backup_times:
                raise ModelError(f"no backup restoration time given for data center {j}")
            if backup_times[j] <= 0.0:
                raise ModelError(
                    f"the backup restoration time of data center {j} must be "
                    f"positive, got {backup_times[j]!r}"
                )

    if max_in_flight_vms is not None and max_in_flight_vms < 1:
        raise ModelError(
            f"max_in_flight_vms must be at least 1, got {max_in_flight_vms!r}"
        )
    in_flight_guard = None
    if max_in_flight_vms is not None:
        in_transfer_places = [transfer_place(i, j) for i, j in pairs]
        if has_backup_server:
            in_transfer_places.extend(
                backup_transfer_place(i, j) for i, j in backup_pairs
            )
        total = " + ".join(f"#{name}" for name in in_transfer_places)
        in_flight_guard = f"({total}) < {max_in_flight_vms}"
    admission_guards: dict[int, str] = {}
    if capacity_aware_migration:
        for j in indices:
            bound = [hosted_vms_expression(pm.index) for pm in machines[j]]
            bound.append(f"#{failed_pool_place(j)}")
            bound.extend(f"#{transfer_place(k, j)}" for k, t in pairs if t == j)
            if has_backup_server:
                bound.extend(
                    f"#{backup_transfer_place(k, j)}" for k in indices if k != j
                )
            capacity = sum(pm.vm_capacity for pm in machines[j])
            admission_guards[j] = f"({' + '.join(bound)}) < {capacity}"

    suffix = "".join(str(dc.index) for dc in datacenters)
    net = StochasticPetriNet(f"TRANSMISSION_{suffix}")
    for datacenter in datacenters:
        net.add_place(failed_pool_place(datacenter.index))

    def extra_guard(j: int) -> Optional[str]:
        parts = [
            part
            for part in (in_flight_guard, admission_guards.get(j))
            if part is not None
        ]
        return " AND ".join(f"({part})" for part in parts) if parts else None

    for i, j in pairs:
        _add_direct_path(
            net, by_index[i], by_index[j], machines[i], machines[j],
            direct_times[(i, j)], minimum_operational_pms,
            in_flight_guard=extra_guard(j),
        )
    if has_backup_server:
        for i, j in backup_pairs:
            _add_backup_path(
                net, by_index[i], by_index[j], machines[j], backup_times[j],
                in_flight_guard=extra_guard(j),
            )
    return net


def _add_direct_path(
    net: StochasticPetriNet,
    source: DataCenterSpec,
    target: DataCenterSpec,
    source_machines: Sequence[PhysicalMachineSpec],
    target_machines: Sequence[PhysicalMachineSpec],
    mean_transfer_time: float,
    minimum_operational_pms: int,
    in_flight_guard: Optional[str] = None,
) -> None:
    """Direct data-center-to-data-center migration (TRI_xy + TRE_xy)."""
    suffix = f"{source.index}{target.index}"
    in_transfer = transfer_place(source.index, target.index)
    net.add_place(in_transfer)
    guard = (
        f"({source_exhausted_guard(source_machines, minimum_operational_pms)}) "
        f"AND ({destination_healthy_guard(target, target_machines)}) "
        f"AND (#DC_{source.index}_UP > 0) AND (#NAS_NET_{source.index}_UP > 0)"
    )
    if in_flight_guard is not None:
        guard = f"{guard} AND ({in_flight_guard})"
    net.add_immediate_transition(f"TRI_{suffix}", guard=guard)
    net.add_input_arc(failed_pool_place(source.index), f"TRI_{suffix}")
    net.add_output_arc(f"TRI_{suffix}", in_transfer)
    execute = transfer_transition(source.index, target.index)
    net.add_timed_transition(execute, delay=mean_transfer_time, semantics="ss")
    net.add_input_arc(in_transfer, execute)
    net.add_output_arc(execute, failed_pool_place(target.index))


def _add_backup_path(
    net: StochasticPetriNet,
    source: DataCenterSpec,
    target: DataCenterSpec,
    target_machines: Sequence[PhysicalMachineSpec],
    mean_transfer_time: float,
    in_flight_guard: Optional[str] = None,
) -> None:
    """Backup-server restoration of ``source``'s images into ``target``."""
    suffix = f"{source.index}{target.index}"
    in_transfer = backup_transfer_place(source.index, target.index)
    net.add_place(in_transfer)
    guard = (
        f"#{up_place(BACKUP_SERVER)} = 1 AND ({source_disaster_guard(source)}) "
        f"AND ({destination_healthy_guard(target, target_machines)})"
    )
    if in_flight_guard is not None:
        guard = f"{guard} AND ({in_flight_guard})"
    net.add_immediate_transition(f"TBI_{suffix}", guard=guard)
    net.add_input_arc(failed_pool_place(source.index), f"TBI_{suffix}")
    net.add_output_arc(f"TBI_{suffix}", in_transfer)
    execute = backup_transfer_transition(source.index, target.index)
    net.add_timed_transition(execute, delay=mean_transfer_time, semantics="ss")
    net.add_input_arc(in_transfer, execute)
    net.add_output_arc(execute, failed_pool_place(target.index))
