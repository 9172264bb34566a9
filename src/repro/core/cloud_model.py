"""Assembly and evaluation of the full cloud-system SPN (Figure 6).

``CloudSystemModel`` glues together every block of Section IV for an
arbitrary :class:`~repro.core.datacenter.CloudSystemSpec`:

* one ``DC_d`` (disaster) and one ``NAS_NET_d`` SIMPLE_COMPONENT per data
  center, the latter parameterised by the NAS_NET RBD of the hierarchical
  step;
* one ``OSPM_i`` SIMPLE_COMPONENT per physical machine, parameterised by the
  OS_PM RBD;
* one VM_BEHAVIOR block per physical machine;
* one ``BKP`` SIMPLE_COMPONENT plus one TRANSMISSION_COMPONENT per ordered
  pair of data centers (two-data-center systems);

and evaluates the paper's availability metric
``P{Σ_i #VM_UP_i ≥ k}`` analytically (reachability graph + CTMC) or by
simulation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.components import (
    build_simple_component,
    down_place,
    failure_transition,
    repair_transition,
    up_place,
)
from repro.core.datacenter import CloudSystemSpec, PhysicalMachineSpec
from repro.core.hierarchical import HierarchicalParameters
from repro.core.parameters import CaseStudyParameters, DEFAULT_PARAMETERS
from repro.core.transmission import (
    BACKUP_SERVER,
    backup_transfer_place,
    backup_transfer_transition,
    build_transmission_network,
    topology_pairs,
    transfer_place,
    transfer_transition,
)
from repro.core.vm_behavior import (
    VmBehaviorParameters,
    build_vm_behavior,
    vm_down_place,
    vm_failure_transition,
    vm_ready_place,
    vm_repair_transition,
    vm_start_transition,
    vm_starting_place,
    vm_up_place,
)
from repro.exceptions import ConfigurationError, ModelError
from repro.metrics import AvailabilityResult
from repro.network.migration import MigrationPlanner, MigrationTimes
from repro.network.throughput import ThroughputModel
from repro.spn import (
    ProbabilityMeasure,
    SimulationResult,
    StochasticPetriNet,
    merge,
    simulate,
    solve_steady_state,
)
from repro.spn.analysis import SteadyStateSolution
from repro.symmetry import DEFAULT_SYMMETRY_REDUCTION, OrbitGroup, SymmetrySpec

#: The RBD lower level, evaluated once per distinct (frozen, hashable)
#: component set: a grid's cases usually all share one.
_hierarchical_parameters = functools.lru_cache(maxsize=64)(
    HierarchicalParameters.from_components
)


@dataclass
class CloudSystemModel:
    """The paper's hierarchical dependability model of one deployment.

    Attributes:
        spec: deployment description (data centers, pools, threshold k).
        parameters: component / disaster / VM parameters (Table VI + Section V).
        alpha: network-speed coefficient used to derive migration times; only
            needed for distributed deployments.
        migration_times: explicit MTT values; when ``None`` they are computed
            from the data-center locations, the backup location and ``alpha``.
        minimum_operational_pms: the paper's ``l`` threshold for leaving a
            data center.
    """

    spec: CloudSystemSpec
    parameters: CaseStudyParameters = field(default_factory=lambda: DEFAULT_PARAMETERS)
    alpha: Optional[float] = None
    migration_times: Optional[MigrationTimes] = None
    minimum_operational_pms: int = 1
    throughput_model: ThroughputModel = field(default_factory=ThroughputModel)
    #: Migration topology for deployments with more than two data centers
    #: (``"mesh"`` or ``"ring"``); two data centers always form the paper's
    #: symmetric pair of paths.
    topology: str = "mesh"
    #: Uniform per-pair transfer time (hours) overriding the distance/α
    #: derivation — the *homogeneous* deployments whose identical data
    #: centers the symmetry layer lumps ~N!-fold.  Deployments with this
    #: set need neither locations nor α.
    uniform_transfer_hours: Optional[float] = None
    #: Uniform backup restoration time (hours); defaults to
    #: ``uniform_transfer_hours`` when only that is set.
    uniform_backup_hours: Optional[float] = None
    #: WAN admission control: at most this many VM images in transit across
    #: all migration / restoration paths combined (``None`` = unbounded, the
    #: paper's model).  The cap is a sum over every in-transfer place, hence
    #: invariant under data-center permutations — it bounds the dominant
    #: state-space dimension of large meshes without breaking the lumping.
    max_in_flight_vms: Optional[int] = None
    #: Destination admission control: migrate into a data center only while
    #: its hosting capacity (images bound to its PMs + pooled + inbound in
    #: flight) has room.  Off by default — the paper's model migrates
    #: unconditionally; see
    #: :func:`repro.core.transmission.build_transmission_network`.
    capacity_aware_migration: bool = False

    def __post_init__(self) -> None:
        if len(self.spec.datacenters) > 2 and self.migration_times is not None:
            raise ConfigurationError(
                "explicit MigrationTimes describe a two-data-center deployment; "
                f"deployments with {len(self.spec.datacenters)} data centers "
                "derive per-pair times from locations and alpha"
            )
        for label, value in (
            ("uniform_transfer_hours", self.uniform_transfer_hours),
            ("uniform_backup_hours", self.uniform_backup_hours),
        ):
            if value is not None and not value > 0.0:
                raise ConfigurationError(f"{label} must be positive, got {value!r}")
        if self.uniform_transfer_hours is not None and self.migration_times is not None:
            raise ConfigurationError(
                "uniform_transfer_hours and explicit migration_times are "
                "mutually exclusive"
            )
        if self.uniform_backup_hours is not None and self.uniform_transfer_hours is None:
            raise ConfigurationError(
                "uniform_backup_hours needs uniform_transfer_hours"
            )
        if self.max_in_flight_vms is not None and self.max_in_flight_vms < 1:
            raise ConfigurationError(
                f"max_in_flight_vms must be at least 1, got "
                f"{self.max_in_flight_vms!r}"
            )
        if (
            self.spec.is_distributed
            and self.migration_times is None
            and self.uniform_transfer_hours is None
        ):
            self._require_locations()
        self._hierarchical = _hierarchical_parameters(self.parameters.components)
        self._net: Optional[StochasticPetriNet] = None

    # --- assembly ---------------------------------------------------------

    @property
    def hierarchical_parameters(self) -> HierarchicalParameters:
        """Equivalent MTTF/MTTR of the RBD lower level (OS_PM and NAS_NET)."""
        return self._hierarchical

    def resolved_migration_times(self) -> Optional[MigrationTimes]:
        """The MTT values actually used (computed from geography if needed)."""
        if not self.spec.is_distributed:
            return None
        if self.migration_times is not None:
            return self.migration_times
        planner = MigrationPlanner(
            vm_image_size=self.parameters.vm_image_size,
            throughput_model=self.throughput_model,
        )
        first, second = self.spec.datacenters
        if self.spec.has_backup_server:
            return planner.migration_times(
                first.location, second.location, self.spec.backup_location, self.alpha
            )
        # Without a backup server only the direct path exists; the backup
        # fields are placeholders that never parameterise a transition.
        direct = planner.transfer_time(first.location, second.location, self.alpha)
        return MigrationTimes(
            datacenter_to_datacenter=direct,
            backup_to_first=direct,
            backup_to_second=direct,
        )

    def resolved_transmission_times(
        self,
    ) -> tuple[dict[tuple[int, int], float], dict[int, float]]:
        """Per-pair direct and per-destination backup MTTs (hours).

        For two data centers this is :meth:`resolved_migration_times` (so
        explicit ``migration_times`` keep working); for N > 2 every
        topology pair gets its own distance/α-derived transfer time and
        every data center its own backup restoration time.
        """
        datacenters = self.spec.datacenters
        if self.uniform_transfer_hours is not None:
            indices = [dc.index for dc in datacenters]
            direct_times = {
                (indices[i - 1], indices[j - 1]): float(self.uniform_transfer_hours)
                for i, j in topology_pairs(len(datacenters), self.topology)
            }
            if not self.spec.has_backup_server:
                return direct_times, {}
            backup = float(
                self.uniform_backup_hours
                if self.uniform_backup_hours is not None
                else self.uniform_transfer_hours
            )
            return direct_times, {index: backup for index in indices}
        if len(datacenters) == 2:
            times = self.resolved_migration_times()
            first, second = datacenters
            direct = times.datacenter_to_datacenter.hours
            return (
                {
                    (first.index, second.index): direct,
                    (second.index, first.index): direct,
                },
                {
                    first.index: times.backup_to_first.hours,
                    second.index: times.backup_to_second.hours,
                },
            )
        planner = MigrationPlanner(
            vm_image_size=self.parameters.vm_image_size,
            throughput_model=self.throughput_model,
        )
        by_index = {dc.index: dc for dc in datacenters}
        direct_times = {
            (i, j): planner.transfer_time(
                by_index[i].location, by_index[j].location, self.alpha
            ).hours
            for i, j in topology_pairs(len(datacenters), self.topology)
        }
        if not self.spec.has_backup_server:
            return direct_times, {}
        backup_times = {
            dc.index: planner.transfer_time(
                self.spec.backup_location, dc.location, self.alpha
            ).hours
            for dc in datacenters
        }
        return direct_times, backup_times

    def _delays(self) -> dict[str, float]:
        """Mean delay (hours) of every timed transition, by name, in net order.

        The one table :meth:`build` hands its builders their delays from and
        :meth:`timed_rates` inverts, so a net's rates and the model's rates
        are one computation.
        """
        parameters = self.parameters
        delays: dict[str, float] = {}

        def component(name: str, mttf: float, mttr: float) -> None:
            delays[failure_transition(name)] = mttf
            delays[repair_transition(name)] = mttr

        virtual_machine = parameters.components.virtual_machine
        for datacenter in self.spec.datacenters:
            component(
                datacenter.name,
                parameters.disaster.mean_time_to_disaster.hours,
                parameters.disaster.recovery_time.hours,
            )
            component(
                datacenter.network_name,
                self._hierarchical.nas_net.mttf,
                self._hierarchical.nas_net.mttr,
            )
            for machine in self.spec.machines_of(datacenter.index):
                component(
                    machine.name,
                    self._hierarchical.os_pm.mttf,
                    self._hierarchical.os_pm.mttr,
                )
                delays[vm_failure_transition(machine.index)] = virtual_machine.mttf_hours
                delays[vm_repair_transition(machine.index)] = virtual_machine.mttr_hours
                delays[vm_start_transition(machine.index)] = parameters.vm_start_time.hours

        if self.spec.is_distributed:
            if self.spec.has_backup_server:
                backup_server = parameters.components.backup_server
                component(
                    BACKUP_SERVER, backup_server.mttf_hours, backup_server.mttr_hours
                )
            direct_times, backup_times = self.resolved_transmission_times()
            for (i, j), hours in direct_times.items():
                delays[transfer_transition(i, j)] = hours
            if self.spec.has_backup_server:
                indices = [dc.index for dc in self.spec.datacenters]
                for i in indices:
                    for j in indices:
                        if i != j:
                            delays[backup_transfer_transition(i, j)] = backup_times[j]
        return delays

    def timed_rates(self) -> dict[str, float]:
        """Every timed transition's rate ``1 / delay``, by name, without a net.

        The values are those :meth:`build`'s net carries, to the last bit,
        so a case can re-rate another model's net of the same
        :meth:`structure_key` with them.

        Raises:
            ModelError: if a delay is not a positive number of hours.
        """
        rates = {}
        for name, delay in self._delays().items():
            if not delay > 0.0:
                raise ModelError(
                    f"timed transition {name!r}: delay must be a positive mean "
                    f"time, got {delay!r}"
                )
            rates[name] = 1.0 / delay
        return rates

    def structure_key(self) -> tuple:
        """Every input :meth:`build` reads except the delays and the net's name.

        Two models with equal keys build nets that differ only in their timed
        rates (and name), so one net serves both once each case carries its
        own :meth:`timed_rates`.
        """
        key: tuple = (len(self.spec.datacenters), self.spec.physical_machines)
        if not self.spec.is_distributed:
            return key
        return key + (
            self.spec.has_backup_server,
            self.topology,
            self.minimum_operational_pms,
            self.max_in_flight_vms,
            self.capacity_aware_migration,
        )

    def build(self) -> StochasticPetriNet:
        """Assemble (and cache) the full SPN of the deployment."""
        if self._net is not None:
            return self._net
        delays = self._delays()

        def component(name: str) -> StochasticPetriNet:
            return build_simple_component(
                name,
                mttf=delays[failure_transition(name)],
                mttr=delays[repair_transition(name)],
            )

        blocks: list[StochasticPetriNet] = []
        for datacenter in self.spec.datacenters:
            blocks.append(component(datacenter.name))
            blocks.append(component(datacenter.network_name))
            for machine in self.spec.machines_of(datacenter.index):
                blocks.append(component(machine.name))
                vm_parameters = VmBehaviorParameters(
                    vm_mttf=delays[vm_failure_transition(machine.index)],
                    vm_mttr=delays[vm_repair_transition(machine.index)],
                    vm_start_time=delays[vm_start_transition(machine.index)],
                )
                blocks.append(build_vm_behavior(machine, datacenter, vm_parameters))

        if self.spec.is_distributed:
            if self.spec.has_backup_server:
                blocks.append(component(BACKUP_SERVER))
            indices = [dc.index for dc in self.spec.datacenters]
            # Every path the table names; a destination's restoration time is
            # the same from every source.
            direct_times = {
                (i, j): delays[transfer_transition(i, j)]
                for i in indices
                for j in indices
                if transfer_transition(i, j) in delays
            }
            backup_times = {
                j: delays[backup_transfer_transition(i, j)]
                for i in indices
                for j in indices
                if backup_transfer_transition(i, j) in delays
            }
            blocks.append(
                build_transmission_network(
                    self.spec.datacenters,
                    {
                        dc.index: self.spec.machines_of(dc.index)
                        for dc in self.spec.datacenters
                    },
                    direct_times,
                    backup_times,
                    topology=self.topology,
                    has_backup_server=self.spec.has_backup_server,
                    minimum_operational_pms=self.minimum_operational_pms,
                    max_in_flight_vms=self.max_in_flight_vms,
                    capacity_aware_migration=self.capacity_aware_migration,
                )
            )

        self._net = merge(self._model_name(), blocks)
        return self._net

    def _model_name(self) -> str:
        locations = [
            dc.location.name if dc.location is not None else f"DC{dc.index}"
            for dc in self.spec.datacenters
        ]
        return "CLOUD_" + "_".join(name.replace(" ", "") for name in locations)

    def _require_locations(self) -> None:
        if self.alpha is None:
            raise ConfigurationError(
                "a distributed deployment needs either explicit migration_times or "
                "an alpha value to derive them"
            )
        for datacenter in self.spec.datacenters:
            if datacenter.location is None:
                raise ConfigurationError(
                    f"data center {datacenter.index} has no location; distributed "
                    "deployments need locations (or explicit migration_times)"
                )
        if self.spec.has_backup_server and self.spec.backup_location is None:
            raise ConfigurationError(
                "the deployment includes a backup server but no backup location was given"
            )

    # --- metrics -------------------------------------------------------------

    def availability_expression(self, required_running_vms: Optional[int] = None) -> str:
        """The paper's availability predicate ``Σ #VM_UP_i ≥ k``."""
        k = required_running_vms or self.spec.required_running_vms
        total = " + ".join(
            f"#{vm_up_place(machine.index)}" for machine in self.spec.physical_machines
        )
        return f"({total}) >= {k}"

    def availability_measure(self, name: str = "availability") -> ProbabilityMeasure:
        """Availability as a measure object (usable by analysis and simulation)."""
        return ProbabilityMeasure(name, self.availability_expression())

    # --- symmetry ----------------------------------------------------------

    @staticmethod
    def _machine_place_profile(
        place_index: dict[str, int], machine: PhysicalMachineSpec
    ) -> tuple[int, ...]:
        return (
            place_index[up_place(machine.name)],
            place_index[down_place(machine.name)],
            place_index[vm_up_place(machine.index)],
            place_index[vm_down_place(machine.index)],
            place_index[vm_ready_place(machine.index)],
            place_index[vm_starting_place(machine.index)],
        )

    @staticmethod
    def _machine_rate_profile(machine: PhysicalMachineSpec) -> tuple[str, ...]:
        return (
            failure_transition(machine.name),
            repair_transition(machine.name),
            vm_failure_transition(machine.index),
            vm_repair_transition(machine.index),
            vm_start_transition(machine.index),
        )

    def symmetry_spec(
        self,
        dc_exchange: bool = True,
        structural: bool = False,
        *,
        net: Optional[StochasticPetriNet] = None,
        rates: Optional[Mapping[str, float]] = None,
    ) -> Optional[SymmetrySpec]:
        """The declarative exchangeability structure of this deployment.

        Detects two symmetry levels and returns them as one picklable
        :class:`~repro.symmetry.spec.SymmetrySpec` (or ``None`` when the
        deployment has no exploitable symmetry):

        * one flat orbit group per data center with ≥ 2 physical machines
          (PMs of one DC are stochastically identical by construction);
        * with ``dc_exchange``, one *paired* orbit group of exchangeable
          whole data centers — identical machine pools, identical disaster /
          network / backup-restoration rates, and a permutation-invariant
          transfer topology (every ordered pair connected with equal
          transfer rates, verified on the model's :meth:`timed_rates`, so
          explicit overrides and uniform-time deployments are judged by
          what they really parameterise).  Each DC block carries
          its local places (``DC_d``/``NAS_NET_d`` up+down, the
          ``FailedVMS_d`` pool), its PM place profiles and the
          ``TRF``/``TBF`` transmission places keyed by the DC pair.  When
          several exchangeability classes exist only the largest is lumped
          (the paired canonical form is exact for one group; the others
          keep their PM-level groups).

        With ``structural=True`` rate equality is not required — the
        returned spec describes the permutations under which the net
        *structure* alone is invariant.  Such a spec must not drive lumping
        (rates may break it) but powers the grid's symmetry-aware rate-digest
        dedupe: cases differing only by a permutation of exchangeable DC
        parameter blocks map to one canonical rate vector.

        Place indices come from ``net`` (default :meth:`build`), which may be
        the net of another model with this :meth:`structure_key`; ``rates``
        defaults to :meth:`timed_rates`.
        """
        if net is None:
            net = self.build()
        timed_rates = self.timed_rates() if rates is None else rates
        place_index = {name: i for i, name in enumerate(net.place_names)}
        marking_groups: list[OrbitGroup] = []
        rate_groups: list[OrbitGroup] = []
        for datacenter in self.spec.datacenters:
            machines = self.spec.machines_of(datacenter.index)
            if len(machines) < 2:
                continue
            marking_groups.append(
                OrbitGroup(
                    profiles=tuple(
                        self._machine_place_profile(place_index, machine)
                        for machine in machines
                    )
                )
            )
            rate_groups.append(
                OrbitGroup(
                    profiles=tuple(
                        self._machine_rate_profile(machine) for machine in machines
                    )
                )
            )
        kind = "pm"
        if dc_exchange and self.spec.is_distributed:
            members = self._exchangeable_datacenters(timed_rates, structural)
            if len(members) >= 2:
                dc_group, dc_rate_group = self._datacenter_orbit_group(
                    members, place_index, timed_rates
                )
                marking_groups.append(dc_group)
                rate_groups.append(dc_rate_group)
                kind = "dc+pm"
        if not marking_groups:
            return None
        return SymmetrySpec(
            place_count=len(net.place_names),
            marking_groups=tuple(marking_groups),
            rate_groups=tuple(rate_groups),
            kind=kind,
        )

    def _exchangeable_datacenters(
        self, timed_rates: Mapping[str, float], structural: bool
    ) -> list:
        """The largest verified class of mutually exchangeable data centers."""
        classes: dict[tuple, list] = {}
        for datacenter in self.spec.datacenters:
            key = (
                datacenter.hot_physical_machines,
                datacenter.warm_physical_machines,
                datacenter.vms_per_machine,
                datacenter.initial_vms_per_hot_machine,
            )
            classes.setdefault(key, []).append(datacenter)
        verified = [
            members
            for members in classes.values()
            if len(members) >= 2
            and self._class_is_exchangeable(members, timed_rates, structural)
        ]
        if not verified:
            return []
        return max(verified, key=len)

    def _class_is_exchangeable(
        self, members: list, timed_rates: Mapping[str, float], structural: bool
    ) -> bool:
        """Verify a same-profile DC class against the model's timed rates.

        Structural conditions (always): every ordered pair *within* the
        class has a direct migration path (a ring of N ≥ 4 never qualifies),
        and the paths to/from every fixed DC exist uniformly across the
        class.  Rate conditions (skipped when ``structural``): equal
        disaster / network rates, position-wise equal PM rates, one transfer
        rate within the class, and per-fixed-DC equal transfer/backup rates
        across the class.
        """
        indices = [dc.index for dc in members]
        member_set = set(indices)
        others = [
            dc.index
            for dc in self.spec.datacenters
            if dc.index not in member_set
        ]

        def uniform(names: list[str]) -> bool:
            """All present with one rate (or — structural — all present)."""
            if any(name not in timed_rates for name in names):
                return False
            if structural:
                return True
            return len({timed_rates[name] for name in names}) == 1

        def aligned_presence(names: list[str]) -> bool:
            present = {name in timed_rates for name in names}
            return len(present) == 1

        path_kinds = [transfer_transition]
        if self.spec.has_backup_server:
            path_kinds.append(backup_transfer_transition)
        for path in path_kinds:
            if not uniform([path(a, b) for a in indices for b in indices if a != b]):
                return False
            for fixed in others:
                for names in (
                    [path(a, fixed) for a in indices],
                    [path(fixed, a) for a in indices],
                ):
                    if not aligned_presence(names):
                        return False
                    if names[0] in timed_rates and not uniform(names):
                        return False
        if structural:
            return True
        for names in (
            [dc.name for dc in members],
            [dc.network_name for dc in members],
        ):
            for transition in (failure_transition, repair_transition):
                if not uniform([transition(name) for name in names]):
                    return False
        machine_lists = [self.spec.machines_of(a) for a in indices]
        for position in range(len(machine_lists[0])):
            profiles = [
                self._machine_rate_profile(machines[position])
                for machines in machine_lists
            ]
            for slot in range(len(profiles[0])):
                if not uniform([profile[slot] for profile in profiles]):
                    return False
        return True

    def _datacenter_orbit_group(
        self,
        members: list,
        place_index: dict[str, int],
        timed_rates: Mapping[str, float],
    ) -> tuple[OrbitGroup, OrbitGroup]:
        """The paired place/rate orbit groups of one exchangeable DC class."""
        member_set = {dc.index for dc in members}
        fixed = [
            dc.index
            for dc in self.spec.datacenters
            if dc.index not in member_set
        ]
        place_profiles = []
        rate_profiles = []
        paths = (
            (transfer_place, transfer_transition),
            (backup_transfer_place, backup_transfer_transition),
        )
        for datacenter in members:
            d = datacenter.index
            places = [
                place_index[up_place(datacenter.name)],
                place_index[down_place(datacenter.name)],
                place_index[up_place(datacenter.network_name)],
                place_index[down_place(datacenter.network_name)],
                place_index[datacenter.failed_pool_place],
            ]
            rates = [
                failure_transition(datacenter.name),
                repair_transition(datacenter.name),
                failure_transition(datacenter.network_name),
                repair_transition(datacenter.network_name),
            ]
            for machine in self.spec.machines_of(d):
                places.extend(self._machine_place_profile(place_index, machine))
                rates.extend(self._machine_rate_profile(machine))
            for f in fixed:
                for name in (
                    transfer_place(d, f),
                    transfer_place(f, d),
                    backup_transfer_place(d, f),
                    backup_transfer_place(f, d),
                ):
                    if name in place_index:
                        places.append(place_index[name])
                for name in (
                    transfer_transition(d, f),
                    transfer_transition(f, d),
                    backup_transfer_transition(d, f),
                    backup_transfer_transition(f, d),
                ):
                    if name in timed_rates:
                        rates.append(name)
            place_profiles.append(tuple(places))
            rate_profiles.append(tuple(rates))
        b = len(members)
        place_pairs = [[() for _ in range(b)] for _ in range(b)]
        rate_pairs = [[() for _ in range(b)] for _ in range(b)]
        for i, source in enumerate(members):
            for j, target in enumerate(members):
                if i == j:
                    continue
                pair_places = []
                pair_rates = []
                for path_place, path_transition in paths:
                    place_name = path_place(source.index, target.index)
                    rate_name = path_transition(source.index, target.index)
                    if place_name in place_index:
                        pair_places.append(place_index[place_name])
                    if rate_name in timed_rates:
                        pair_rates.append(rate_name)
                place_pairs[i][j] = tuple(pair_places)
                rate_pairs[i][j] = tuple(pair_rates)
        return (
            OrbitGroup(
                profiles=tuple(place_profiles),
                pairs=tuple(tuple(row) for row in place_pairs),
            ),
            OrbitGroup(
                profiles=tuple(rate_profiles),
                pairs=tuple(tuple(row) for row in rate_pairs),
            ),
        )

    def solve(
        self,
        method: str = "auto",
        max_states: int = 500_000,
        symmetry_reduction: Optional[bool] = None,
    ) -> SteadyStateSolution:
        """Generate the tangible state space and solve the underlying CTMC.

        Args:
            method: stationary solver (see :func:`repro.markov.solvers.steady_state`).
            max_states: tangible state-space limit.
            symmetry_reduction: exploit the exchangeability of PMs within
                each data center — and of whole identical data centers — to
                solve the exactly lumped CTMC instead of the full one.
                ``None`` (the default) resolves to the library-wide
                :data:`repro.symmetry.DEFAULT_SYMMETRY_REDUCTION` (on), the
                same default the case-study grid uses.
                The lumping is exact, so every measure value is bit-for-bit
                independent of this flag; pass ``False`` to inspect the
                unlumped chain.
        """
        from repro.spn.reachability import generate_tangible_reachability_graph

        if symmetry_reduction is None:
            symmetry_reduction = DEFAULT_SYMMETRY_REDUCTION
        graph = generate_tangible_reachability_graph(
            self.build(),
            max_states=max_states,
            symmetry=self.symmetry_spec() if symmetry_reduction else None,
        )
        return solve_steady_state(graph, method=method)

    def availability(
        self,
        method: str = "auto",
        solution: Optional[SteadyStateSolution] = None,
    ) -> AvailabilityResult:
        """Steady-state availability ``P{Σ #VM_UP_i ≥ k}`` of the deployment."""
        if solution is None:
            solution = self.solve(method=method)
        value = solution.probability(self.availability_expression())
        return AvailabilityResult(min(1.0, max(0.0, value)), label=self._model_name())

    def expected_running_vms(
        self, solution: Optional[SteadyStateSolution] = None
    ) -> float:
        """Expected number of running VMs ``E{Σ #VM_UP_i}``."""
        if solution is None:
            solution = self.solve()
        total = " + ".join(
            f"#{vm_up_place(machine.index)}" for machine in self.spec.physical_machines
        )
        return solution.expected_tokens(f"({total})")

    def simulate_availability(
        self,
        horizon: float = 1_000_000.0,
        replications: int = 5,
        seed: Optional[int] = None,
    ) -> SimulationResult:
        """Monte-Carlo estimate of the availability (cross-validation path)."""
        return simulate(
            self.build(),
            [self.availability_measure()],
            horizon=horizon,
            replications=replications,
            seed=seed,
        )
