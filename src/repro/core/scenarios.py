"""Case-study scenarios: city pairs, baselines and distributed configurations.

Section V of the paper evaluates

* three non-distributed baselines (one, two and four machines in a single
  data center), and
* two-data-center deployments for five city pairs — Rio de Janeiro paired
  with Brasília, Recife, New York, Calcutta and Tokyo — with the backup
  server in São Paulo, swept over α ∈ {0.35, 0.40, 0.45} and disaster mean
  time ∈ {100, 200, 300} years.

This module turns those descriptions into ready-to-solve
:class:`~repro.core.cloud_model.CloudSystemModel` instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cloud_model import CloudSystemModel
from repro.core.datacenter import (
    multi_datacenter_spec,
    single_datacenter_spec,
    two_datacenter_spec,
)
from repro.core.parameters import CaseStudyParameters, DEFAULT_PARAMETERS
from repro.exceptions import ConfigurationError
from repro.network.geo import (
    BRASILIA,
    CALCUTTA,
    NEW_YORK,
    RECIFE,
    RIO_DE_JANEIRO,
    SAO_PAULO,
    TOKYO,
    City,
)
from repro.network.throughput import validate_alpha

#: The five city pairs of the case study (first data center is Rio de Janeiro).
CITY_PAIRS: tuple[tuple[City, City], ...] = (
    (RIO_DE_JANEIRO, BRASILIA),
    (RIO_DE_JANEIRO, RECIFE),
    (RIO_DE_JANEIRO, NEW_YORK),
    (RIO_DE_JANEIRO, CALCUTTA),
    (RIO_DE_JANEIRO, TOKYO),
)

#: Location of the backup server in the case study.
BACKUP_LOCATION: City = SAO_PAULO

#: Baseline α and disaster mean time (the reference bars of Figure 7).
BASELINE_ALPHA = 0.35
BASELINE_DISASTER_YEARS = 100.0


def _axis_value(value: float) -> str:
    """Label formatting of a numeric axis value.

    The paper's values render as before (``0.35``, ``100``), but arbitrary
    sweep points keep their full precision — labels double as unique grid
    case names, so rounding two distinct values onto one string (``0.351``
    and ``0.352`` both to ``0.35``) must not happen.
    """
    return f"{value:g}"


def _check_disaster_mean_time(years: float) -> None:
    """Refuse a disaster mean time that is not a positive, finite number.

    NaN passes every ``<=`` comparison and an infinite mean time turns the
    disaster rate into zero, so both are checked explicitly.
    """
    if not (math.isfinite(years) and years > 0.0):
        raise ConfigurationError(
            f"the disaster mean time must be a positive, finite number of "
            f"years, got {years!r}"
        )


@dataclass(frozen=True)
class DistributedScenario:
    """One two-data-center configuration of the case study.

    Attributes:
        first / second: data-center locations.
        alpha: network-speed coefficient.
        disaster_mean_time_years: mean time between disasters per data center.
        backup: backup-server location.
        machines_per_datacenter: hot PMs per data center; ``None`` (the
            default) means the paper's 2.  The count shapes the net, so
            scenarios with different counts never share a structure group
            of the grid orchestrator.
    """

    first: City
    second: City
    alpha: float = BASELINE_ALPHA
    disaster_mean_time_years: float = BASELINE_DISASTER_YEARS
    backup: City = BACKUP_LOCATION
    machines_per_datacenter: Optional[int] = None

    def __post_init__(self) -> None:
        validate_alpha(self.alpha)
        _check_disaster_mean_time(self.disaster_mean_time_years)
        if (
            self.machines_per_datacenter is not None
            and self.machines_per_datacenter < 1
        ):
            raise ConfigurationError(
                f"a data center needs at least one machine, got "
                f"{self.machines_per_datacenter!r}"
            )

    @property
    def label(self) -> str:
        """Human-readable identifier used in result tables."""
        extras = [
            f"alpha={_axis_value(self.alpha)}",
            f"disaster={_axis_value(self.disaster_mean_time_years)}y",
        ]
        if self.machines_per_datacenter is not None:
            extras.append(f"machines={self.machines_per_datacenter}")
        return f"{self.first.name} - {self.second.name} ({', '.join(extras)})"

    def build_model(
        self, parameters: Optional[CaseStudyParameters] = None
    ) -> CloudSystemModel:
        """Instantiate the CloudSystemModel for this scenario."""
        base = parameters or DEFAULT_PARAMETERS
        base = base.with_disaster_mean_time(self.disaster_mean_time_years)
        spec = two_datacenter_spec(
            first_location=self.first,
            second_location=self.second,
            backup_location=self.backup,
            machines_per_datacenter=(
                self.machines_per_datacenter
                if self.machines_per_datacenter is not None
                else 2
            ),
            vms_per_machine=base.vms_per_physical_machine,
            required_running_vms=base.required_running_vms,
        )
        return CloudSystemModel(spec=spec, parameters=base, alpha=self.alpha)


def baseline_distributed_scenarios() -> list[DistributedScenario]:
    """The five baseline architectures of Table VII (α = 0.35, 100-year disasters)."""
    return [DistributedScenario(first, second) for first, second in CITY_PAIRS]


@dataclass(frozen=True)
class SingleDataCenterScenario:
    """A non-distributed baseline of Table VII.

    ``disaster_mean_time_years`` (when set) overrides the disaster mean time
    of ``parameters`` — a single site still suffers disasters, so the grid
    sweeps this axis for baselines too.  ``location`` only labels the site
    (a single site has no migration paths).
    """

    machines: int
    label: str
    parameters: CaseStudyParameters = field(default_factory=lambda: DEFAULT_PARAMETERS)
    disaster_mean_time_years: Optional[float] = None
    location: City = RIO_DE_JANEIRO

    def __post_init__(self) -> None:
        if self.disaster_mean_time_years is not None:
            _check_disaster_mean_time(self.disaster_mean_time_years)

    def build_model(self) -> CloudSystemModel:
        if self.machines < 1:
            raise ConfigurationError("a baseline needs at least one machine")
        parameters = self.parameters
        if self.disaster_mean_time_years is not None:
            parameters = parameters.with_disaster_mean_time(
                self.disaster_mean_time_years
            )
        spec = single_datacenter_spec(
            machines=self.machines,
            vms_per_machine=parameters.vms_per_physical_machine,
            required_running_vms=parameters.required_running_vms,
            location=self.location,
        )
        return CloudSystemModel(spec=spec, parameters=parameters)


@dataclass(frozen=True)
class MultiDataCenterScenario:
    """A geo-distributed deployment over N ≥ 2 data centers.

    Generalises :class:`DistributedScenario` beyond the paper's city pairs:
    any number of locations, a configurable migration topology (full mesh
    or ring), an optional backup server, a per-scenario machine count and
    the paper's ``l`` migration threshold.

    Attributes:
        locations: data-center cities (1-based indices in order).
        alpha: network-speed coefficient.
        disaster_mean_time_years: mean time between disasters per data center.
        backup: backup-server location (ignored when ``has_backup_server``
            is false).
        machines_per_datacenter: hot PMs per data center.
        topology: ``"mesh"`` or ``"ring"`` migration paths.
        minimum_operational_pms: the paper's ``l`` threshold for migrating
            VMs out of a data center.
        has_backup_server: include the backup server and its restoration
            paths.
        uniform_transfer_hours / uniform_backup_hours: bypass the geographic
            transmission-time calculation with one mean transfer (backup)
            time shared by every path — the idealised *homogeneous*
            deployment whose data centers are fully exchangeable, which the
            symmetry machinery lumps ~N!-fold
            (see :meth:`repro.core.cloud_model.CloudSystemModel.symmetry_spec`).
    """

    locations: tuple[City, ...]
    alpha: float = BASELINE_ALPHA
    disaster_mean_time_years: float = BASELINE_DISASTER_YEARS
    backup: Optional[City] = BACKUP_LOCATION
    machines_per_datacenter: int = 2
    topology: str = "mesh"
    minimum_operational_pms: int = 1
    has_backup_server: bool = True
    uniform_transfer_hours: Optional[float] = None
    uniform_backup_hours: Optional[float] = None
    max_in_flight_vms: Optional[int] = None
    capacity_aware_migration: bool = False

    def __post_init__(self) -> None:
        validate_alpha(self.alpha)
        _check_disaster_mean_time(self.disaster_mean_time_years)
        if len(self.locations) < 2:
            raise ConfigurationError(
                "a multi-data-center scenario needs at least two locations; "
                "use SingleDataCenterScenario for one site"
            )
        if self.machines_per_datacenter < 1:
            raise ConfigurationError("each data center needs at least one machine")
        if self.has_backup_server and self.backup is None:
            raise ConfigurationError(
                "a scenario with a backup server needs a backup location"
            )

    @property
    def label(self) -> str:
        """Human-readable identifier used in result tables."""
        cities = " - ".join(city.name for city in self.locations)
        extras = [
            f"alpha={_axis_value(self.alpha)}",
            f"disaster={_axis_value(self.disaster_mean_time_years)}y",
            f"machines={self.machines_per_datacenter}",
        ]
        if len(self.locations) > 2:
            extras.append(f"topology={self.topology}")
        if self.minimum_operational_pms != 1:
            extras.append(f"l={self.minimum_operational_pms}")
        if not self.has_backup_server:
            extras.append("no-backup")
        if self.uniform_transfer_hours is not None:
            extras.append(f"transfer={_axis_value(self.uniform_transfer_hours)}h")
        if self.uniform_backup_hours is not None:
            extras.append(f"backup={_axis_value(self.uniform_backup_hours)}h")
        if self.max_in_flight_vms is not None:
            extras.append(f"in-flight<={self.max_in_flight_vms}")
        if self.capacity_aware_migration:
            extras.append("capacity-aware")
        return f"{cities} ({', '.join(extras)})"

    def build_model(
        self, parameters: Optional[CaseStudyParameters] = None
    ) -> CloudSystemModel:
        """Instantiate the CloudSystemModel for this scenario."""
        base = parameters or DEFAULT_PARAMETERS
        base = base.with_disaster_mean_time(self.disaster_mean_time_years)
        spec = multi_datacenter_spec(
            locations=self.locations,
            backup_location=self.backup if self.has_backup_server else None,
            machines_per_datacenter=self.machines_per_datacenter,
            vms_per_machine=base.vms_per_physical_machine,
            required_running_vms=base.required_running_vms,
            has_backup_server=self.has_backup_server,
        )
        return CloudSystemModel(
            spec=spec,
            parameters=base,
            alpha=self.alpha,
            topology=self.topology,
            minimum_operational_pms=self.minimum_operational_pms,
            uniform_transfer_hours=self.uniform_transfer_hours,
            uniform_backup_hours=self.uniform_backup_hours,
            max_in_flight_vms=self.max_in_flight_vms,
            capacity_aware_migration=self.capacity_aware_migration,
        )


def homogeneous_mesh_scenario(
    datacenters: int,
    machines_per_datacenter: int = 2,
    transfer_hours: float = 0.25,
    backup_hours: Optional[float] = None,
    location: City = RIO_DE_JANEIRO,
    **kwargs,
) -> MultiDataCenterScenario:
    """A fully exchangeable N-data-center mesh (one site replicated N times).

    Every data center carries the same machine pool and every migration path
    the same uniform transfer time, so the deployment is invariant under all
    ``N!`` permutations of its data centers — the configuration where
    symmetry reduction pays the most (an N = 5 mesh only fits the state
    limit lumped).
    """
    return MultiDataCenterScenario(
        locations=(location,) * datacenters,
        machines_per_datacenter=machines_per_datacenter,
        topology="mesh",
        uniform_transfer_hours=transfer_hours,
        uniform_backup_hours=backup_hours,
        **kwargs,
    )


def single_datacenter_baselines() -> list[SingleDataCenterScenario]:
    """The three single-site baselines of Table VII."""
    return [
        SingleDataCenterScenario(machines=1, label="Cloud system with one machine"),
        SingleDataCenterScenario(
            machines=2, label="Cloud system with two machines in one data center"
        ),
        SingleDataCenterScenario(
            machines=4, label="Cloud system with four machines in one data center"
        ),
    ]
