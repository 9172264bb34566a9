"""Parameter sensitivity analysis (supporting experiment E3).

The paper takes its component parameters from external sources (Table VI,
refs. [19]-[22]) without discussing how sensitive the conclusions are to
them.  This module quantifies that: each component's MTTF (or MTTR) is
perturbed by a multiplicative factor, the system availability is re-evaluated
and the impact is reported, which tells a designer which Table VI entry is
worth improving (or measuring more carefully).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.casestudy.grid import StructureMemo, complete_rows, structure_and_rates
from repro.core.cloud_model import CloudSystemModel
from repro.core.datacenter import single_datacenter_spec
from repro.core.parameters import (
    CaseStudyParameters,
    ComponentParameters,
    DEFAULT_PARAMETERS,
    FailureRepairPair,
)
from repro.engine import TRGCache
from repro.engine.grid import GridCase, ScenarioGridOrchestrator
from repro.exceptions import ConfigurationError
from repro.spn.rewards import ProbabilityMeasure

#: Grid case name of the unperturbed model.
BASELINE_CASE = "baseline"

#: The Table VI components that can be perturbed.
COMPONENT_NAMES: tuple[str, ...] = (
    "operating_system",
    "physical_machine",
    "switch",
    "router",
    "nas",
    "virtual_machine",
    "backup_server",
)


@dataclass(frozen=True)
class SensitivityEntry:
    """Availability impact of perturbing one component parameter."""

    component: str
    parameter: str  # "mttf" or "mttr"
    factor: float
    baseline_availability: float
    perturbed_availability: float

    @property
    def availability_delta(self) -> float:
        return self.perturbed_availability - self.baseline_availability

    @property
    def nines_delta(self) -> float:
        from repro.metrics import number_of_nines

        return number_of_nines(self.perturbed_availability) - number_of_nines(
            self.baseline_availability
        )


def _perturbed(components: ComponentParameters, name: str, parameter: str, factor: float) -> ComponentParameters:
    pair: FailureRepairPair = getattr(components, name)
    if parameter == "mttf":
        replacement = FailureRepairPair(pair.mttf_hours * factor, pair.mttr_hours)
    elif parameter == "mttr":
        replacement = FailureRepairPair(pair.mttf_hours, pair.mttr_hours * factor)
    else:
        raise ConfigurationError(f"parameter must be 'mttf' or 'mttr', got {parameter!r}")
    return components.with_override(name, replacement)


def default_model_factory(parameters: CaseStudyParameters) -> CloudSystemModel:
    """Model used by default for sensitivity: the four-machine single site.

    The single-site model keeps the state space small enough that the full
    one-at-a-time sweep runs in seconds while still exercising every
    component of Table VI except the backup server.
    """
    return CloudSystemModel(
        spec=single_datacenter_spec(
            machines=4,
            vms_per_machine=parameters.vms_per_physical_machine,
            required_running_vms=parameters.required_running_vms,
        ),
        parameters=parameters,
    )


@dataclass
class SensitivityAnalysis:
    """One-at-a-time sensitivity sweep over the Table VI parameters."""

    parameters: CaseStudyParameters = field(default_factory=lambda: DEFAULT_PARAMETERS)
    model_factory: Callable[[CaseStudyParameters], CloudSystemModel] = default_model_factory
    factor: float = 2.0
    components: Sequence[str] = COMPONENT_NAMES
    perturb: str = "mttf"
    use_cache: bool = True

    def __post_init__(self) -> None:
        if self.factor <= 0.0 or self.factor == 1.0:
            raise ConfigurationError(
                f"the perturbation factor must be positive and different from 1, got {self.factor!r}"
            )
        unknown = set(self.components) - set(COMPONENT_NAMES)
        if unknown:
            raise ConfigurationError(f"unknown components: {sorted(unknown)}")
        if self.perturb not in ("mttf", "mttr"):
            raise ConfigurationError("perturb must be 'mttf' or 'mttr'")

    def _perturbed_parameters(self, component: str) -> CaseStudyParameters:
        perturbed_components = _perturbed(
            self.parameters.components, component, self.perturb, self.factor
        )
        return CaseStudyParameters(
            components=perturbed_components,
            disaster=self.parameters.disaster,
            vm_image_size=self.parameters.vm_image_size,
            vm_start_time=self.parameters.vm_start_time,
            required_running_vms=self.parameters.required_running_vms,
            vms_per_physical_machine=self.parameters.vms_per_physical_machine,
        )

    def run(self, max_workers: Optional[int] = None) -> list[SensitivityEntry]:
        """Evaluate every requested component perturbation.

        The unperturbed model and every perturbation run as one orchestrated
        grid.  A component perturbation only rescales transition rates, so
        every case shares the baseline's net (one per
        :meth:`~repro.core.cloud_model.CloudSystemModel.structure_key`) with
        its own rates: the state space is generated (or loaded from the
        cache) once and every perturbation is a re-rating of it.  A custom
        ``model_factory`` whose perturbations change the structure — places,
        arcs, guards or the initial marking — gets one net and one group per
        distinct structure.  ``max_workers`` bounds the engine workers the
        batches fan out over.

        Entries are sorted by decreasing absolute availability impact so the
        most influential parameter comes first.
        """
        structures: StructureMemo = {}

        def case(name: str, model: CloudSystemModel) -> GridCase:
            structure, rates = structure_and_rates(model, structures)
            return GridCase(
                name=name,
                net=structure.net,
                measures=(
                    ProbabilityMeasure(
                        "availability", model.availability_expression()
                    ),
                ),
                rates=rates,
            )

        cases = [case(BASELINE_CASE, self.model_factory(self.parameters))]
        cases.extend(
            case(
                component,
                self.model_factory(self._perturbed_parameters(component)),
            )
            for component in self.components
        )
        outcome = ScenarioGridOrchestrator(
            cache=TRGCache() if self.use_cache else None,
            jobs=max_workers,
            generation_workers=max_workers,
        ).run(cases)
        availabilities = {
            row.name: row.value("availability") for row in complete_rows(outcome)
        }
        entries = [
            SensitivityEntry(
                component=component,
                parameter=self.perturb,
                factor=self.factor,
                baseline_availability=availabilities[BASELINE_CASE],
                perturbed_availability=availabilities[component],
            )
            for component in self.components
        ]
        entries.sort(key=lambda entry: abs(entry.availability_delta), reverse=True)
        return entries
