"""Ablation studies over the design knobs of Section III (experiment E6).

The paper's system description exposes several design choices that the case
study keeps fixed: the warm pool size, the availability threshold ``k``, the
presence of the backup server and the VM start time.  The ablations here vary
one knob at a time on a (configurable) two-data-center deployment so a
designer can see how much each mechanism actually buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.casestudy.grid import (
    StructureMemo,
    clamped_availability,
    complete_rows,
    structure_and_rates,
)
from repro.core.cloud_model import CloudSystemModel
from repro.core.datacenter import two_datacenter_spec
from repro.core.parameters import CaseStudyParameters, DEFAULT_PARAMETERS
from repro.engine import TRGCache
from repro.engine.grid import GridCase, GridOutcome, ScenarioGridOrchestrator
from repro.metrics import AvailabilityResult, Duration
from repro.network.geo import BRASILIA, RIO_DE_JANEIRO, SAO_PAULO, City
from repro.spn.rewards import ProbabilityMeasure


@dataclass(frozen=True)
class AblationResult:
    """Availability of one ablated configuration."""

    name: str
    description: str
    availability: AvailabilityResult

    @property
    def nines(self) -> float:
        return self.availability.nines


@dataclass
class AblationStudy:
    """Builds and evaluates the ablated configurations.

    The default deployment is deliberately smaller than the case study (one
    hot PM per data center) so every ablation solves in seconds; pass
    ``machines_per_datacenter=2`` to run the ablations on the full
    configuration.
    """

    first_location: City = RIO_DE_JANEIRO
    second_location: City = BRASILIA
    backup_location: City = SAO_PAULO
    alpha: float = 0.35
    machines_per_datacenter: int = 1
    required_running_vms: int = 1
    parameters: CaseStudyParameters = field(default_factory=lambda: DEFAULT_PARAMETERS)
    use_cache: bool = True
    #: Worker budget of the suite's orchestrated grid.
    jobs: Optional[int] = None
    #: :class:`~repro.engine.grid.GridOutcome` of the last
    #: :meth:`run_default_suite` call (dedupe provenance).
    last_grid_outcome: Optional[GridOutcome] = field(default=None, repr=False)

    def _model(
        self,
        warm_machines: int = 0,
        has_backup: bool = True,
        required: Optional[int] = None,
        parameters: Optional[CaseStudyParameters] = None,
    ) -> CloudSystemModel:
        parameters = parameters or self.parameters
        spec = two_datacenter_spec(
            first_location=self.first_location,
            second_location=self.second_location,
            backup_location=self.backup_location if has_backup else None,
            machines_per_datacenter=self.machines_per_datacenter,
            vms_per_machine=parameters.vms_per_physical_machine,
            required_running_vms=required or self.required_running_vms,
            warm_machines_per_datacenter=warm_machines,
        )
        if not has_backup:
            spec = replace(spec, has_backup_server=False)
        return CloudSystemModel(spec=spec, parameters=parameters, alpha=self.alpha)

    def run_default_suite(self) -> list[AblationResult]:
        """The standard set of ablations used by the benchmark and EXPERIMENTS.md.

        The whole suite runs as **one** orchestrated scenario grid
        (:mod:`repro.engine.grid`): the reference, the VM-start-time points
        (pure rate changes) and the threshold ablation (an expression-only
        change) share one structure group — one generation or cache hit,
        warm-started re-solves — while the backup-removal and warm-pool
        ablations generate their own structures concurrently.  The
        threshold ablation re-rates the reference structure with identical
        rates (it only changes the availability expression), so it shares
        the reference's stationary vector instead of solving again.  Batches
        fan out over up to :attr:`jobs` workers.
        """
        reference_model = self._model()
        structures: StructureMemo = {}

        def grid_case(name, model, description, expression=None):
            structure, rates = structure_and_rates(model, structures)
            return GridCase(
                name=name,
                net=structure.net,
                measures=(
                    ProbabilityMeasure(
                        "availability", expression or model.availability_expression()
                    ),
                ),
                rates=rates,
                metadata={"description": description},
            )

        cases = [
            grid_case(
                "reference",
                reference_model,
                "backup server present, no warm pool, default threshold",
            ),
            grid_case(
                "no_backup_server",
                self._model(has_backup=False),
                "backup server removed",
            ),
            grid_case(
                "warm_pool_1",
                self._model(warm_machines=1),
                "1 warm machine(s) added per data center",
            ),
        ]
        for minutes in (5.0, 30.0, 60.0):
            # A pure rate change: same structure, so the same group as the
            # reference.
            parameters = replace(
                self.parameters, vm_start_time=Duration.from_minutes(minutes)
            )
            cases.append(
                grid_case(
                    f"vm_start_{minutes:g}min",
                    self._model(parameters=parameters),
                    f"VM start time of {minutes:g} minutes",
                )
            )
        maximum_vms = (
            self.machines_per_datacenter
            * 2
            * self.parameters.vms_per_physical_machine
        )
        stricter = self.required_running_vms + 1
        if stricter <= maximum_vms:
            # Assemble the stricter spec purely for its validation; the
            # threshold only changes the availability *expression*.
            self._model(required=stricter)
            cases.append(
                grid_case(
                    f"threshold_k{stricter}",
                    reference_model,
                    f"system requires k={stricter} running VMs",
                    expression=reference_model.availability_expression(
                        required_running_vms=stricter
                    ),
                )
            )

        orchestrator = ScenarioGridOrchestrator(
            cache=TRGCache() if self.use_cache else None,
            jobs=self.jobs,
            generation_workers=self.jobs,
        )
        outcome = orchestrator.run(cases)
        self.last_grid_outcome = outcome
        return [
            AblationResult(
                name=row.name,
                description=str(row.metadata["description"]),
                availability=AvailabilityResult(
                    clamped_availability(row), label=row.name
                ),
            )
            for row in complete_rows(outcome)
        ]
