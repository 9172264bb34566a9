"""Ablation studies over the design knobs of Section III (experiment E6).

The paper's system description exposes several design choices that the case
study keeps fixed: the warm pool size, the availability threshold ``k``, the
presence of the backup server and the VM start time.  The ablations here vary
one knob at a time on a (configurable) two-data-center deployment so a
designer can see how much each mechanism actually buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.casestudy.sensitivity import timed_transition_rates
from repro.core.cloud_model import CloudSystemModel
from repro.core.datacenter import two_datacenter_spec
from repro.core.parameters import CaseStudyParameters, DEFAULT_PARAMETERS
from repro.engine import ScenarioBatchEngine, ScenarioSpec, TRGCache
from repro.metrics import AvailabilityResult, Duration
from repro.network.geo import BRASILIA, RIO_DE_JANEIRO, SAO_PAULO, City
from repro.spn.analysis import SteadyStateSolution
from repro.spn.rewards import ProbabilityMeasure


#: Names / descriptions shared by the single-ablation methods and the
#: orchestrated default suite, so the two can never drift apart.
REFERENCE_NAME = "reference"
REFERENCE_DESCRIPTION = "backup server present, no warm pool, default threshold"
NO_BACKUP_NAME = "no_backup_server"
NO_BACKUP_DESCRIPTION = "backup server removed"


def warm_pool_name(warm_machines: int) -> str:
    return f"warm_pool_{warm_machines}"


def warm_pool_description(warm_machines: int) -> str:
    return f"{warm_machines} warm machine(s) added per data center"


def vm_start_name(minutes: float) -> str:
    return f"vm_start_{minutes:g}min"


def vm_start_description(minutes: float) -> str:
    return f"VM start time of {minutes:g} minutes"


def threshold_name(required_running_vms: int) -> str:
    return f"threshold_k{required_running_vms}"


def threshold_description(required_running_vms: int) -> str:
    return f"system requires k={required_running_vms} running VMs"


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
    #: Worker count / backend for the rate-only ablation batches
    #: (see :meth:`with_vm_start_times`).
    jobs: Optional[int] = None
    backend: str = "auto"
    #: Share stationary vectors across rate-identical suite cases — the
    #: threshold ablation re-rates the reference structure with *identical*
    #: rates (it only changes the availability expression), so with dedupe
    #: it never solves a second time.
    dedupe: bool = True
    #: :class:`~repro.engine.grid.GridOutcome` of the last
    #: :meth:`run_default_suite` call (dedupe provenance).
    last_grid_outcome: Optional[object] = field(default=None, repr=False)
    _engines: dict = field(default_factory=dict, repr=False)
    _base_solutions: dict = field(default_factory=dict, repr=False)

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

    # --- engine plumbing --------------------------------------------------
    #
    # Ablations fall into three classes: structural changes (warm pool,
    # backup removal) get their own engine/state space; rate-only changes
    # (VM start time) re-rate the reference state space; expression-only
    # changes (threshold k) re-use the reference *solution* outright.

    def _engine_and_model(
        self, warm_machines: int = 0, has_backup: bool = True
    ) -> tuple[ScenarioBatchEngine, CloudSystemModel]:
        key = (warm_machines, has_backup)
        if key not in self._engines:
            model = self._model(warm_machines=warm_machines, has_backup=has_backup)
            engine = ScenarioBatchEngine(
                model.build(), cache=TRGCache() if self.use_cache else None
            )
            self._engines[key] = (engine, model)
        return self._engines[key]

    def _base_solution(
        self, warm_machines: int = 0, has_backup: bool = True
    ) -> tuple[SteadyStateSolution, CloudSystemModel]:
        key = (warm_machines, has_backup)
        if key not in self._base_solutions:
            engine, model = self._engine_and_model(warm_machines, has_backup)
            self._base_solutions[key] = (engine.solve(), model)
        return self._base_solutions[key]

    def reference(self) -> AblationResult:
        """The un-ablated reference configuration."""
        solution, model = self._base_solution()
        return AblationResult(
            name=REFERENCE_NAME,
            description=REFERENCE_DESCRIPTION,
            availability=model.availability(solution=solution),
        )

    def without_backup_server(self) -> AblationResult:
        """Remove the backup server (disasters can only be absorbed by direct migration)."""
        solution, model = self._base_solution(has_backup=False)
        return AblationResult(
            name=NO_BACKUP_NAME,
            description=NO_BACKUP_DESCRIPTION,
            availability=model.availability(solution=solution),
        )

    def with_warm_pool(self, warm_machines: int = 1) -> AblationResult:
        """Add warm (idle but powered) machines to every data center."""
        solution, model = self._base_solution(warm_machines=warm_machines)
        return AblationResult(
            name=warm_pool_name(warm_machines),
            description=warm_pool_description(warm_machines),
            availability=model.availability(solution=solution),
        )

    def with_threshold(self, required_running_vms: int) -> AblationResult:
        """Change the availability threshold k.

        The threshold only appears in the availability *expression*, not in
        the net, so the reference solution is re-used as-is and only the
        measure is re-evaluated.
        """
        # Assemble the ablated spec purely for its validation (it raises on
        # thresholds the deployment cannot satisfy); the solution is shared.
        self._model(required=required_running_vms)
        solution, model = self._base_solution()
        value = solution.probability(
            model.availability_expression(required_running_vms=required_running_vms)
        )
        return AblationResult(
            name=threshold_name(required_running_vms),
            description=threshold_description(required_running_vms),
            availability=AvailabilityResult(
                min(1.0, max(0.0, value)),
                label=f"k={required_running_vms}",
            ),
        )

    def with_vm_start_time(self, minutes: float) -> AblationResult:
        """Change the VM start time (the paper uses five minutes).

        A pure rate change: the perturbed net is assembled only to read off
        its rate assignment, which re-rates the reference state space.
        """
        (result,) = self.with_vm_start_times([minutes])
        return result

    def with_vm_start_times(
        self, minutes_list: Sequence[float]
    ) -> list[AblationResult]:
        """Evaluate several VM start times as one batch on the reference space.

        All points are pure rate changes of the reference structure, so the
        whole list is submitted to the batch engine at once (re-rate +
        re-fill + warm-started re-solve per point, measures in one GEMM) and
        fans out over :attr:`jobs` workers of :attr:`backend`.
        """
        engine, model = self._engine_and_model()
        specs = []
        for minutes in minutes_list:
            parameters = replace(
                self.parameters, vm_start_time=Duration.from_minutes(minutes)
            )
            perturbed = self._model(parameters=parameters)
            specs.append(
                ScenarioSpec(
                    name=f"vm_start_{minutes:g}min",
                    rates=timed_transition_rates(perturbed.build()),
                    metadata={"minutes": float(minutes)},
                )
            )
        results = engine.run(
            specs,
            [ProbabilityMeasure("availability", model.availability_expression())],
            max_workers=self.jobs,
            backend=self.backend,
        )
        return [
            AblationResult(
                name=result.name,
                description=vm_start_description(
                    float(result.spec.metadata["minutes"])
                ),
                availability=AvailabilityResult(
                    min(1.0, max(0.0, result.value("availability"))),
                    label=result.name,
                ),
            )
            for result in results
        ]

    def run_default_suite(self) -> list[AblationResult]:
        """The standard set of ablations used by the benchmark and EXPERIMENTS.md.

        The whole suite runs as **one** orchestrated scenario grid
        (:mod:`repro.engine.grid`): the reference, the VM-start-time points
        (pure rate changes) and the threshold ablation (an expression-only
        change) share one structure group — one generation or cache hit,
        warm-started re-solves — while the backup-removal and warm-pool
        ablations generate their own structures concurrently.  Batches fan
        out over :attr:`jobs` workers of :attr:`backend`.
        """
        from repro.engine.grid import GridCase, ScenarioGridOrchestrator

        reference_model = self._model()
        reference_expression = reference_model.availability_expression()

        def grid_case(name, model, description, expression=None, rates=None):
            return GridCase(
                name=name,
                net=model.build(),
                measures=(
                    ProbabilityMeasure(
                        "availability", expression or model.availability_expression()
                    ),
                ),
                rates=rates or {},
                metadata={"description": description},
            )

        cases = [
            grid_case(REFERENCE_NAME, reference_model, REFERENCE_DESCRIPTION),
            grid_case(
                NO_BACKUP_NAME, self._model(has_backup=False), NO_BACKUP_DESCRIPTION
            ),
            grid_case(
                warm_pool_name(1), self._model(warm_machines=1), warm_pool_description(1)
            ),
        ]
        for minutes in (5.0, 30.0, 60.0):
            perturbed = self._model(
                parameters=replace(
                    self.parameters, vm_start_time=Duration.from_minutes(minutes)
                )
            )
            cases.append(
                grid_case(
                    vm_start_name(minutes),
                    reference_model,
                    vm_start_description(minutes),
                    expression=reference_expression,
                    rates=timed_transition_rates(perturbed.build()),
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
                    threshold_name(stricter),
                    reference_model,
                    threshold_description(stricter),
                    expression=reference_model.availability_expression(
                        required_running_vms=stricter
                    ),
                )
            )

        orchestrator = ScenarioGridOrchestrator(
            cache=TRGCache() if self.use_cache else None,
            jobs=self.jobs,
            backend=self.backend,
            generation_workers=self.jobs,
            dedupe=self.dedupe,
        )
        outcome = orchestrator.run(cases)
        self.last_grid_outcome = outcome
        return [
            AblationResult(
                name=row.name,
                description=str(row.metadata["description"]),
                availability=AvailabilityResult(
                    min(1.0, max(0.0, row.value("availability"))), label=row.name
                ),
            )
            for row in outcome.results
        ]
