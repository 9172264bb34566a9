"""Efficient evaluation of families of case-study scenarios.

All distributed configurations of Section V share one and the same net
*structure* — two data centers, two PMs each, a backup server and the
transmission component; the scenarios only differ in transition delays
(disaster mean time, and the three MTT values derived from distance and α).
``DistributedSweepRunner`` is a thin case-study adapter over the generic
:class:`repro.engine.ScenarioBatchEngine`: the tangible reachability graph is
generated once, each scenario is a vectorized re-rating of it, the
constrained balance system is re-filled (never re-assembled) per scenario and
the factorisation/warm-start state is reused across the sweep — which
reduces the Figure 7 sweep from 45 state-space generations plus 45 cold
solves to one generation, one factorisation and 45 cheap re-solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.cloud_model import CloudSystemModel
from repro.core.parameters import CaseStudyParameters, DEFAULT_PARAMETERS
from repro.core.scenarios import DistributedScenario
from repro.engine import ScenarioBatchEngine, ScenarioResult, ScenarioSpec, TRGCache
from repro.exceptions import ConfigurationError
from repro.metrics import AvailabilityResult
from repro.network.migration import MigrationPlanner
from repro.spn.reachability import TangibleReachabilityGraph
from repro.spn.rewards import ProbabilityMeasure
from repro.symmetry import resolve_symmetry_reduction

#: Name of the availability measure evaluated for every scenario.
AVAILABILITY_MEASURE = "availability"


@dataclass
class SweepEvaluation:
    """Availability of one scenario plus bookkeeping about how it was obtained."""

    scenario: DistributedScenario
    availability: AvailabilityResult
    number_of_states: int
    solve_seconds: float

    @property
    def nines(self) -> float:
        return self.availability.nines


@dataclass
class DistributedSweepRunner:
    """Shared-state-space evaluator for two-data-center scenarios.

    Attributes:
        parameters: case-study parameters used for the *structure* (component
            MTTF/MTTR, VM counts, threshold k).  Disaster mean time and
            migration delays are overridden per scenario.
        machines_per_datacenter: hot PMs per data center (2 in the paper).
        max_states: state-space limit for the one-off generation.
        use_cache: consult / populate the persistent on-disk reachability
            cache (:class:`repro.engine.TRGCache`) so repeat runs over the
            same configuration skip state-space generation entirely.
        cache_dir: cache location override (default: ``$REPRO_CACHE_DIR``
            or ``~/.cache/repro/trg``).
    """

    parameters: CaseStudyParameters = field(default_factory=lambda: DEFAULT_PARAMETERS)
    machines_per_datacenter: int = 2
    max_states: int = 500_000
    #: ``None`` resolves to the library-wide default
    #: (:data:`repro.symmetry.DEFAULT_SYMMETRY_REDUCTION` — on); the
    #: attribute still accepts an explicit ``True``/``False``.
    symmetry_reduction: Optional[bool] = None
    use_cache: bool = True
    cache_dir: Optional[str] = None
    _engine: Optional[ScenarioBatchEngine] = field(default=None, repr=False)
    _reference_model: Optional[CloudSystemModel] = field(default=None, repr=False)

    def reference_model(self) -> CloudSystemModel:
        """The model whose structure is shared by every scenario of the sweep."""
        if self._reference_model is None:
            from repro.core.scenarios import CITY_PAIRS

            first, second = CITY_PAIRS[0]
            scenario = DistributedScenario(
                first, second, machines_per_datacenter=self.machines_per_datacenter
            )
            self._reference_model = scenario.build_model(self.parameters)
        return self._reference_model

    def engine(self) -> ScenarioBatchEngine:
        """The (lazily constructed) batch engine sharing one state space.

        With ``symmetry_reduction`` (the default) the engine's graph is the
        exactly lumped CTMC obtained from the exchangeability of the PMs
        within each data center — the availability metric is symmetric under
        those permutations, so the lumping is exact for every sweep
        evaluation.
        """
        if self._engine is None:
            model = self.reference_model()
            canonicalize = (
                model.symmetry_canonicalizer()
                if resolve_symmetry_reduction(self.symmetry_reduction)
                else None
            )
            self._engine = ScenarioBatchEngine(
                model.build(),
                max_states=self.max_states,
                canonicalize=canonicalize,
                cache=TRGCache(self.cache_dir) if self.use_cache else None,
            )
        return self._engine

    def graph(self) -> TangibleReachabilityGraph:
        """Generate (once) and return the shared tangible reachability graph."""
        return self.engine().graph()

    def scenario_delays(self, scenario: DistributedScenario) -> dict[str, float]:
        """Transition delays (hours) that distinguish ``scenario`` from the reference."""
        planner = MigrationPlanner(
            vm_image_size=self.parameters.vm_image_size,
        )
        times = planner.migration_times(
            scenario.first, scenario.second, scenario.backup, scenario.alpha
        )
        disaster_hours = scenario.disaster_mean_time_years * 8760.0
        return {
            "DC_1_F": disaster_hours,
            "DC_2_F": disaster_hours,
            "TRE_12": times.datacenter_to_datacenter.hours,
            "TRE_21": times.datacenter_to_datacenter.hours,
            "TBE_12": times.backup_to_second.hours,
            "TBE_21": times.backup_to_first.hours,
        }

    def scenario_spec(self, scenario: DistributedScenario) -> ScenarioSpec:
        """The engine-level spec (delay overrides) of one case-study scenario.

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        scenario pins a machine count different from this runner's — the
        runner's shared state space would otherwise silently evaluate a
        mismatched structure.
        """
        if scenario.disaster_mean_time_years <= 0.0:
            raise ConfigurationError("the disaster mean time must be positive")
        if (
            scenario.machines_per_datacenter is not None
            and scenario.machines_per_datacenter != self.machines_per_datacenter
        ):
            raise ConfigurationError(
                f"scenario {scenario.label!r} asks for "
                f"{scenario.machines_per_datacenter} machine(s) per data center "
                f"but this runner's shared structure has "
                f"{self.machines_per_datacenter}; configure the runner (or drop "
                f"the scenario's machine count) so they agree"
            )
        return ScenarioSpec(
            name=scenario.label, delays=self.scenario_delays(scenario)
        )

    def availability_measure(self) -> ProbabilityMeasure:
        """The engine-level availability measure of the reference structure.

        Shared by the steady-state sweeps and the transient mission-window
        workload (:mod:`repro.casestudy.transient`).
        """
        return ProbabilityMeasure(
            AVAILABILITY_MEASURE, self.reference_model().availability_expression()
        )

    def _to_evaluation(
        self, scenario: DistributedScenario, result: ScenarioResult
    ) -> SweepEvaluation:
        value = result.value(AVAILABILITY_MEASURE)
        return SweepEvaluation(
            scenario=scenario,
            availability=AvailabilityResult(
                min(1.0, max(0.0, value)), label=scenario.label
            ),
            number_of_states=result.number_of_states,
            solve_seconds=result.solve_seconds,
        )

    def evaluate(self, scenario: DistributedScenario) -> SweepEvaluation:
        """Availability of one scenario, reusing the shared state space."""
        result = self.engine().evaluate(
            self.scenario_spec(scenario), [self.availability_measure()]
        )
        return self._to_evaluation(scenario, result)

    def evaluate_many(
        self,
        scenarios: Iterable[DistributedScenario],
        max_workers: Optional[int] = None,
        backend: str = "auto",
    ) -> list[SweepEvaluation]:
        """Evaluate a batch of scenarios sharing this runner's structure.

        With ``max_workers`` the batch may fan out over the engine's
        zero-copy multiprocess scheduler (each worker chains warm starts
        across a contiguous chunk of the sweep; see
        :meth:`repro.engine.ScenarioBatchEngine.run` for when ``auto`` does);
        results always come back in input order.
        """
        scenarios = list(scenarios)
        results = self.engine().run(
            [self.scenario_spec(scenario) for scenario in scenarios],
            [self.availability_measure()],
            max_workers=max_workers,
            backend=backend,
        )
        return [
            self._to_evaluation(scenario, result)
            for scenario, result in zip(scenarios, results)
        ]
