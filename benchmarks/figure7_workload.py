"""The Figure 7 sweep as an engine-level workload for the benchmarks.

Entry-point benchmarks call :func:`repro.casestudy.reproduce_figure7`
directly; the engine-level ones (worker-count matrices, the seed-loop
comparison, the transient sweep) drive one
:class:`~repro.engine.ScenarioBatchEngine` over the deployment's graph with
one spec per Figure 7 point.  :class:`Figure7Sweep` builds both from the
same grid cases, so the two levels always evaluate the same chains.
"""

from dataclasses import dataclass, replace
from functools import cached_property

from repro.casestudy import deployment, figure7_grid, scenario_cases
from repro.core.scenarios import CITY_PAIRS
from repro.engine import ScenarioBatchEngine, ScenarioSpec, TRGCache


@dataclass
class Figure7Sweep:
    """One two-data-center deployment and its Figure 7 points.

    ``full`` is the paper's deployment (two PMs per data center, k = 2);
    otherwise the reduced one (one PM per data center, k = 1).
    """

    full: bool = False

    @property
    def deployment(self) -> dict:
        """Keyword arguments of the case-study entry points."""
        return deployment(self.full)

    def cases(self, city_pairs=CITY_PAIRS[:1]) -> list:
        """Grid cases of the Figure 7 points of ``city_pairs`` (one shared net)."""
        configuration = self.deployment
        return scenario_cases(
            [
                replace(
                    scenario,
                    machines_per_datacenter=configuration["machines_per_datacenter"],
                )
                for scenario in figure7_grid(city_pairs=city_pairs)
            ],
            configuration["parameters"],
        )

    def specs(self, city_pairs=CITY_PAIRS[:1]) -> list[ScenarioSpec]:
        """One engine spec (the case's full rate assignment) per point."""
        return [
            ScenarioSpec(name=case.name, rates=case.full_rates())
            for case in self.cases(city_pairs)
        ]

    @cached_property
    def reference(self):
        """The first point's case: its net, symmetry spec and measure."""
        return self.cases()[0]

    @property
    def measure(self):
        (measure,) = self.reference.measures
        return measure

    @cached_property
    def engine(self) -> ScenarioBatchEngine:
        """One engine over the deployment's cached graph, shared by every sweep."""
        graph, _ = self.reference.graph(TRGCache())
        return ScenarioBatchEngine(graph)
