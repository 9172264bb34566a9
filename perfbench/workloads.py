"""Workloads of the repository benchmark: inputs, options and checks.

Each workload is one :func:`repro.casestudy.grid.evaluate_grid` call, the
call behind ``repro grid``.  ``--seed`` draws its inputs from a fixed pool
whose answers ``reference.json`` holds, so every returned availability is
checked:

``grid-cold``
    The paper's mixed design space: {Rio–Brasília, Rio–Tokyo, Rio alone} ×
    α {0.35, 0.45} × disaster mean time {100, 300 y} × {1, 2} PMs per data
    center × backup {on, off}, k = 1.  That is 36 cases in 6 structure
    groups of 10 to 57,188 states, on an empty cache with ``jobs`` unset,
    as a first ``repro grid`` run.  The only workload in the ILU regime
    (above 20k states).  The seed orders the structure groups.  Run by
    hand only; ``BENCHMARK.json`` leaves it out: a call is one 37–52 s
    evaluation, 80 % of it a single-threaded ``spilu``, so a run holds one
    call and its wall clock follows the host's speed, which moved that same
    ``spilu`` between 37 and 47 s from one minute to the next on a shared
    2-core host.
``sweep-warm``
    Figure 7's sweep densified along disaster mean time: the five city
    pairs × three α × Figure 7's 100, 200 and 300 y plus eleven of the
    eighteen 10-year steps between them (the seed picks them), 210 cases on
    the reduced two-DC model (1 PM per DC, backup on, 3,048 states).  The
    graph goes into the cache during set-up and ``jobs`` is the effective
    core count: no generation, one structure re-solved many times.
``mesh-cold``
    Homogeneous meshes under DC+PM lumping on an empty cache: N=3 × 2 PMs
    (2,660 states), N=4 × 1 PM (1,430) and N=5 × 1 PM (4,004), with
    capacity-aware migration, one VM per PM and k = 1, at two disaster mean
    times each (the seed picks them; the groups keep this order, so the
    seed changes rates but not how generation overlaps the solves).
    Generation runs through the two-level canonicalizer, and the N=5 group
    is the only one of any workload on the chunked backend and
    ``MatrixFreeSolver``.

Every workload passes ``memory_budget``: the planner sizes each structure at
the 500,000-state cap, so a budget derived from free memory would move
groups between backends as the machine's load changes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from random import Random

WORKLOADS = ("grid-cold", "sweep-warm", "mesh-cold")

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Largest |Δ availability| a case may show against the reference.  The
#: stationary vectors come from GMRES at relative tolerances of 1e-12 to
#: 1e-13, warm-started along whichever chain of cases a call builds, so two
#: chains agree to about 1e-12 (1.1e-12 seen on ``sweep-warm``).  1e-10 is
#: tighter than the repository's 1e-9 bound for iterative cross-path
#: comparisons and far below any modelling error.
DELTA_BOUND = 1e-10

FIGURE7_YEARS = (100.0, 200.0, 300.0)
SWEEP_YEARS = tuple(100.0 + 10.0 * step for step in range(21))
SWEEP_EXTRA_YEARS = 11

#: (data centers, PMs per data center) of the mesh structures.
MESH_STRUCTURES = ((3, 2), (4, 1), (5, 1))
MESH_YEARS = (100.0, 150.0, 200.0, 250.0, 300.0)
MESH_YEARS_PER_STRUCTURE = 2

#: ``memory_budget`` of the two-DC workloads: every group fits in RAM.
IN_RAM_BUDGET = "16G"
#: ``memory_budget`` of ``mesh-cold``: above the in-RAM estimates of the
#: N=3 and N=4 structures (3,340 and 3,660 MB), below that of N=5
#: (5,092 MB) and above its chunked one (1,644 MB).
MESH_BUDGET = "4200M"


def _two_datacenter_grid(city_sets, alphas, years, machines, backup) -> list:
    from repro.casestudy.grid import CaseStudyGrid

    return CaseStudyGrid(
        city_sets=tuple(city_sets),
        alphas=tuple(alphas),
        disaster_years=tuple(years),
        machines_per_datacenter=tuple(machines),
        backup=tuple(backup),
    ).scenarios()


def _grid_cold(toy: bool) -> list:
    from repro.network.geo import BRASILIA, RIO_DE_JANEIRO, TOKYO

    city_sets = [(RIO_DE_JANEIRO, BRASILIA), (RIO_DE_JANEIRO,)]
    if not toy:
        city_sets.insert(1, (RIO_DE_JANEIRO, TOKYO))
    machines = (1,) if toy else (1, 2)
    return _two_datacenter_grid(
        city_sets, (0.35, 0.45), (100.0, 300.0), machines, (True, False)
    )


def _sweep(years, toy: bool = False) -> list:
    from repro.core.parameters import ALPHA_VALUES
    from repro.core.scenarios import CITY_PAIRS

    pairs = CITY_PAIRS[:1] if toy else CITY_PAIRS
    return _two_datacenter_grid(pairs, ALPHA_VALUES, sorted(years), (1,), (True,))


def _meshes(structures, years_of) -> list:
    from repro.core.scenarios import homogeneous_mesh_scenario

    return [
        homogeneous_mesh_scenario(
            datacenters,
            machines_per_datacenter=machines,
            capacity_aware_migration=True,
            disaster_mean_time_years=years,
        )
        for datacenters, machines in structures
        for years in years_of()
    ]


def _structure(scenario) -> tuple:
    """The scenario fields that decide its ``grid-cold`` structure group."""
    if hasattr(scenario, "locations"):
        return (
            len(scenario.locations),
            scenario.machines_per_datacenter,
            scenario.has_backup_server,
        )
    return (1, scenario.machines, False)


def scenarios(workload: str, seed: int, toy: bool = False) -> list:
    """The scenarios of one call; ``toy`` shrinks them for the fast test."""
    rng = Random(seed)
    if workload == "grid-cold":
        cases = _grid_cold(toy)
        order = list(dict.fromkeys(map(_structure, cases)))
        rng.shuffle(order)
        rank = {structure: position for position, structure in enumerate(order)}
        return sorted(cases, key=lambda scenario: rank[_structure(scenario)])
    if workload == "sweep-warm":
        between = [years for years in SWEEP_YEARS if years not in FIGURE7_YEARS]
        extra = [] if toy else rng.sample(between, SWEEP_EXTRA_YEARS)
        return _sweep(FIGURE7_YEARS + tuple(extra), toy)
    if workload == "mesh-cold":
        structures = [(4, 1)] if toy else MESH_STRUCTURES
        return _meshes(
            structures,
            lambda: sorted(rng.sample(MESH_YEARS, MESH_YEARS_PER_STRUCTURE)),
        )
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list:
    """Every scenario any seed can draw: what ``reference.json`` covers."""
    if workload == "grid-cold":
        return _grid_cold(toy=False)
    if workload == "sweep-warm":
        return _sweep(SWEEP_YEARS)
    if workload == "mesh-cold":
        return _meshes(MESH_STRUCTURES, lambda: MESH_YEARS)
    raise ValueError(f"unknown workload {workload!r}")


def options(workload: str, cache_directory: Path) -> dict:
    """Keyword arguments of the workload's ``evaluate_grid`` call."""
    from repro.core.parameters import CaseStudyParameters

    if workload == "mesh-cold":
        parameters = CaseStudyParameters(
            required_running_vms=1, vms_per_physical_machine=1
        )
        budget = MESH_BUDGET
    else:
        parameters = CaseStudyParameters(required_running_vms=1)
        budget = IN_RAM_BUDGET
    arguments = {
        "parameters": parameters,
        "use_cache": True,
        "cache_dir": str(cache_directory),
        "memory_budget": budget,
    }
    if workload == "sweep-warm":
        cores = len(os.sched_getaffinity(0))
        arguments.update(jobs=cores, generation_workers=cores)
    return arguments


def prepare(workload: str, cases: list, arguments: dict) -> None:
    """Set-up beyond the scenario list: ``sweep-warm`` fills the cache."""
    if workload == "sweep-warm":
        from repro.casestudy.grid import evaluate_grid

        evaluate_grid(cases[:1], **arguments)


def reference(workload: str, path: Path = REFERENCE) -> dict[str, float]:
    """Reference availability by case name."""
    return json.loads(Path(path).read_text())[workload]


def check(outcome, cases: list, table: dict[str, float]) -> list[str]:
    """One problem per case that is missing, quarantined or off the table."""
    returned = {row.name: row.value("availability") for row in outcome.results}
    problems = []
    for case in cases:
        name = case.label
        if name not in returned:
            problems.append(f"missing or quarantined: {name}")
        elif name not in table:
            problems.append(f"no reference value: {name}")
        elif abs(returned[name] - table[name]) > DELTA_BOUND:
            delta = abs(returned[name] - table[name])
            problems.append(f"off the reference by {delta:.3e}: {name}")
    return problems
