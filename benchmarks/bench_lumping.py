"""Benchmark — exact symmetry lumping: unlumped vs PM-lumped vs DC+PM-lumped.

Solves homogeneous N-data-center meshes (capacity-aware migration, one VM
per machine, ``k = 1``) at three lumping levels:

* **unlumped** — no symmetry spec, the full tangible state space;
* **pm** — PM-exchange orbits within each data center
  (``symmetry_spec(dc_exchange=False)``);
* **dc+pm** — whole-data-center exchange on top
  (:meth:`~repro.core.cloud_model.CloudSystemModel.symmetry_spec`).

For every configuration and level the benchmark records states, generation
and solve seconds, availability and expected running VMs, and **asserts**
agreement on both measures — the lumping is exact, only the state count
changes.  Pairs of chains small enough for the exact direct/GTH solvers
must agree to < 1e-12; pairs involving a chain above the automatic
iterative-solver threshold get a relaxed 1e-9 bound, because the residual
of the converged GMRES solve (rtol 1e-12) then dominates the comparison,
not the lumping.  At N = 3 the DC+PM chain must be ≥ 4x smaller than the
PM-only chain, and the N = 5 mesh must solve within the
``max_states = 500_000`` exploration limit (its DC+PM chain is ~50x
smaller than the unlumped one).

Stand-alone full runs write ``BENCH_lumping.json`` next to the repo root
(``--quick`` writes nothing).  Run
``python benchmarks/bench_lumping.py`` for the full measurement (N = 2, 3
and 5; the N = 3 unlumped solve dominates, and the 200k-state N = 5
unlumped row is generation-only) or ``--quick`` for the CI smoke
(three-way delta check at N = 2; the N = 3 shrink ratio by generation
only, solving just the small DC+PM chain).
"""

import itertools
import json
import time
from pathlib import Path

from repro.core.cloud_model import solve_steady_state
from repro.engine.dispatch import peak_rss_bytes
from repro.core.parameters import CaseStudyParameters
from repro.core.scenarios import homogeneous_mesh_scenario
from repro.core.vm_behavior import vm_up_place
from repro.spn.reachability import generate_tangible_reachability_graph

#: Agreement tolerance between lumping levels (per measure) when both
#: chains are small enough for the exact direct/GTH solvers.
MAX_DELTA = 1e-12

#: ``solvers.steady_state(method="auto")`` switches to ILU-preconditioned
#: GMRES above this many states; agreement across solver families is then
#: bounded by the iterative convergence tolerance, not by the lumping
#: (which stays exact), so those pairs get a relaxed bound.
DIRECT_SOLVER_LIMIT = 20_000
ITERATIVE_DELTA = 1e-9

#: Required DC+PM shrink over PM-only at the N = 3 mesh.
N3_SHRINK_FLOOR = 4.0

#: Exploration limit every configuration must respect (the acceptance bar
#: for the N = 5 mesh).
MAX_STATES = 500_000

#: One VM per machine, availability threshold k = 1.
PARAMETERS = CaseStudyParameters(
    required_running_vms=1, vms_per_physical_machine=1
)

LEVELS = ("unlumped", "pm", "dc+pm")


def mesh_model(datacenters: int, machines: int):
    scenario = homogeneous_mesh_scenario(
        datacenters,
        machines_per_datacenter=machines,
        capacity_aware_migration=True,
    )
    return scenario.build_model(PARAMETERS)


def spec_for(model, level: str):
    if level == "unlumped":
        return None
    spec = model.symmetry_spec(dc_exchange=(level == "dc+pm"))
    if level == "dc+pm" and (spec is None or spec.kind != "dc+pm"):
        raise AssertionError(
            "homogeneous mesh was not detected as DC-exchangeable"
        )
    return spec


def solve_level(model, level: str, solve: bool = True) -> dict:
    spec = spec_for(model, level)
    started = time.perf_counter()
    graph = generate_tangible_reachability_graph(
        model.build(), max_states=MAX_STATES, symmetry=spec
    )
    generate_seconds = time.perf_counter() - started
    row = {
        "level": level,
        "lumped": spec is not None,
        "group_order": spec.group_order if spec is not None else 1,
        "states": graph.number_of_states,
        "generate_seconds": round(generate_seconds, 4),
        "solve_seconds": None,
        "availability": None,
        "expected_vms": None,
    }
    if not solve:
        return row
    started = time.perf_counter()
    solution = solve_steady_state(graph)
    row["solve_seconds"] = round(time.perf_counter() - started, 4)
    total_vms = " + ".join(
        f"#{vm_up_place(machine.index)}"
        for machine in model.spec.physical_machines
    )
    row["availability"] = solution.probability(model.availability_expression())
    row["expected_vms"] = solution.expected_tokens(f"({total_vms})")
    return row


def measure_configuration(datacenters: int, machines: int, levels, solve=()) -> dict:
    model = mesh_model(datacenters, machines)
    rows = []
    for level in levels:
        row = solve_level(model, level, solve=not solve or level in solve)
        rows.append(row)
        solved = row["availability"] is not None
        print(
            f"N={datacenters} machines={machines} {level:8s} "
            f"{row['states']:7d} states | gen {row['generate_seconds']:7.2f}s | "
            + (
                f"solve {row['solve_seconds']:7.2f}s | A={row['availability']:.12f}"
                if solved
                else "generation only"
            )
        )
    solved_rows = [row for row in rows if row["availability"] is not None]
    deltas = []
    for reference, row in itertools.combinations(solved_rows, 2):
        exact_pair = max(row["states"], reference["states"]) <= DIRECT_SOLVER_LIMIT
        bound = MAX_DELTA if exact_pair else ITERATIVE_DELTA
        for measure in ("availability", "expected_vms"):
            delta = abs(row[measure] - reference[measure])
            deltas.append(delta)
            if delta >= bound:
                raise AssertionError(
                    f"N={datacenters} {row['level']} {measure} deviates from "
                    f"{reference['level']} by {delta:.2e} (>= {bound:.0e})"
                )
    return {
        "datacenters": datacenters,
        "machines_per_datacenter": machines,
        "max_states": MAX_STATES,
        "levels": rows,
        "max_delta": max(deltas) if deltas else 0.0,
    }


def run(quick: bool) -> int:
    configurations = [
        # (N, machines/DC, levels, levels-to-solve): quick is the CI smoke —
        # it keeps the three-way delta check at N = 2, measures the N = 3
        # shrink by generation only (the 13k-state PM solve alone takes
        # minutes), and skips N = 5 entirely.
        (2, 2, LEVELS, ()),
        (3, 2, ("pm", "dc+pm"), ("dc+pm",)) if quick else (3, 2, LEVELS, ()),
    ]
    if not quick:
        # One machine per DC: no PM orbits, so "pm" degenerates to the
        # unlumped chain; the interesting comparison is unlumped vs dc+pm.
        # The unlumped row is generation-only — the point is that the
        # 200k-state chain fits the exploration budget while only the
        # ~4k-state lumped quotient needs solving.
        configurations.append((5, 1, ("unlumped", "dc+pm"), ("dc+pm",)))

    results = [
        measure_configuration(datacenters, machines, levels, solve)
        for datacenters, machines, levels, solve in configurations
    ]

    if not quick:
        output = Path(__file__).resolve().parent.parent / "BENCH_lumping.json"
        output.write_text(
            json.dumps(
                {"results": results, "peak_rss_bytes": peak_rss_bytes()}, indent=2
            )
            + "\n"
        )
        print(f"wrote {output}")

    by_n = {entry["datacenters"]: entry for entry in results}
    n3 = {row["level"]: row for row in by_n[3]["levels"]}
    shrink = n3["pm"]["states"] / n3["dc+pm"]["states"]
    print(f"N=3 DC+PM shrink over PM-only: {shrink:.2f}x")
    if shrink < N3_SHRINK_FLOOR:
        print(f"FAIL: below the {N3_SHRINK_FLOOR}x floor")
        return 1
    if not quick:
        n5 = {row["level"]: row for row in by_n[5]["levels"]}
        if any(row["states"] > MAX_STATES for row in n5.values()):
            print(f"FAIL: N=5 exceeded the {MAX_STATES} state limit")
            return 1
        print(
            f"N=5 mesh solved within the limit: "
            f"{n5['unlumped']['states']} states unlumped, "
            f"{n5['dc+pm']['states']} lumped "
            f"({n5['unlumped']['states'] / n5['dc+pm']['states']:.1f}x)"
        )
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    raise SystemExit(run(quick="--quick" in sys.argv))
