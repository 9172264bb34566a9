"""Benchmark E3 — state-space generation: incidence kernel vs scalar explorer.

Measures tangible-reachability-graph generation throughput (states/second)
of the vectorized incidence-matrix kernel
(:func:`repro.spn.generate_tangible_reachability_graph`) against the
retained scalar reference
(:func:`repro.spn.generate_tangible_reachability_graph_scalar`) on the
case-study nets:

* the reduced configuration (one PM per data center, ~3k tangible states),
* the faithful configuration (two PMs per data center with symmetry
  lumping, ~5.7 × 10⁴ tangible states),
* the homogeneous capacity-aware meshes N=3×2, N=4×1 and N=5×1 under
  DC+PM lumping with one VM per PM (1,430–4,004 lumped states), whose
  generation runs the two-level canonicalizer and guard tables of dozens
  of linear atoms.

Every measurement also verifies that the two explorers produce equivalent
graphs (same markings, edges and coefficients up to state reordering, with
deviation below 1e-12).  Stand-alone full runs write the measurements to
``BENCH_statespace.json`` next to the repo root, seeding the perf
trajectory; ``--quick`` writes nothing.

Run ``python benchmarks/bench_statespace.py`` for the full measurement,
``--quick`` for the CI smoke (the reduced configuration against a relaxed
speedup floor, and the N=4×1 mesh as an equivalence check without one), or
under pytest (``pytest benchmarks/ --benchmark-only``).
"""

import json
import time
from pathlib import Path

from repro.casestudy import scenario_case
from repro.core.parameters import CaseStudyParameters
from repro.core.scenarios import homogeneous_mesh_scenario
from repro.engine.dispatch import peak_rss_bytes
from repro.spn import (
    CompiledNet,
    generate_tangible_reachability_graph,
    generate_tangible_reachability_graph_scalar,
    graph_deviation,
)

from figure7_workload import Figure7Sweep

#: Equivalence tolerance between the two explorers.
MAX_DEVIATION = 1e-12

#: Required kernel speedup at the full case-study configuration.
FULL_SPEEDUP_FLOOR = 5.0

#: (data centers, PMs per data center) of the lumped mesh cases.
MESH_STRUCTURES = ((3, 2), (4, 1), (5, 1))


def _case(name: str, sweep: Figure7Sweep):
    """The deployment's compiled net and its symmetry spec."""
    reference = sweep.reference
    return name, CompiledNet(reference.net), reference.symmetry


def _mesh_case(datacenters: int, machines: int):
    """A homogeneous capacity-aware mesh under DC+PM lumping, one VM per PM."""
    case = scenario_case(
        homogeneous_mesh_scenario(
            datacenters,
            machines_per_datacenter=machines,
            capacity_aware_migration=True,
        ),
        parameters=CaseStudyParameters(
            required_running_vms=1, vms_per_physical_machine=1
        ),
    )
    name = f"mesh N={datacenters}x{machines} (lumped)"
    return name, CompiledNet(case.net), case.symmetry


def measure_case(name, net, symmetry, repeats: int = 1) -> dict:
    """Time both explorers on one net, verify equivalence, report throughput."""
    net.kernel()  # exclude the one-off incidence-array build from the timings

    def timed(generate):
        best, graph = float("inf"), None
        for _ in range(repeats):
            started = time.perf_counter()
            graph = generate(net, symmetry=symmetry)
            best = min(best, time.perf_counter() - started)
        return best, graph

    scalar_seconds, scalar_graph = timed(generate_tangible_reachability_graph_scalar)
    kernel_seconds, kernel_graph = timed(generate_tangible_reachability_graph)
    deviation = graph_deviation(scalar_graph, kernel_graph)
    states = kernel_graph.number_of_states
    result = {
        "case": name,
        "states": states,
        "edges": kernel_graph.number_of_transitions,
        "scalar_seconds": round(scalar_seconds, 4),
        "kernel_seconds": round(kernel_seconds, 4),
        "scalar_states_per_second": round(states / scalar_seconds, 1),
        "kernel_states_per_second": round(states / kernel_seconds, 1),
        "speedup": round(scalar_seconds / kernel_seconds, 2),
        "max_deviation": deviation,
    }
    print(
        f"{name:24s} {states:7d} states | scalar {scalar_seconds:7.2f}s "
        f"({result['scalar_states_per_second']:9.0f} st/s) | kernel "
        f"{kernel_seconds:6.2f}s ({result['kernel_states_per_second']:9.0f} st/s) "
        f"| {result['speedup']:5.1f}x | dev {deviation:.2e}"
    )
    if deviation >= MAX_DEVIATION:
        raise AssertionError(
            f"{name}: kernel explorer deviates from the scalar reference "
            f"({deviation:.2e} >= {MAX_DEVIATION:.0e})"
        )
    return result


def run(quick: bool) -> int:
    # (case, required speedup or None): the reduced configuration only has
    # to beat the scalar explorer (constant overheads eat into the win at
    # that size), the full one must hit the 5x floor, and the meshes check
    # equivalence without a floor.
    cases = [(_case("reduced (1 PM/DC)", Figure7Sweep()), 1.0)]
    if quick:
        cases.append((_mesh_case(4, 1), None))
    else:
        cases.append(
            (_case("full (2 PM/DC, lumped)", Figure7Sweep(full=True)), FULL_SPEEDUP_FLOOR)
        )
        cases += [(_mesh_case(*structure), None) for structure in MESH_STRUCTURES]

    # Best-of-2 on both explorers so one scheduling hiccup cannot skew the
    # ratio; the full scalar passes dominate the benchmark's runtime.
    results = [
        measure_case(name, net, symmetry, repeats=2)
        for (name, net, symmetry), _ in cases
    ]

    if not quick:
        output = Path(__file__).resolve().parent.parent / "BENCH_statespace.json"
        output.write_text(
            json.dumps(
                {"results": results, "peak_rss_bytes": peak_rss_bytes()}, indent=2
            )
            + "\n"
        )
        print(f"wrote {output}")

    for result, (_, floor) in zip(results, cases):
        if floor is not None and result["speedup"] < floor:
            print(
                f"FAIL: {result['case']} speedup {result['speedup']}x "
                f"is below the {floor}x floor"
            )
            return 1
    print("OK")
    return 0


# --- pytest-benchmark entry points ------------------------------------------


def bench_kernel_generation_reduced(benchmark):
    name, net, symmetry = _case("reduced (1 PM/DC)", Figure7Sweep())
    net.kernel()
    graph = benchmark.pedantic(
        generate_tangible_reachability_graph,
        args=(net,),
        kwargs={"symmetry": symmetry},
        rounds=3,
        iterations=1,
    )
    assert graph.number_of_states > 1000


def bench_kernel_vs_scalar_full(benchmark, figure7_sweep):
    """Acceptance benchmark: ≥5x at the full case-study configuration."""
    from benchmarks.conftest import full_scale

    name, net, symmetry = _case(
        "full" if full_scale() else "reduced", figure7_sweep
    )
    net.kernel()

    started = time.perf_counter()
    scalar_graph = generate_tangible_reachability_graph_scalar(net, symmetry=symmetry)
    scalar_seconds = time.perf_counter() - started

    kernel_graph = benchmark.pedantic(
        generate_tangible_reachability_graph,
        args=(net,),
        kwargs={"symmetry": symmetry},
        rounds=1,
        iterations=1,
    )
    kernel_seconds = benchmark.stats.stats.min
    deviation = graph_deviation(scalar_graph, kernel_graph)
    speedup = scalar_seconds / kernel_seconds
    print()
    print(
        f"[{name}] scalar {scalar_seconds:.2f}s, kernel {kernel_seconds:.2f}s "
        f"({speedup:.1f}x), dev {deviation:.2e}"
    )
    assert deviation < MAX_DEVIATION
    if full_scale():
        assert speedup >= FULL_SPEEDUP_FLOOR


if __name__ == "__main__":
    import sys

    raise SystemExit(run(quick="--quick" in sys.argv))
