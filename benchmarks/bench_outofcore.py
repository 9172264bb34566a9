"""Benchmark E10 — out-of-core chunked solving under an enforced memory budget.

The acceptance scenario of the representation-agnostic state-space tier: a
homogeneous N-data-center mesh whose *estimated* in-RAM footprint exceeds an
enforced memory budget is planned onto the **chunked** backend, generated
wave-by-wave straight to disk, and solved from the chunks' edge arrays by
the in-RAM solver (one incomplete LU, GMRES) — and the result must
match an unconstrained in-RAM control run below 1e-12 while the chunked
process's peak RSS stays under the budget.

Peak RSS (``ru_maxrss``) is monotone within a process, so each measured run
executes in its **own subprocess** (``--measure <config.json>``); the driver
only plans budgets, spawns the runs and checks the assertions:

* the memory-aware planner routed the budgeted run to ``chunked``;
* |availability(chunked) − availability(in-RAM control)| < 1e-12;
* (full mode only) the chunked subprocess's peak RSS is under the budget
  that the in-RAM estimate exceeded.

Stand-alone full runs (N=3 mesh, 43 904 tangible states) write
``BENCH_outofcore.json`` next to the repo root; ``--quick`` runs the
two-data-center mesh as the CI smoke (no file written, no RSS floor — CI
runners share memory unpredictably).
"""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Agreement demanded between the chunked run and the in-RAM control.
MAX_DELTA = 1e-12

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src"


def build_model(datacenters: int, machines: int):
    from repro.core import CaseStudyParameters
    from repro.core.scenarios import homogeneous_mesh_scenario

    scenario = homogeneous_mesh_scenario(
        datacenters,
        machines_per_datacenter=machines,
        capacity_aware_migration=True,
    )
    return scenario.build_model(
        CaseStudyParameters(required_running_vms=1, vms_per_physical_machine=1)
    )


def measure(config_path: str) -> int:
    """Subprocess body: plan, generate, solve, report — one run per process."""
    from repro.engine import ScenarioBatchEngine, ScenarioSpec, TRGCache
    from repro.engine.cache import load_or_generate
    from repro.engine.dispatch import peak_rss_bytes, plan_representation
    from repro.spn import CompiledNet, ProbabilityMeasure

    config = json.loads(Path(config_path).read_text())
    model = build_model(config["datacenters"], config["machines"])
    net = model.build()
    forced = config.get("forced")
    plan = plan_representation(
        net,
        config["max_states"],
        budget_bytes=config.get("memory_budget"),
        forced=forced,
    )
    if plan.representation == "refused":
        raise SystemExit(f"planner refused the run: {plan.reason}")
    measure = ProbabilityMeasure("availability", model.availability_expression())
    with tempfile.TemporaryDirectory(prefix="bench-outofcore-") as directory:
        started = time.perf_counter()
        # A chunked graph lives in its cache entry; an in-RAM one is not
        # stored, so the run's footprint is generation and solve only.
        graph, _ = load_or_generate(
            CompiledNet(net),
            TRGCache(directory) if plan.representation == "chunked" else None,
            max_states=config["max_states"],
            representation=plan.representation,
        )
        engine = ScenarioBatchEngine(graph)
        generated = time.perf_counter()
        (result,) = engine.run([ScenarioSpec("base")], [measure])
        solved = time.perf_counter()
    report = {
        "representation": plan.representation,
        "planner": plan.as_dict(),
        "states": engine.number_of_states,
        "availability": result.value(measure.name),
        "generate_seconds": round(generated - started, 3),
        "solve_seconds": round(solved - generated, 3),
        "peak_rss_bytes": peak_rss_bytes(),
    }
    Path(config["output"]).write_text(json.dumps(report, indent=2) + "\n")
    return 0


def spawn(config: dict, directory: Path, label: str) -> dict:
    """Run one ``--measure`` subprocess and return its report."""
    config = dict(config, output=str(directory / f"{label}.json"))
    config_path = directory / f"{label}.config.json"
    config_path.write_text(json.dumps(config))
    environment = dict(os.environ)
    environment["PYTHONPATH"] = ":".join(
        [str(SOURCE_ROOT)]
        + ([environment["PYTHONPATH"]] if environment.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", str(config_path)],
        check=True,
        timeout=1800,
        env=environment,
    )
    return json.loads(Path(config["output"]).read_text())


def run(quick: bool = False) -> int:
    from repro.engine.dispatch import peak_rss_bytes, plan_representation

    datacenters, machines = (2, 2) if quick else (3, 2)
    max_states = 500_000 if quick else 200_000
    net = build_model(datacenters, machines).build()

    # A budget the in-RAM estimate exceeds but the chunked working set
    # fits, so the run exercises the exact routing decision the budget is
    # meant to force.  Weighted toward the in-RAM estimate: the chunked
    # estimate models the steady solve working set, while the transient
    # generation peak (wave-expansion buffers) sits above it.
    sizing = plan_representation(net, max_states, budget_bytes=10**18)
    budget = (2 * sizing.estimated_bytes + sizing.chunked_estimated_bytes) // 3
    print(
        f"out-of-core smoke: N={datacenters} mesh, machines={machines}, "
        f"budget {budget / 1e6:.0f} MB "
        f"(in-RAM est {sizing.estimated_bytes / 1e6:.0f} MB, "
        f"chunked est {sizing.chunked_estimated_bytes / 1e6:.0f} MB)"
    )

    base = {
        "datacenters": datacenters,
        "machines": machines,
        "max_states": max_states,
    }
    with tempfile.TemporaryDirectory(prefix="bench-outofcore-") as scratch:
        directory = Path(scratch)
        budgeted = spawn(dict(base, memory_budget=budget), directory, "chunked")
        control = spawn(dict(base, forced="in_ram"), directory, "in_ram")

    delta = abs(budgeted["availability"] - control["availability"])
    rss = budgeted["peak_rss_bytes"]
    print(
        f"budgeted run : {budgeted['representation']} "
        f"({budgeted['states']} states, "
        f"gen {budgeted['generate_seconds']:.1f}s + "
        f"solve {budgeted['solve_seconds']:.1f}s, "
        f"peak RSS {rss / 1e6:.0f} MB)"
    )
    print(
        f"in-RAM control: {control['states']} states, "
        f"gen {control['generate_seconds']:.1f}s + "
        f"solve {control['solve_seconds']:.1f}s, "
        f"peak RSS {control['peak_rss_bytes'] / 1e6:.0f} MB"
    )
    print(f"|Δ availability| = {delta:.3e} (floor {MAX_DELTA:g})")

    failures = []
    if budgeted["representation"] != "chunked":
        failures.append(
            f"planner chose {budgeted['representation']!r} under the "
            f"{budget / 1e6:.0f} MB budget, expected 'chunked'"
        )
    if delta >= MAX_DELTA:
        failures.append(f"availability delta {delta:.3e} >= {MAX_DELTA:g}")
    if not quick and rss >= budget:
        failures.append(
            f"chunked peak RSS {rss / 1e6:.0f} MB is not under the "
            f"{budget / 1e6:.0f} MB budget"
        )
    for failure in failures:
        print(f"FAIL: {failure}")

    if not quick:
        report = {
            "benchmark": "outofcore",
            "datacenters": datacenters,
            "machines_per_datacenter": machines,
            "max_states": max_states,
            "memory_budget_bytes": budget,
            "budgeted": budgeted,
            "in_ram_control": control,
            "availability_delta": delta,
            "max_delta": MAX_DELTA,
            "rss_under_budget": rss < budget,
            "passed": not failures,
            "peak_rss_bytes": peak_rss_bytes(),
        }
        output = REPO_ROOT / "BENCH_outofcore.json"
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    return 1 if failures else 0


if __name__ == "__main__":
    if "--measure" in sys.argv:
        raise SystemExit(measure(sys.argv[sys.argv.index("--measure") + 1]))
    raise SystemExit(run(quick="--quick" in sys.argv))
