"""Benchmark E10 — self-healing grid execution under injected faults.

Two claims of the robustness layer (fault harness, retries, pool rebuilds,
checkpoint/resume) are measured on the same mixed-structure grid as the
pipeline benchmark:

* **chaos agreement**: a grid run under an adversarial fault plan — a pool
  worker SIGKILLed mid-generation, a poisoned generation task, and two
  corrupted cache reads — must complete WITHOUT quarantining anything and
  agree with the fault-free reference below 1e-12 on every availability,
  with the recovery visible in provenance (``pool_rebuilds``, fault-plan
  firing counts);
* **kill + resume**: a checkpointed run is "killed" by deleting the
  trailing half of its shards (exactly what a SIGKILL mid-run leaves
  behind: whole shards only, because the writer renames atomically); the
  ``resume`` run must restore every surviving case from the checkpoint
  (``solve_source == "checkpoint"``, bit-identical to the killed run) and
  re-dispatch exactly the missing ones.  Re-solved rows enter a partially
  restored group's warm-start chain at a different point than a full run,
  so they agree with the reference to solver tolerance (1e-9) rather than
  bit-identically.

Stand-alone full runs write ``BENCH_chaos.json`` next to the repo root;
``--quick`` runs a reduced grid as the CI chaos smoke (no file written).
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from repro.casestudy.grid import CaseStudyGrid, scenario_case
from repro.core import CaseStudyParameters
from repro.core.scenarios import CITY_PAIRS
from repro.engine import TRGCache
from repro.engine import faults
from repro.engine.dispatch import effective_cpu_count, peak_rss_bytes
from repro.engine.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.engine.grid import ScenarioGridOrchestrator
from repro.engine.parallel import shutdown_shared_pool
from repro.network.geo import RIO_DE_JANEIRO

#: Agreement demanded between the chaos run and the fault-free run.
MAX_DELTA = 1e-12

#: Re-solved rows of a resumed run start the GMRES warm-start chain at a
#: different scenario than the full run did, so they only agree to the
#: Krylov convergence tolerance; restored rows stay bit-identical.
RESUME_DELTA = 1e-9

REDUCED = CaseStudyParameters(required_running_vms=1)

#: Tight backoffs: the benchmark measures recovery, not sleeping.
RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.05, max_backoff_seconds=0.5)


def full_grid() -> CaseStudyGrid:
    """~36 scenarios over 9 structures (machines x backup x single site)."""
    return CaseStudyGrid(
        city_sets=(CITY_PAIRS[0], CITY_PAIRS[4], (RIO_DE_JANEIRO,)),
        alphas=(0.35, 0.45),
        disaster_years=(100.0, 300.0),
        machines_per_datacenter=(1, 2),
        backup=(True, False),
    )


def quick_grid() -> CaseStudyGrid:
    """Reduced CI smoke: 5 scenarios over 3 structures."""
    return CaseStudyGrid(
        city_sets=(CITY_PAIRS[0], (RIO_DE_JANEIRO,)),
        alphas=(0.35, 0.45),
        disaster_years=(100.0,),
        machines_per_datacenter=(1,),
        backup=(True, False),
    )


def grid_cases(grid: CaseStudyGrid):
    return [scenario_case(s, parameters=REDUCED) for s in grid.scenarios()]


def chaos_plan() -> FaultPlan:
    """The benchmark's adversarial schedule (deterministic, seeded)."""
    return FaultPlan(
        [
            FaultSpec(kind=faults.WORKER_KILL, site="generate", count=1),
            FaultSpec(kind=faults.TASK_EXCEPTION, site="generate", count=1),
            FaultSpec(kind=faults.CORRUPT_CACHE_READ, site="cache.load", count=2),
        ],
        seed=7,
    )


def run_grid(cases, *, workers, plan=None, shard_directory=None, resume=False):
    """One cold orchestrator pass (fresh cache, reset pool, optional plan)."""
    shutdown_shared_pool()
    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as scratch:
        orchestrator = ScenarioGridOrchestrator(
            cache=TRGCache(scratch),
            jobs=workers if workers > 1 else None,
            generation_workers=workers,
            retry=RETRY,
            shard_directory=shard_directory,
            shard_size=1,
            resume=resume,
        )
        started = time.perf_counter()
        if plan is not None:
            with faults.injected(plan):
                outcome = orchestrator.run(cases)
        else:
            outcome = orchestrator.run(cases)
        seconds = time.perf_counter() - started
    return outcome, seconds


def max_availability_delta(a, b) -> float:
    by_name = {row.name: row for row in b.results}
    return max(
        abs(row.value("availability") - by_name[row.name].value("availability"))
        for row in a.results
    )


def run(quick: bool = False) -> int:
    cores = effective_cpu_count()
    workers = max(2, min(4, cores))
    grid = quick_grid() if quick else full_grid()
    cases = grid_cases(grid)
    print(f"grid: {len(cases)} scenario(s), {cores} effective core(s)")

    reference, reference_seconds = run_grid(cases, workers=workers)
    assert not reference.partial
    print(f"fault-free reference  : {reference_seconds:7.2f}s")

    plan = chaos_plan()
    chaos, chaos_seconds = run_grid(cases, workers=workers, plan=plan)
    fired = {
        kind: plan.fired(kind)
        for kind in (
            faults.WORKER_KILL,
            faults.TASK_EXCEPTION,
            faults.CORRUPT_CACHE_READ,
        )
    }
    chaos_delta = max_availability_delta(chaos, reference)
    overhead = chaos_seconds / reference_seconds if reference_seconds else 1.0
    print(
        f"chaos run             : {chaos_seconds:7.2f}s ({overhead:.2f}x "
        f"reference; {chaos.pool_rebuilds} pool rebuild(s), faults fired: "
        f"{fired})"
    )
    print(f"max |Δavailability| (chaos) = {chaos_delta:.2e}")

    # Kill-and-resume: delete the trailing half of the checkpoint shards,
    # exactly what a SIGKILL mid-run leaves behind (whole shards only).
    with tempfile.TemporaryDirectory(prefix="bench-chaos-ckpt-") as checkpoint:
        checkpoint = Path(checkpoint)
        first, first_seconds = run_grid(
            cases, workers=workers, shard_directory=checkpoint
        )
        assert not first.partial
        shards = sorted(checkpoint.glob("grid-shard-*.jsonl"))
        for shard in shards[len(shards) // 2 :]:
            shard.unlink()
        survivors = len(shards) // 2
        resumed, resume_seconds = run_grid(
            cases, workers=workers, shard_directory=checkpoint, resume=True
        )
        assert not resumed.partial
        restored = sum(
            1 for row in resumed.results if row.solve_source == "checkpoint"
        )
        resolved = len(resumed.results) - restored
        resume_delta = max_availability_delta(resumed, reference)
        first_by_name = {row.name: row for row in first.results}
        restored_delta = max(
            abs(
                row.value("availability")
                - first_by_name[row.name].value("availability")
            )
            for row in resumed.results
            if row.solve_source == "checkpoint"
        )
        print(
            f"killed-then-resumed   : {resume_seconds:7.2f}s "
            f"({restored} restored, {resolved} re-solved of "
            f"{len(cases)}; full run took {first_seconds:7.2f}s)"
        )
        print(f"max |Δavailability| (resume) = {resume_delta:.2e}")

    report = {
        "config": (
            f"{'reduced' if quick else 'full'} mixed-structure grid "
            f"({len(cases)} scenarios, {len(reference.groups)} structures)"
        ),
        "scenarios": len(cases),
        "structures": len(reference.groups),
        "effective_cores": cores,
        "workers": workers,
        "reference_seconds": round(reference_seconds, 3),
        "chaos": {
            "seconds": round(chaos_seconds, 3),
            "overhead_vs_reference": round(overhead, 3),
            "pool_rebuilds": chaos.pool_rebuilds,
            "watchdog_kills": chaos.watchdog_kills,
            "faults_fired": fired,
            "quarantined_cases": len(chaos.failed_cases()),
            "max_delta": chaos_delta,
        },
        "resume": {
            "full_seconds": round(first_seconds, 3),
            "resume_seconds": round(resume_seconds, 3),
            "shards_surviving_the_kill": survivors,
            "restored_cases": restored,
            "resolved_cases": resolved,
            "restored_via_provenance": resumed.restored_cases,
            "max_delta": resume_delta,
            "max_delta_restored_vs_killed_run": restored_delta,
        },
    }

    failures = []
    if chaos.partial:
        failures.append(
            f"chaos run quarantined {len(chaos.failed_cases())} case(s); the "
            f"plan is survivable and none were expected"
        )
    if chaos_delta >= MAX_DELTA:
        failures.append(
            f"chaos run deviates from the reference by {chaos_delta:.2e} "
            f"(allowed {MAX_DELTA:.0e})"
        )
    if chaos.pool_rebuilds < 1:
        failures.append(
            "the worker kill left no rebuild in provenance (pool_rebuilds == 0)"
        )
    if fired[faults.WORKER_KILL] != 1 or fired[faults.CORRUPT_CACHE_READ] != 2:
        failures.append(f"fault plan under-fired: {fired}")
    if resume_delta >= RESUME_DELTA:
        failures.append(
            f"resumed run deviates from the reference by {resume_delta:.2e} "
            f"(allowed {RESUME_DELTA:.0e})"
        )
    if restored_delta != 0.0:
        failures.append(
            f"checkpoint restore is not bit-identical to the killed run "
            f"(max delta {restored_delta:.2e})"
        )
    if restored != survivors:
        failures.append(
            f"resume restored {restored} case(s) but {survivors} shard(s) "
            f"survived the kill"
        )
    if resolved != len(cases) - survivors:
        failures.append(
            f"resume re-solved {resolved} case(s), expected exactly the "
            f"{len(cases) - survivors} missing one(s)"
        )

    if not quick:
        output = Path(__file__).resolve().parent.parent / "BENCH_chaos.json"
        report["peak_rss_bytes"] = peak_rss_bytes()
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


# --- pytest-benchmark entry points ----------------------------------------


def bench_chaos_matches_reference(benchmark):
    """Reduced grid under the chaos plan; agreement vs the fault-free run."""
    cases = grid_cases(quick_grid())
    workers = max(2, min(4, effective_cpu_count()))
    reference, _ = run_grid(cases, workers=workers)

    def chaos_run():
        outcome, _ = run_grid(cases, workers=workers, plan=chaos_plan())
        return outcome

    outcome = benchmark.pedantic(chaos_run, rounds=1, iterations=1)
    assert not outcome.partial
    assert max_availability_delta(outcome, reference) < MAX_DELTA


if __name__ == "__main__":
    raise SystemExit(run(quick="--quick" in sys.argv))
