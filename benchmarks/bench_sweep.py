"""Benchmark E7 — the Figure 7 sweep at every worker budget.

Times the full Figure 7 sweep (all five city pairs x 9 (α, disaster) points,
45 scenarios on one shared state space) through
:class:`repro.engine.ScenarioBatchEngine` at every worker count the machine
can actually host (the engine clamps workers to the *effective* cores —
``os.sched_getaffinity``, which honours container CPU masks — so
oversubscribed counts are not measured separately).  The engine's fan-out
rule decides each run's solve path:

* ``serial``  — one warm-start chain over the whole sweep (one worker, or
  fewer than ``MIN_SCENARIOS_PER_WORKER`` solves per worker),
* ``process`` — the zero-copy shared-memory scheduler of
  :mod:`repro.engine.parallel` (one worker process per contiguous chunk,
  solutions returned through a shared ``(S, n)`` block, rewards in one
  GEMM) over ``min(workers, scenarios // MIN_SCENARIOS_PER_WORKER)``
  processes.

Each run records the path and worker count the rule chose, and fails when
they differ from the rule's answer, so a sweep the rule fans out can never
silently run serially.  Every run must agree with the one-worker serial
reference below 1e-12 and no ``/dev/shm`` segment may survive the run.
Full runs write the measurements to ``BENCH_sweep.json`` next to the repo
root; ``--quick`` runs write nothing.

Process speedups are only physical when the machine actually has the
cores: the ≥ 2.5x floor at 4 workers is asserted when the *effective* core
count (not the host's ``os.cpu_count``, which lies inside cgroup-limited
containers) is at least 4, and recorded as unmet otherwise.  A multi-worker
run the rule keeps serial must stay within a few percent of the one-worker
run (8 dispatched workers on one core once measured 0.06–0.08x of serial).

Run ``python benchmarks/bench_sweep.py`` for the full measurement,
``--quick`` for the CI smoke (reduced configuration, two city pairs = 18
scenarios, 1 and 2 workers: the 2-worker run takes the process path on any
host with two effective cores), or under pytest
(``pytest benchmarks/ --benchmark-only``).
"""

import json
import time
from pathlib import Path

from figure7_workload import Figure7Sweep
from repro.core.scenarios import CITY_PAIRS
from repro.engine import MIN_SCENARIOS_PER_WORKER
from repro.engine.dispatch import effective_cpu_count, peak_rss_bytes
from repro.engine.parallel import leaked_segments, shared_memory_available

#: Agreement with the serial reference demanded of every availability value.
MAX_DELTA = 1e-12

#: Required process speedup over serial at ``SPEEDUP_WORKERS`` workers.
SPEEDUP_FLOOR = 2.5
SPEEDUP_WORKERS = 4

#: Worker counts of interest; counts above the effective cores are dropped
#: (the engine would clamp them to the same dispatch anyway).
REQUESTED_WORKER_COUNTS = (1, 2, 4, 8)

#: The city pairs of the ``--quick`` smoke: 18 scenarios, enough for the
#: rule to give each of two workers its ``MIN_SCENARIOS_PER_WORKER``.
QUICK_CITY_PAIRS = (CITY_PAIRS[0], CITY_PAIRS[4])

#: Allowed slowdown of a multi-worker run the rule keeps serial against the
#: one-worker run (timing noise only; both solve the same chain).
SERIAL_RATIO = 1.05
SERIAL_SLACK_SECONDS = 2.0


def measured_worker_counts() -> tuple[int, ...]:
    cores = effective_cpu_count()
    return tuple(sorted({min(count, cores) for count in REQUESTED_WORKER_COUNTS}))


def rule(workers: int, scenarios: int) -> tuple[str, int]:
    """``(path, workers)`` the engine's fan-out rule gives a worker budget."""
    fan_out = min(
        workers, effective_cpu_count(), scenarios // MIN_SCENARIOS_PER_WORKER
    )
    return ("process", fan_out) if fan_out >= 2 else ("serial", 1)


def _timed_sweep(sweep, specs, workers):
    """(availabilities, wall_seconds, solve path) of one sweep."""
    started = time.perf_counter()
    results = sweep.engine.run(
        specs, [sweep.measure], max_workers=workers if workers > 1 else None
    )
    seconds = time.perf_counter() - started
    values = [result.value(sweep.measure.name) for result in results]
    return values, seconds, sweep.engine.last_run_backend


def _max_delta(reference, values):
    return max(abs(a - b) for a, b in zip(reference, values))


def run_worker_matrix(sweep, specs, worker_counts=None):
    """Time the sweep at every worker count against the one-worker reference."""
    if worker_counts is None:
        worker_counts = measured_worker_counts()
    leftovers_before = leaked_segments()
    sweep.engine  # one-off generation outside every timed section

    reference, serial_seconds, _ = _timed_sweep(sweep, specs, 1)
    runs = [
        {
            "workers": 1,
            "resolved_to": "serial",
            "resolved_workers": 1,
            "seconds": round(serial_seconds, 3),
            "speedup_vs_serial": 1.0,
            "max_delta_vs_serial": 0.0,
        }
    ]
    print(f"serial x1: {serial_seconds:7.2f}s (reference)")
    worst_delta = 0.0
    for workers in worker_counts:
        if workers == 1:
            continue
        values, seconds, path = _timed_sweep(sweep, specs, workers)
        expected, fan_out = rule(workers, len(specs))
        delta = _max_delta(reference, values)
        worst_delta = max(worst_delta, delta)
        runs.append(
            {
                "workers": workers,
                "resolved_to": path,
                "resolved_workers": fan_out if path == "process" else 1,
                "expected": expected,
                "seconds": round(seconds, 3),
                "speedup_vs_serial": round(serial_seconds / seconds, 3),
                "max_delta_vs_serial": delta,
            }
        )
        print(
            f"{path} x{fan_out if path == 'process' else 1} (budget "
            f"{workers}): {seconds:7.2f}s ({serial_seconds / seconds:5.2f}x "
            f"vs serial, max |Δavailability| = {delta:.2e})"
        )

    leaked = leaked_segments() - leftovers_before
    return {
        "scenarios": len(specs),
        "states": sweep.engine.number_of_states,
        "min_scenarios_per_worker": MIN_SCENARIOS_PER_WORKER,
        "serial_seconds": round(serial_seconds, 3),
        "runs": runs,
        "max_delta_vs_serial": worst_delta,
        "shm_leak_free": not leaked,
        "leaked_segments": sorted(leaked),
    }


def _speedup_summary(report):
    """Evaluate the ≥ 2.5x-at-4-workers target against the measurements."""
    cores = effective_cpu_count()
    at_target = [
        run
        for run in report["runs"]
        if run["resolved_to"] == "process" and run["workers"] == SPEEDUP_WORKERS
    ]
    speedup = at_target[0]["speedup_vs_serial"] if at_target else None
    met = speedup is not None and speedup >= SPEEDUP_FLOOR
    summary = {
        "required": SPEEDUP_FLOOR,
        "workers": SPEEDUP_WORKERS,
        "measured": speedup,
        "effective_cores": cores,
        "met": met,
    }
    if cores < SPEEDUP_WORKERS:
        summary["note"] = (
            f"machine exposes {cores} effective core(s); worker counts are "
            f"clamped there, so the {SPEEDUP_WORKERS}-worker speedup target "
            f"is not physically reachable here and is only asserted on "
            f">= {SPEEDUP_WORKERS}-effective-core machines"
        )
    return summary


def run(quick: bool = False) -> int:
    if not shared_memory_available():
        print("SKIP: shared-memory segments are unavailable in this environment")
        return 0

    if quick:
        sweep = Figure7Sweep()
        specs = sweep.specs(city_pairs=QUICK_CITY_PAIRS)
        report = run_worker_matrix(
            sweep, specs, worker_counts=(min(2, effective_cpu_count()),)
        )
        report["config"] = f"reduced (1 PM/DC, {len(specs)} scenarios)"
    else:
        sweep = Figure7Sweep(full=True)
        report = run_worker_matrix(sweep, sweep.specs(city_pairs=CITY_PAIRS))
        report["config"] = "full (2 PM/DC, lumped, 45 scenarios)"
    report["effective_cores"] = effective_cpu_count()
    report["speedup_target"] = _speedup_summary(report)

    failures = []
    if report["max_delta_vs_serial"] >= MAX_DELTA:
        failures.append(
            f"deviation from the serial reference "
            f"{report['max_delta_vs_serial']:.2e} exceeds {MAX_DELTA:.0e}"
        )
    if not report["shm_leak_free"]:
        failures.append(f"leaked shared-memory segments: {report['leaked_segments']}")
    for entry in report["runs"][1:]:
        if entry["resolved_to"] != entry["expected"]:
            failures.append(
                f"a budget of {entry['workers']} workers ran {entry['resolved_to']!r}; "
                f"the fan-out rule gives {entry['expected']!r} for "
                f"{report['scenarios']} scenarios on "
                f"{report['effective_cores']} effective core(s)"
            )
        if entry["resolved_to"] == "serial":
            bound = max(
                SERIAL_RATIO * report["serial_seconds"],
                report["serial_seconds"] + SERIAL_SLACK_SECONDS,
            )
            if entry["seconds"] > bound:
                failures.append(
                    f"a budget of {entry['workers']} workers ran serially but "
                    f"took {entry['seconds']}s vs {report['serial_seconds']}s "
                    f"for one worker (allowed {bound:.2f}s)"
                )
    target = report["speedup_target"]
    if (
        not quick
        and target["effective_cores"] >= SPEEDUP_WORKERS
        and not target["met"]
    ):
        failures.append(
            f"the process path reached only {target['measured']}x at "
            f"{SPEEDUP_WORKERS} workers (required {SPEEDUP_FLOOR}x on a "
            f"{target['effective_cores']}-effective-core machine)"
        )

    if not quick:
        output = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
        report["peak_rss_bytes"] = peak_rss_bytes()
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    print(
        f"max |Δ| vs serial = {report['max_delta_vs_serial']:.2e}, "
        f"shm leak free = {report['shm_leak_free']}"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


# --- pytest-benchmark entry points ----------------------------------------


def bench_two_worker_sweep_agrees_with_serial(benchmark, figure7_sweep):
    """The 2-worker sweep of two city pairs: agreement + timing via pytest."""
    if not shared_memory_available():
        import pytest

        pytest.skip("shared memory unavailable")
    specs = figure7_sweep.specs(city_pairs=QUICK_CITY_PAIRS)
    reference, _, _ = _timed_sweep(figure7_sweep, specs, 1)

    def two_worker_sweep():
        return _timed_sweep(figure7_sweep, specs, 2)

    values, _, path = benchmark.pedantic(two_worker_sweep, rounds=1, iterations=1)
    assert path == rule(2, len(specs))[0]
    assert _max_delta(reference, values) < MAX_DELTA
    assert not leaked_segments()


if __name__ == "__main__":
    import sys

    raise SystemExit(run(quick="--quick" in sys.argv))
