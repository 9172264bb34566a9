"""Benchmark E7 — sweep backends: serial vs process scheduling.

Times the full Figure 7 sweep (all five city pairs x 9 (α, disaster) points,
45 scenarios on one shared state space) on every batch backend of
:class:`repro.engine.ScenarioBatchEngine`:

* ``serial``  — one warm-start chain over the whole sweep,
* ``process`` — the zero-copy shared-memory scheduler of
  :mod:`repro.engine.parallel` (one worker process per chunk, solutions
  returned through a shared ``(S, n)`` block, rewards in one GEMM),

at every worker count the machine can actually host (the engine clamps
workers to the *effective* cores — ``os.sched_getaffinity``, which honours
container CPU masks — so oversubscribed counts are not measured separately),
plus one ``backend="auto"`` run whose resolved backend and worker count are
recorded.  Every backend must agree with the serial reference
below 1e-12 and no ``/dev/shm`` segment may survive the run.  Stand-alone
runs write the measurements to ``BENCH_sweep.json`` next to the repo root,
seeding the perf trajectory.

Process-backend speedups are only physical when the machine actually has
the cores: the ≥ 2.5x floor at 4 workers is asserted when the *effective*
core count (not the host's ``os.cpu_count``, which lies inside cgroup-
limited containers) is at least 4, and recorded as unmet otherwise.  When
``auto`` resolves to serial it must stay within a few percent of the serial
run (8 dispatched workers on one core once measured 0.06–0.08x of serial).

Run ``python benchmarks/bench_sweep.py`` for the full measurement,
``--quick`` for the CI smoke (reduced configuration, 2 workers, process
backend only), or under pytest (``pytest benchmarks/ --benchmark-only``).
"""

import json
import time
from pathlib import Path

from figure7_workload import Figure7Sweep
from repro.core.scenarios import CITY_PAIRS
from repro.engine import MIN_SCENARIOS_PER_WORKER
from repro.engine.dispatch import effective_cpu_count, peak_rss_bytes
from repro.engine.parallel import leaked_segments, shared_memory_available

#: Cross-backend agreement demanded of every availability value.
MAX_DELTA = 1e-12

#: Required process-backend speedup over serial at ``SPEEDUP_WORKERS`` workers.
SPEEDUP_FLOOR = 2.5
SPEEDUP_WORKERS = 4

#: Worker counts of interest; counts above the effective cores are dropped
#: (the engine would clamp them to the same dispatch anyway).
REQUESTED_WORKER_COUNTS = (1, 2, 4, 8)

#: Allowed auto-vs-serial slowdown when ``auto`` resolves to serial (timing
#: noise only; both runs solve the same chain).
AUTO_SERIAL_RATIO = 1.05
AUTO_SERIAL_SLACK_SECONDS = 2.0


def measured_worker_counts() -> tuple[int, ...]:
    cores = effective_cpu_count()
    return tuple(sorted({min(count, cores) for count in REQUESTED_WORKER_COUNTS}))


def _timed_sweep(sweep, specs, backend, workers):
    """(availabilities, wall_seconds) of one sweep on one backend."""
    started = time.perf_counter()
    results = sweep.engine.run(
        specs,
        [sweep.measure],
        max_workers=workers if workers > 1 else None,
        backend=backend,
    )
    seconds = time.perf_counter() - started
    engine_backend = sweep.engine.last_run_backend
    if backend != "auto" and engine_backend != backend:
        raise AssertionError(
            f"requested the {backend!r} backend but the engine ran "
            f"{engine_backend!r}"
        )
    return [result.value(sweep.measure.name) for result in results], seconds


def _max_delta(reference, values):
    return max(abs(a - b) for a, b in zip(reference, values))


def run_backend_matrix(sweep, specs, worker_counts=None):
    """Measure every backend/worker combination against the serial reference."""
    if worker_counts is None:
        worker_counts = measured_worker_counts()
    leftovers_before = leaked_segments()
    sweep.engine  # one-off generation outside every timed section

    reference, serial_seconds = _timed_sweep(sweep, specs, "serial", 1)
    runs = [
        {
            "backend": "serial",
            "workers": 1,
            "seconds": round(serial_seconds, 3),
            "speedup_vs_serial": 1.0,
            "max_delta_vs_serial": 0.0,
        }
    ]
    worst_delta = 0.0
    for workers in worker_counts:
        values, seconds = _timed_sweep(sweep, specs, "process", workers)
        delta = _max_delta(reference, values)
        worst_delta = max(worst_delta, delta)
        runs.append(
            {
                "backend": "process",
                "workers": workers,
                "seconds": round(seconds, 3),
                "speedup_vs_serial": round(serial_seconds / seconds, 3),
                "max_delta_vs_serial": delta,
            }
        )
        print(
            f"process x{workers}: {seconds:7.2f}s "
            f"({serial_seconds / seconds:5.2f}x vs serial, "
            f"max |Δavailability| = {delta:.2e})"
        )

    # One auto run at the largest requested worker count: the backend it
    # resolved to and the worker count the fan-out rule gives are recorded.
    auto_workers = max(REQUESTED_WORKER_COUNTS)
    values, auto_seconds = _timed_sweep(sweep, specs, "auto", auto_workers)
    delta = _max_delta(reference, values)
    worst_delta = max(worst_delta, delta)
    engine = sweep.engine
    resolved_workers = (
        min(
            auto_workers,
            effective_cpu_count(),
            len(specs) // MIN_SCENARIOS_PER_WORKER,
        )
        if engine.last_run_backend == "process"
        else 1
    )
    dispatch_record = {
        "requested_workers": auto_workers,
        "chosen_backend": engine.last_run_backend,
        "workers": resolved_workers,
        "note": (
            "the auto sweep runs last, so its serial chain warm-starts from "
            "the preceding backend matrix; the serial reference above ran "
            "cold — compare trends, not absolute auto-vs-serial seconds"
        ),
    }
    runs.append(
        {
            "backend": "auto",
            "workers": auto_workers,
            "seconds": round(auto_seconds, 3),
            "speedup_vs_serial": round(serial_seconds / auto_seconds, 3),
            "max_delta_vs_serial": delta,
            "resolved_to": engine.last_run_backend,
            "resolved_workers": resolved_workers,
        }
    )
    print(
        f"   auto x{auto_workers}: {auto_seconds:7.2f}s "
        f"({serial_seconds / auto_seconds:5.2f}x vs serial, resolved to "
        f"{engine.last_run_backend!r} x{resolved_workers})"
    )

    leaked = leaked_segments() - leftovers_before
    return {
        "scenarios": len(specs),
        "states": engine.number_of_states,
        "serial_seconds": round(serial_seconds, 3),
        "auto_seconds": round(auto_seconds, 3),
        "auto_vs_serial_ratio": round(auto_seconds / serial_seconds, 3),
        "dispatcher": dispatch_record,
        "runs": runs,
        "max_cross_backend_delta": worst_delta,
        "shm_leak_free": not leaked,
        "leaked_segments": sorted(leaked),
    }


def _speedup_summary(report):
    """Evaluate the ≥ 2.5x-at-4-workers target against the measurements."""
    cores = effective_cpu_count()
    at_target = [
        run
        for run in report["runs"]
        if run["backend"] == "process" and run["workers"] == SPEEDUP_WORKERS
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
        report = run_backend_matrix(
            sweep, sweep.specs(), worker_counts=(min(2, effective_cpu_count()),)
        )
        report["config"] = "reduced (1 PM/DC, 9 scenarios)"
    else:
        sweep = Figure7Sweep(full=True)
        report = run_backend_matrix(sweep, sweep.specs(city_pairs=CITY_PAIRS))
        report["config"] = "full (2 PM/DC, lumped, 45 scenarios)"
    report["effective_cores"] = effective_cpu_count()
    report["speedup_target"] = _speedup_summary(report)

    failures = []
    if report["max_cross_backend_delta"] >= MAX_DELTA:
        failures.append(
            f"cross-backend deviation {report['max_cross_backend_delta']:.2e} "
            f"exceeds {MAX_DELTA:.0e}"
        )
    if not report["shm_leak_free"]:
        failures.append(f"leaked shared-memory segments: {report['leaked_segments']}")
    target = report["speedup_target"]
    if (
        not quick
        and target["effective_cores"] >= SPEEDUP_WORKERS
        and not target["met"]
    ):
        failures.append(
            f"process backend reached only {target['measured']}x at "
            f"{SPEEDUP_WORKERS} workers (required {SPEEDUP_FLOOR}x on a "
            f"{target['effective_cores']}-effective-core machine)"
        )
    if report["dispatcher"]["chosen_backend"] == "serial":
        bound = max(
            AUTO_SERIAL_RATIO * report["serial_seconds"],
            report["serial_seconds"] + AUTO_SERIAL_SLACK_SECONDS,
        )
        if report["auto_seconds"] > bound:
            failures.append(
                f"auto resolved to serial but took {report['auto_seconds']}s vs "
                f"{report['serial_seconds']}s serial (allowed {bound:.2f}s)"
            )

    if not quick:
        output = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
        report["peak_rss_bytes"] = peak_rss_bytes()
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    print(
        f"max cross-backend |Δ| = {report['max_cross_backend_delta']:.2e}, "
        f"shm leak free = {report['shm_leak_free']}"
    )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("OK")
    return 0


# --- pytest-benchmark entry points ----------------------------------------


def bench_process_backend_agrees_with_serial(benchmark, figure7_sweep):
    """Process backend on two city pairs: agreement + timing via pytest."""
    if not shared_memory_available():
        import pytest

        pytest.skip("shared memory unavailable")
    specs = figure7_sweep.specs(city_pairs=(CITY_PAIRS[0], CITY_PAIRS[4]))
    reference, _ = _timed_sweep(figure7_sweep, specs, "serial", 1)

    def process_sweep():
        values, _ = _timed_sweep(figure7_sweep, specs, "process", 2)
        return values

    values = benchmark.pedantic(process_sweep, rounds=1, iterations=1)
    assert _max_delta(reference, values) < MAX_DELTA
    assert not leaked_segments()


if __name__ == "__main__":
    import sys

    raise SystemExit(run(quick="--quick" in sys.argv))
