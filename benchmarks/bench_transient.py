"""Benchmark E8 — batched transient-availability workload.

Times the mission-window availability sweep (one scenario per VM start
time, point + interval availability over a mission-time grid) on the
batched uniformization path of ``ScenarioBatchEngine.run_transient`` —
shared state space, rate-regime grouping, block-diagonal sparse mat-vec per
Poisson term, rewards through the ``RewardMatrix`` GEMM — against a naive
loop that calls ``scipy.sparse.linalg.expm_multiply`` once per scenario
*per grid point*, re-assembling the generator every time.  That reference
is the truncated-Taylor action of the matrix exponential (Al-Mohy & Higham,
SIAM J. Sci. Comput. 2011), so it shares no code with uniformization.

Correctness: every batched point value must agree with the
``expm_multiply`` reference below 1e-9 (the dense ``expm`` cross-check at
Δ < 1e-10 lives in the tier-1 tests, where the model is small enough for a
dense matrix exponential).

Run ``python benchmarks/bench_transient.py`` for the full measurement
(writes ``BENCH_transient.json``), ``--quick`` for the CI smoke, or under
pytest (``pytest benchmarks/ --benchmark-only``).
"""

import json
import time
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import expm_multiply

from repro.casestudy.transient import mission_grid, vm_start_specs
from repro.engine.dispatch import effective_cpu_count, peak_rss_bytes
from repro.engine.measures import RewardMatrix
from repro.spn.ctmc_export import generator_matrix

from figure7_workload import Figure7Sweep

#: Agreement demanded between the batched path and the naive reference.
MAX_DELTA = 1e-9

FULL_MINUTES = (5.0, 15.0, 30.0, 60.0, 120.0)
FULL_WINDOW_HOURS = 24.0
FULL_POINTS = 9

QUICK_MINUTES = (5.0, 60.0)
QUICK_WINDOW_HOURS = 12.0
QUICK_POINTS = 4


def _naive_point_curves(engine, specs, measure, times):
    """Reference: one ``expm_multiply(Qᵀt, π₀)`` per scenario per time point."""
    graph = engine.graph()
    reward = RewardMatrix.from_measures(graph, [measure])
    pi0 = engine.initial_vector()
    curves = []
    for spec in specs:
        re_rated = graph.with_rate_vector(
            engine.rate_matrix([spec])[0]
        )
        transposed = generator_matrix(re_rated).T.tocsr()
        curves.append(
            [
                float(expm_multiply(transposed * float(t), pi0) @ reward.matrix[:, 0])
                for t in times
            ]
        )
    return np.asarray(curves)


def run(quick: bool = False) -> int:
    sweep = Figure7Sweep()
    minutes = QUICK_MINUTES if quick else FULL_MINUTES
    times = mission_grid(
        QUICK_WINDOW_HOURS if quick else FULL_WINDOW_HOURS,
        QUICK_POINTS if quick else FULL_POINTS,
    )
    engine = sweep.engine  # one-off generation outside every timed section
    specs = vm_start_specs(minutes, **sweep.deployment)
    measure = sweep.measure

    started = time.perf_counter()
    results = engine.run_transient(specs, [measure], times)
    batched_seconds = time.perf_counter() - started

    started = time.perf_counter()
    reference = _naive_point_curves(engine, specs, measure, times)
    naive_seconds = time.perf_counter() - started

    batched = np.asarray([r.point[measure.name] for r in results])
    delta = float(np.max(np.abs(batched - reference)))
    interval_final = [float(r.interval[measure.name][-1]) for r in results]

    report = {
        "config": "reduced (1 PM/DC)",
        "states": engine.number_of_states,
        "scenarios": len(specs),
        "grid_points": int(times.size),
        "window_hours": float(times[-1]),
        "batched_seconds": round(batched_seconds, 3),
        "naive_seconds": round(naive_seconds, 3),
        "speedup_vs_naive": round(naive_seconds / max(batched_seconds, 1e-9), 3),
        "max_point_delta_vs_naive": delta,
        "mission_interval_availability": dict(
            zip([f"{m:g}min" for m in minutes], interval_final)
        ),
        "backend": engine.last_run_backend,
        "effective_cores": effective_cpu_count(),
    }

    print(
        f"batched run_transient: {batched_seconds:7.2f}s   "
        f"naive per-(scenario,time) expm_multiply: {naive_seconds:7.2f}s   "
        f"({report['speedup_vs_naive']:5.2f}x, max |Δ| = {delta:.2e})"
    )
    for label, value in report["mission_interval_availability"].items():
        print(f"  VM start {label:>7s}: interval availability {value:.7f}")

    failures = []
    if delta >= MAX_DELTA:
        failures.append(
            f"batched path deviates from the expm_multiply reference by "
            f"{delta:.2e} (allowed {MAX_DELTA:.0e})"
        )
    ordering = list(report["mission_interval_availability"].values())
    if any(a < b for a, b in zip(ordering, ordering[1:])):
        failures.append(
            "mission interval availability must not improve with slower VM "
            f"starts, got {ordering}"
        )

    if not quick:
        output = Path(__file__).resolve().parent.parent / "BENCH_transient.json"
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


def bench_transient_mission_sweep(benchmark):
    """Batched mission-window sweep on the reduced configuration."""
    sweep = Figure7Sweep()
    specs = vm_start_specs(QUICK_MINUTES, **sweep.deployment)
    times = mission_grid(QUICK_WINDOW_HOURS, QUICK_POINTS)
    engine = sweep.engine
    measure = sweep.measure

    def sweep():
        return engine.run_transient(specs, [measure], times)

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert len(results) == len(specs)
    for result in results:
        assert result.point[measure.name][0] == 1.0


if __name__ == "__main__":
    import sys

    raise SystemExit(run(quick="--quick" in sys.argv))
