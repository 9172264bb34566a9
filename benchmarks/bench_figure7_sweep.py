"""Benchmark E2 — Figure 7: availability increase of distributed configurations.

Regenerates the Figure 7 sweep (α ∈ {0.35, 0.40, 0.45} × disaster mean time ∈
{100, 200, 300} years) for a subset of city pairs and checks the qualitative
claims of Section V: improvements are monotone in α and in the disaster mean
time, the best configuration is the closest pair with the fastest network and
the rarest disasters, and the disaster mean time matters most at short
distances while the network speed matters most at long distances.

The benchmark evaluates the nearest and the farthest pair (Brasília and
Tokyo); ``scripts/run_full_casestudy.py`` produces all five pairs.
"""

import time

import pytest

from repro.casestudy import best_configuration, render_figure7, reproduce_figure7
from repro.core.scenarios import CITY_PAIRS
from repro.spn import solve_steady_state
from repro.spn.parametric import rate_vector_with_overrides

BENCH_PAIRS = (CITY_PAIRS[0], CITY_PAIRS[4])  # Rio-Brasilia and Rio-Tokyo


def seed_style_loop(sweep, specs):
    """The seed code path: per-scenario re-rate + cold steady-state solve.

    This is what the pipeline did before the batch engine: every scenario
    re-rates the shared graph and then solves the CTMC from scratch — no
    symbolic system reuse, no factorisation reuse, no warm starts.  Kept
    here as the reference both for the speedup measurement and for the
    numerical-equivalence check.
    """
    graph = sweep.engine.graph()
    availabilities = []
    for spec in specs:
        re_rated = graph.with_rate_vector(
            rate_vector_with_overrides(graph, spec.rates)
        )
        availabilities.append(
            solve_steady_state(re_rated, method="auto").measure(sweep.measure)
        )
    return availabilities


def engine_availabilities(sweep, specs, **options):
    """Availabilities of ``specs`` as one batch of the sweep's engine."""
    results = sweep.engine.run(specs, [sweep.measure], **options)
    return [result.value(sweep.measure.name) for result in results], results


def bench_batch_engine_vs_seed_loop(benchmark, figure7_sweep):
    """Acceptance benchmark: the batch engine must beat the seed loop.

    Same state space (generated once, outside both timed sections), same
    scenarios; the engine path re-fills one symbolic system and reuses the
    factorisation / warm start, the seed path cold-solves every scenario.
    Per-scenario availabilities must agree to 1e-10.
    """
    specs = figure7_sweep.specs()  # 9-point grid of the first pair

    started = time.perf_counter()
    seed_values = seed_style_loop(figure7_sweep, specs)
    seed_seconds = time.perf_counter() - started

    def engine_batch():
        return engine_availabilities(figure7_sweep, specs)

    values, results = benchmark.pedantic(engine_batch, rounds=1, iterations=1)
    engine_seconds = sum(result.solve_seconds for result in results)

    worst = max(
        abs(value - seed_value) for value, seed_value in zip(values, seed_values)
    )
    print()
    print(
        f"engine batch: {engine_seconds:.2f}s, seed-style loop: {seed_seconds:.2f}s "
        f"({seed_seconds / engine_seconds:.1f}x), max |Δavailability| = {worst:.2e}"
    )
    assert worst < 1e-10
    assert engine_seconds < seed_seconds


def bench_figure7_two_pairs(benchmark, figure7_sweep):
    points = benchmark.pedantic(
        reproduce_figure7,
        kwargs={"city_pairs": BENCH_PAIRS, **figure7_sweep.deployment},
        rounds=1,
        iterations=1,
    )
    assert len(points) == 2 * 9
    print()
    print(render_figure7(points))

    by_pair = {}
    for point in points:
        by_pair.setdefault(point.city_pair, []).append(point)

    for pair_points in by_pair.values():
        baseline = [p for p in pair_points if p.is_baseline]
        assert len(baseline) == 1
        # Improvements are measured against the pair's own baseline and are
        # therefore non-negative across the swept grid.
        assert all(p.improvement_over_baseline >= -1e-9 for p in pair_points)
        # Monotonicity in alpha at fixed disaster mean time.
        for years in (100.0, 200.0, 300.0):
            series = sorted(
                (p for p in pair_points if p.disaster_mean_time_years == years),
                key=lambda p: p.alpha,
            )
            availabilities = [p.availability for p in series]
            assert availabilities == sorted(availabilities)
        # Monotonicity in disaster mean time at fixed alpha.
        for alpha in (0.35, 0.40, 0.45):
            series = sorted(
                (p for p in pair_points if p.alpha == alpha),
                key=lambda p: p.disaster_mean_time_years,
            )
            availabilities = [p.availability for p in series]
            assert availabilities == sorted(availabilities)

    # The best configuration overall combines the nearest pair, the fastest
    # network and the rarest disasters (the paper's headline conclusion).
    best = best_configuration(points)
    assert best.city_pair == "Rio de Janeiro - Brasilia"
    assert best.alpha == pytest.approx(0.45)
    assert best.disaster_mean_time_years == pytest.approx(300.0)

    # Relative influence: at short distance the disaster mean time dominates,
    # at long distance the network speed has comparatively more weight.
    near = by_pair["Rio de Janeiro - Brasilia"]
    far = by_pair["Rio de Janeiro - Tokyo"]

    def effect(points_of_pair, *, vary_alpha):
        baseline = next(p for p in points_of_pair if p.is_baseline)
        if vary_alpha:
            other = next(
                p for p in points_of_pair if p.alpha == 0.45 and p.disaster_mean_time_years == 100.0
            )
        else:
            other = next(
                p for p in points_of_pair if p.alpha == 0.35 and p.disaster_mean_time_years == 300.0
            )
        return other.nines - baseline.nines

    near_alpha_effect = effect(near, vary_alpha=True)
    near_disaster_effect = effect(near, vary_alpha=False)
    far_alpha_effect = effect(far, vary_alpha=True)
    far_disaster_effect = effect(far, vary_alpha=False)
    assert near_disaster_effect > near_alpha_effect
    assert (far_alpha_effect / max(far_disaster_effect, 1e-9)) > (
        near_alpha_effect / max(near_disaster_effect, 1e-9)
    )


def bench_single_scenario_re_rate_and_solve(benchmark, figure7_sweep):
    """Per-scenario cost once the shared state space exists (the quantity that
    makes the 45-point sweep tractable)."""
    # Rio de Janeiro - Tokyo, alpha = 0.40, 200-year disasters.
    (spec,) = [
        spec
        for spec in figure7_sweep.specs(city_pairs=(CITY_PAIRS[4],))
        if "alpha=0.4," in spec.name and "disaster=200y" in spec.name
    ]
    (value,), _ = benchmark.pedantic(
        engine_availabilities, args=(figure7_sweep, [spec]), rounds=1, iterations=1
    )
    assert 0.99 < value < 1.0


def _quick_smoke() -> int:
    """Stand-alone smoke run used by CI: reduced config, one city pair.

    Exercises the whole stack — generation, vectorized re-rating, symbolic
    refill, factorisation reuse, parallel fan-out — and verifies the batch
    engine against the seed-style loop without needing pytest-benchmark.
    """
    from figure7_workload import Figure7Sweep

    sweep = Figure7Sweep()
    specs = sweep.specs()
    print(
        f"shared state space: {sweep.engine.number_of_states} tangible markings"
    )

    started = time.perf_counter()
    seed_values = seed_style_loop(sweep, specs)
    seed_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sequential, _ = engine_availabilities(sweep, specs)
    engine_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel, _ = engine_availabilities(sweep, specs, max_workers=4)
    parallel_seconds = time.perf_counter() - started

    worst_engine = max(abs(e - s) for e, s in zip(sequential, seed_values))
    worst_parallel = max(abs(a - b) for a, b in zip(sequential, parallel))
    print(
        f"seed-style loop : {seed_seconds:6.2f}s\n"
        f"engine batch    : {engine_seconds:6.2f}s ({seed_seconds / engine_seconds:.1f}x)\n"
        f"engine parallel : {parallel_seconds:6.2f}s\n"
        f"max |Δ| engine vs seed     : {worst_engine:.2e}\n"
        f"max |Δ| parallel vs serial : {worst_parallel:.2e}"
    )
    if worst_engine >= 1e-10:
        print("FAIL: engine deviates from the seed path")
        return 1
    if engine_seconds >= seed_seconds:
        print("FAIL: engine batch is not faster than the seed-style loop")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv:
        raise SystemExit(_quick_smoke())
    raise SystemExit(
        "run under pytest (pytest benchmarks/ --benchmark-only) or pass --quick"
    )
