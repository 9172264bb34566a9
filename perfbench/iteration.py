"""One benchmark call in a fresh interpreter (spawned by ``run.py``).

    python3 perfbench/iteration.py --workload sweep-warm --seed 1 \\
        --mode measure --workdir DIR --output FILE --spawned-ns NS

Set-up runs from interpreter start (``--spawned-ns`` is the parent's
``time.monotonic_ns()`` just before the spawn) to the ``evaluate_grid``
call: imports, the scenario list and, for ``sweep-warm``, the cache fill.
``--mode setup`` stops there; ``measure`` times the call; ``trace`` times it
with the wrappers of ``tracer.py`` installed and adds per-layer metrics.
The worker pool is shut down before peak RSS is read, because the children's
``ru_maxrss`` counts only reaped workers.  The report is one JSON file.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import time
from pathlib import Path

import workloads


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    kibibytes = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kibibytes * 1024 / 1e6


def layer_metrics(tracer, root: int, outcome, cache_directory: Path, cpu_s: float):
    """Per-layer metrics of one traced call, and any accounting problem."""
    from repro.engine.cache import TRGCache
    from tracer import MAIN, SPANS, attribute, logical_parents, total_duration

    spans, counts, maxima = tracer.collect()
    root_key = (MAIN, root)
    shares = attribute(spans, logical_parents(spans, root_key), root_key)
    metrics = {f"{name}_s": shares.get(name, 0.0) for name in SPANS}
    wall = (spans[root_key][2] - spans[root_key][1]) / 1e9
    accounted = sum(metrics.values())
    problems = []
    if abs(accounted - wall) > 1e-6 * wall:
        problems.append(
            f"layer times add up to {accounted:.6f} s, the traced call took {wall:.6f} s"
        )
    groups = outcome.groups
    lumped = [group for group in groups if group.states_before_estimate is not None]
    entries = TRGCache(cache_directory).entries()
    generate_s = total_duration(spans, "spn.generate")
    loads = counts["cache.hits"] + counts["cache.misses"]
    matrix_nnz = counts["krylov.matrix_nnz"]
    metrics.update(
        {
            "trace.wall_s": wall,
            "trace.spans": len(spans),
            "casestudy.cases": counts["casestudy.cases"],
            "spn.states": counts["spn.states"],
            "spn.edges": counts["spn.edges"],
            "spn.states_per_s": counts["spn.states"] / generate_s if generate_s else 0.0,
            "symmetry.lump_ratio": (
                sum(group.states_before_estimate for group in lumped)
                / sum(group.number_of_states for group in lumped)
                if lumped
                else 1.0
            ),
            "cache.hit_ratio": counts["cache.hits"] / loads if loads else 0.0,
            "cache.bytes": sum(entry.size_bytes for entry in entries),
            "statespace.chunked_groups": sum(
                group.representation == "chunked" for group in groups
            ),
            "statespace.read_mb": counts["statespace.read_bytes"] / 1e6,
            "statespace.bytes": sum(
                entry.size_bytes for entry in entries if entry.representation == "chunked"
            ),
            "system.nnz": maxima.get("system.nnz", 0),
            "krylov.factorizations": counts["krylov.factorizations"],
            "krylov.fill_ratio": (
                counts["krylov.factor_nnz"] / matrix_nnz if matrix_nnz else 0.0
            ),
            "krylov.solves": counts["krylov.solves"],
            "krylov.precond_applies": counts["krylov.precond_applies"],
            "krylov.fallbacks": counts["krylov.fallbacks"],
            "krylov.residual_max": maxima.get("krylov.residual_max", 0.0),
            "batch.dedupe_ratio": (
                outcome.deduped_cases / len(outcome.results) if outcome.results else 0.0
            ),
            "parallel.probe_solves": counts["parallel.probe_solves"],
            "parallel.workers": maxima.get("parallel.workers", 0),
            "grid.groups": len(groups),
            "grid.queue_wait_s": sum(group.queue_wait_seconds for group in groups),
            "grid.retries": sum(
                group.generate_attempts + group.solve_attempts - 2 for group in groups
            ),
            "grid.cpu_s": cpu_s,
        }
    )
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="One benchmark call.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--output", type=Path, required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--reference", type=Path, default=workloads.REFERENCE)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    from repro.casestudy.grid import evaluate_grid
    from repro.engine.parallel import shutdown_shared_pool

    cache_directory = args.workdir / "cache"
    cases = workloads.scenarios(args.workload, args.seed, toy=args.toy)
    arguments = workloads.options(args.workload, cache_directory)
    workloads.prepare(args.workload, cases, arguments)
    report = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if args.mode == "setup":
        report["setup_s"] = (time.monotonic_ns() - args.spawned_ns) / 1e9
        args.output.write_text(json.dumps(report))
        return 0

    tracer = root = None
    if args.mode == "trace":
        from tracer import ROOT, Tracer, install

        tracer = Tracer(args.workdir / "spool")
        install(tracer)
    cpu_before = cpu_seconds()
    called = time.monotonic_ns()
    if tracer is not None:
        root = tracer.open(ROOT)
    outcome = evaluate_grid(cases, **arguments)
    if tracer is not None:
        tracer.close(root)
    returned = time.monotonic_ns()
    shutdown_shared_pool()
    cpu_s = cpu_seconds() - cpu_before

    problems = workloads.check(
        outcome, cases, workloads.reference(args.workload, args.reference)
    )
    report.update(
        setup_s=(called - args.spawned_ns) / 1e9,
        wall_s=(returned - called) / 1e9,
        peak_rss_mb=peak_rss_mb(),
        attempted=len(cases),
        failed=len(problems),
        problems=problems
        + [
            f"worker {child.pid} is alive after the pool shut down"
            for child in multiprocessing.active_children()
        ],
    )
    if tracer is not None:
        report["layers"], trace_problems = layer_metrics(
            tracer, root, outcome, cache_directory, cpu_s
        )
        report["problems"] += trace_problems
    args.output.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
