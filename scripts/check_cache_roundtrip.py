"""CI check: the persistent TRG cache round-trips bit-identically.

Runs the reduced case-study configuration three times through
``evaluate_grid`` against a throw-away cache directory: the first run must
generate (and store) the reachability graph, the second must load it from
disk — a graph with bit-identical markings and edge arrays to a fresh
generation — and produce a bit-identical availability.  The third runs
after the stored entry has been truncated to half its size: the corrupt
entry must be a clean miss that regenerates the same availability, without
leaking the rejected file's handle (no ``ResourceWarning``).
"""

import gc
import os
import sys
import tempfile
import warnings
from pathlib import Path


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="trg-cache-") as directory:
        os.environ["REPRO_CACHE_DIR"] = directory

        from repro.casestudy import evaluate_grid, scenario_case
        from repro.core import CaseStudyParameters, DistributedScenario
        from repro.core.scenarios import CITY_PAIRS
        from repro.engine import TRGCache
        from repro.spn import graph_deviation

        parameters = CaseStudyParameters(required_running_vms=1)
        scenario = DistributedScenario(*CITY_PAIRS[0], machines_per_datacenter=1)

        def run():
            """(graph source, generate-or-load seconds, availability)."""
            outcome = evaluate_grid([scenario], parameters)
            (group,) = outcome.groups
            (row,) = outcome.results
            return group.graph_source, group.generate_seconds, row.value("availability")

        source, generate_seconds, first_availability = run()
        if source != "generated":
            print(f"FAIL: first run source {source!r}")
            return 1

        source, load_seconds, second_availability = run()
        if source != "cache":
            print(f"FAIL: second run source {source!r} (expected cache hit)")
            return 1
        case = scenario_case(scenario, parameters=parameters)
        fresh_graph, _ = case.graph()
        cached_graph, cached_source = case.graph(TRGCache(directory))
        print(
            f"generate: {generate_seconds:.2f}s, cache load: {load_seconds:.2f}s, "
            f"states: {fresh_graph.number_of_states}"
        )
        if cached_source != "cache" or cached_graph.markings != fresh_graph.markings:
            print("FAIL: cached markings differ")
            return 1
        if graph_deviation(fresh_graph, cached_graph) != 0.0:
            print("FAIL: cached graph deviates")
            return 1
        if first_availability != second_availability:
            print(
                f"FAIL: availability not bit-identical "
                f"({first_availability!r} vs {second_availability!r})"
            )
            return 1
        print(f"availability bit-identical: {second_availability!r}")

        (entry,) = Path(directory).glob("trg-*.npz")
        content = entry.read_bytes()
        entry.write_bytes(content[: len(content) // 2])
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            source, _, third_availability = run()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        if source != "generated":
            print(
                f"FAIL: truncated entry source {source!r} "
                f"(expected a miss that regenerates)"
            )
            return 1
        if leaks:
            print(f"FAIL: loading the truncated entry leaked: {leaks[0].message}")
            return 1
        if third_availability != first_availability:
            print(
                f"FAIL: availability after the truncated entry not bit-identical "
                f"({first_availability!r} vs {third_availability!r})"
            )
            return 1
        print("truncated entry: regenerated bit-identically, no leaked handle")
        print("OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
