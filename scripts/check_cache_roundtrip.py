"""CI check: the persistent TRG cache round-trips bit-identically.

Runs the reduced case-study configuration three times against a throw-away
cache directory: the first run must generate (and store) the reachability
graph, the second must load it from disk and produce bit-identical markings,
edge arrays and availability.  The third runs after the stored entry has
been truncated to half its size: the corrupt entry must be a clean miss that
regenerates the same availability, without leaking the rejected file's
handle (no ``ResourceWarning``).
"""

import gc
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="trg-cache-") as directory:
        os.environ["REPRO_CACHE_DIR"] = directory

        from repro.casestudy import DistributedSweepRunner
        from repro.core import CaseStudyParameters, DistributedScenario
        from repro.core.scenarios import CITY_PAIRS
        from repro.spn import graph_deviation

        def make_runner():
            return DistributedSweepRunner(
                parameters=CaseStudyParameters(required_running_vms=1),
                machines_per_datacenter=1,
            )

        scenario = DistributedScenario(*CITY_PAIRS[0])

        first = make_runner()
        started = time.perf_counter()
        first_graph = first.graph()
        generate_seconds = time.perf_counter() - started
        first_availability = first.evaluate(scenario).availability.availability
        if first.engine().graph_source != "generated":
            print(f"FAIL: first run source {first.engine().graph_source!r}")
            return 1

        second = make_runner()
        started = time.perf_counter()
        second_graph = second.graph()
        load_seconds = time.perf_counter() - started
        second_availability = second.evaluate(scenario).availability.availability
        print(
            f"generate: {generate_seconds:.2f}s, cache load: {load_seconds:.2f}s, "
            f"states: {second_graph.number_of_states}"
        )
        if second.engine().graph_source != "cache":
            print(f"FAIL: second run source {second.engine().graph_source!r} (expected cache hit)")
            return 1
        if second_graph.markings != first_graph.markings:
            print("FAIL: cached markings differ")
            return 1
        if graph_deviation(first_graph, second_graph) != 0.0:
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
        third = make_runner()
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            third.graph()
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        third_availability = third.evaluate(scenario).availability.availability
        if third.engine().graph_source != "generated":
            print(
                f"FAIL: truncated entry source {third.engine().graph_source!r} "
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
