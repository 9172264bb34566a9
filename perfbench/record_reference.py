"""Record ``reference.json``: the availability of every case a seed can draw.

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record_reference.py

Runs each workload's whole input pool (``workloads.pool``) through
``evaluate_grid`` once, with the workload's options and a fresh cache, and
stores availability by case name.  Re-record only for a change that is
meant to move the answers, and say so in its description.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    from repro.casestudy.grid import evaluate_grid
    from repro.engine.parallel import shutdown_shared_pool

    table = {}
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="perfbench-reference-") as scratch:
            outcome = evaluate_grid(
                workloads.pool(workload),
                **workloads.options(workload, Path(scratch) / "cache"),
            )
            shutdown_shared_pool()
        if outcome.failures:
            print(f"{workload}: quarantined {outcome.failed_cases()}", file=sys.stderr)
            return 1
        table[workload] = {
            row.name: row.value("availability") for row in outcome.results
        }
        print(f"{workload}: {len(outcome.results)} cases", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
