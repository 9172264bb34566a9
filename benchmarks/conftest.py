"""Shared fixtures for the benchmark suite.

By default the distributed benchmarks use the faithful case-study
configuration (two PMs per data center, k = 2); its lumped CTMC has
~5.7 × 10^4 states, the shared state space is generated once per session and
each scenario re-uses the ILU preconditioner and the previous solution, so
``pytest benchmarks/ --benchmark-only`` finishes in roughly ten minutes.  Set
``REPRO_BENCH_FULL=0`` to fall back to a reduced configuration (one PM per
data center, k = 1) that finishes in about a minute.
"""

import os

import pytest

from figure7_workload import Figure7Sweep


def full_scale() -> bool:
    """Whether the faithful case-study configuration should be used."""
    return os.environ.get("REPRO_BENCH_FULL", "1") not in ("", "0", "false", "no")


@pytest.fixture(scope="session")
def figure7_sweep() -> Figure7Sweep:
    """Shared Figure 7 workload (its graph is loaded or generated once per session)."""
    sweep = Figure7Sweep(full=full_scale())
    # Force the one-off state-space generation outside of the timed sections.
    sweep.engine
    return sweep
