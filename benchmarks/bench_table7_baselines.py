"""Benchmark E1 — Table VII: availability of the baseline architectures.

Regenerates every row of Table VII (three single-site baselines and the five
two-data-center baseline architectures at α = 0.35 / 100-year disasters) and
checks that the qualitative shape of the published table holds: more machines
help a little, geographic distribution helps a lot, and availability decreases
monotonically with the distance between the data centers.
"""

import pytest

from repro.casestudy import PAPER_TABLE_VII, distributed_rows, single_site_rows
from repro.casestudy.report import render_table7


def test_paper_reference_rows_available():
    """The published table has eight rows; we track every one of them."""
    assert len(PAPER_TABLE_VII) == 8


def bench_single_site_rows(benchmark):
    rows = benchmark.pedantic(single_site_rows, rounds=1, iterations=1)
    assert len(rows) == 3
    values = [row.measured.availability for row in rows]
    # Shape: one machine < two machines <= four machines, all disaster-limited.
    assert values[0] < values[1] <= values[2] + 1e-9
    assert all(value < 0.9902 for value in values)
    # Within a third of a nine of the published values.
    for row in rows:
        assert row.nines_difference == pytest.approx(0.0, abs=0.35)


def bench_distributed_baseline_rows(benchmark, figure7_sweep):
    rows = benchmark.pedantic(
        distributed_rows, kwargs=figure7_sweep.deployment, rounds=1, iterations=1
    )
    assert len(rows) == 5
    values = [row.measured.availability for row in rows]
    # Shape: availability decreases monotonically with distance from Rio.
    assert values == sorted(values, reverse=True)
    # Shape: every distributed architecture clearly beats every single site.
    single = [row.measured.availability for row in single_site_rows()]
    assert min(values) > max(single)
    print()
    print(render_table7(rows))
