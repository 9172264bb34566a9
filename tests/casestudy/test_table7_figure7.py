"""Tests for the Table VII and Figure 7 reproduction harness.

The distributed rows are exercised on a reduced deployment (one PM per data
center) so the tests stay fast; the full-scale sweep is run by the benchmark
suite and recorded in EXPERIMENTS.md.
"""

import json
from pathlib import Path

import pytest

from repro.casestudy import (
    PAPER_TABLE_VII,
    best_configuration,
    deployment,
    distributed_rows,
    figure7_grid,
    reproduce_figure7,
    reproduce_table7,
    single_site_rows,
)
from repro.core.scenarios import CITY_PAIRS
from repro.metrics import number_of_nines


#: The reduced deployment: one PM per data center, k = 1.
SMALL = deployment()

#: Availabilities the repository benchmark checks its runs against.
REFERENCE = Path(__file__).resolve().parents[2] / "perfbench" / "reference.json"


class TestPaperReferenceValues:
    def test_all_eight_rows_published(self):
        assert len(PAPER_TABLE_VII) == 8

    def test_published_nines_match_paper_column(self):
        # The paper reports 1.80 / 3.57 nines for these rows.
        assert number_of_nines(PAPER_TABLE_VII["Cloud system with one machine"]) == pytest.approx(1.80, abs=0.01)
        assert number_of_nines(
            PAPER_TABLE_VII["Baseline architecture: Rio de Janeiro - Brasilia"]
        ) == pytest.approx(3.57, abs=0.01)

    def test_paper_orders_distributed_by_distance(self):
        distributed = [
            PAPER_TABLE_VII[f"Baseline architecture: Rio de Janeiro - {city}"]
            for city in ("Brasilia", "Recife", "New York", "Calcutta", "Tokyo")
        ]
        assert distributed == sorted(distributed, reverse=True)


class TestSingleSiteRows:
    def test_three_rows_with_published_counterparts(self):
        rows = single_site_rows()
        assert len(rows) == 3
        assert all(row.paper_availability is not None for row in rows)

    def test_shape_more_machines_higher_availability(self):
        rows = single_site_rows()
        values = [row.measured.availability for row in rows]
        assert values[0] < values[1] <= values[2] + 1e-9

    def test_single_site_rows_are_disaster_limited(self):
        # All single-site architectures sit below the ~0.9901 disaster ceiling.
        for row in single_site_rows():
            assert row.measured.availability < 0.9902

    def test_measured_close_to_paper(self):
        for row in single_site_rows():
            assert row.nines_difference == pytest.approx(0.0, abs=0.35)


class TestDistributedRows:
    def test_rows_produced_for_every_pair(self):
        rows = distributed_rows(**SMALL)
        assert len(rows) == 5
        assert all(row.measured.availability > 0.99 for row in rows)

    def test_distance_ordering_matches_paper(self):
        rows = distributed_rows(**SMALL)
        values = [row.measured.availability for row in rows]
        assert values[0] >= values[1] >= values[2] >= values[3] >= values[4]

    def test_reproduce_table7_combines_both_groups(self):
        rows = reproduce_table7(**SMALL)
        assert len(rows) == 8
        distributed = rows[3:]
        single = rows[:3]
        assert min(r.measured.availability for r in distributed) > max(
            r.measured.availability for r in single
        )

    def test_reproduce_table7_can_skip_distributed(self):
        assert len(reproduce_table7(include_distributed=False)) == 3


class TestTable7CachedOrchestration:
    def test_single_site_rows_populate_and_reuse_the_cache(self, tmp_path, monkeypatch):
        """The three baselines no longer bypass the TRGCache (old bug)."""
        from repro.casestudy.grid import scenario_case
        from repro.core.scenarios import single_datacenter_baselines
        from repro.engine import TRGCache
        from repro.spn.enabling import CompiledNet

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = TRGCache()
        assert not cache.entries()
        first = single_site_rows()
        assert len(cache.entries()) == 3
        # Every baseline's graph is now loadable straight from disk (keyed
        # by rateless structure, as the orchestrator stores them).
        for scenario in single_datacenter_baselines():
            case = scenario_case(scenario)
            compiled = CompiledNet(case.net)
            assert cache.load(compiled, 500_000, case.symmetry) is not None
        second = single_site_rows()
        for before, after in zip(first, second):
            assert before.measured.availability == after.measured.availability

    def test_single_site_rows_match_cold_model_solve(self):
        """Orchestrated baselines agree with the old per-model cold path."""
        from repro.core.scenarios import single_datacenter_baselines

        rows = single_site_rows(use_cache=False)
        for scenario, row in zip(single_datacenter_baselines(), rows):
            model = scenario.build_model()
            reference = model.availability().availability
            assert abs(reference - row.measured.availability) < 1e-9


class TestFigure7:
    def test_grid_restriction(self):
        scenarios = figure7_grid(city_pairs=CITY_PAIRS[:1], alphas=[0.35], disaster_years=[100.0, 300.0])
        assert len(scenarios) == 2

    def test_points_report_improvement_over_baseline(self):
        points = reproduce_figure7(
            city_pairs=CITY_PAIRS[:1],
            alphas=[0.35, 0.45],
            disaster_years=[100.0, 300.0],
            **SMALL,
        )
        assert len(points) == 4
        baseline = [p for p in points if p.is_baseline]
        assert len(baseline) == 1
        assert baseline[0].improvement_over_baseline == pytest.approx(0.0)
        assert all(p.improvement_over_baseline >= -1e-9 for p in points)

    def test_improvement_grows_with_disaster_mean_time(self):
        points = reproduce_figure7(
            city_pairs=CITY_PAIRS[:1],
            alphas=[0.35],
            disaster_years=[100.0, 200.0, 300.0],
            **SMALL,
        )
        ordered = sorted(points, key=lambda p: p.disaster_mean_time_years)
        improvements = [p.improvement_over_baseline for p in ordered]
        assert improvements == sorted(improvements)

    def test_best_configuration_prefers_rare_disasters_and_fast_network(self):
        points = reproduce_figure7(
            city_pairs=CITY_PAIRS[:1],
            alphas=[0.35, 0.45],
            disaster_years=[100.0, 300.0],
            **SMALL,
        )
        best = best_configuration(points)
        assert best.disaster_mean_time_years == 300.0
        assert best.alpha == 0.45

    def test_best_configuration_requires_points(self):
        with pytest.raises(ValueError):
            best_configuration([])

    def test_reduced_figure7_matches_the_benchmark_reference(self):
        """The 45 reduced points equal the benchmark's ``sweep-warm`` values."""
        reference = json.loads(REFERENCE.read_text())["sweep-warm"]
        points = reproduce_figure7(**SMALL)
        assert len(points) == 45
        for point in points:
            first, second = point.city_pair.split(" - ")
            name = (
                f"{first} - {second} (alpha={point.alpha:g}, "
                f"disaster={point.disaster_mean_time_years:g}y, machines=1)"
            )
            assert abs(point.availability - reference[name]) <= 1e-10, name
