"""Tests for RBD importance analysis."""

import pytest

from repro.rbd import BasicBlock, Parallel, Series, importance_analysis, series


def birnbaum_importance(structure):
    return {result.component: result.birnbaum for result in importance_analysis(structure)}


class TestBirnbaumImportance:
    def test_series_of_two_components(self):
        structure = Series("S", [BasicBlock("A", 99.0, 1.0), BasicBlock("B", 49.0, 1.0)])
        importance = birnbaum_importance(structure)
        # In a series system the Birnbaum importance of a component equals the
        # availability of the rest of the system.
        assert importance["A"] == pytest.approx(0.98)
        assert importance["B"] == pytest.approx(0.99)

    def test_weakest_series_component_is_most_critical(self):
        # For the paper's OS_PM block the PM hardware (A=0.988) is less
        # available than the OS (A=0.99975), so improving the PM matters more.
        os_pm = series("OS_PM", [("OS", 4000.0, 1.0), ("PM", 1000.0, 12.0)])
        results = importance_analysis(os_pm)
        assert results[0].component == "PM"

    def test_parallel_importance_is_small_when_redundant(self):
        redundant = Parallel("P", [BasicBlock("A", 99.0, 1.0), BasicBlock("B", 99.0, 1.0)])
        importance = birnbaum_importance(redundant)
        assert importance["A"] == pytest.approx(0.01)

    def test_results_sorted_by_decreasing_birnbaum(self):
        structure = Series(
            "S",
            [BasicBlock("GOOD", 10000.0, 1.0), BasicBlock("BAD", 10.0, 5.0)],
        )
        results = importance_analysis(structure)
        values = [result.birnbaum for result in results]
        assert values == sorted(values, reverse=True)

    def test_availability_improvement_non_negative(self):
        structure = Series("S", [BasicBlock("A", 50.0, 5.0), BasicBlock("B", 500.0, 5.0)])
        for result in importance_analysis(structure):
            assert result.availability_improvement >= 0.0

    def test_criticality_weighting(self):
        structure = Series("S", [BasicBlock("A", 50.0, 5.0), BasicBlock("B", 500.0, 5.0)])
        results = {r.component: r for r in importance_analysis(structure)}
        # Criticality importance of all components in a series system sums to ~1
        # when unavailabilities are small but here just check bounds.
        for result in results.values():
            assert 0.0 <= result.criticality <= 1.0
