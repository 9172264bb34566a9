"""Tests for RBD evaluation: MTTF, equivalent MTTR and summary results."""

import pytest

from repro.metrics import availability_from_mttf_mttr
from repro.rbd import (
    BasicBlock,
    Parallel,
    Series,
    equivalent_failure_rate,
    equivalent_mttr,
    evaluate,
    mean_time_to_failure,
    series,
)


class TestSeriesEquivalents:
    def test_equivalent_failure_rate_is_sum_of_rates(self):
        structure = Series("S", [BasicBlock("A", 100.0, 1.0), BasicBlock("B", 400.0, 2.0)])
        assert equivalent_failure_rate(structure) == pytest.approx(1 / 100.0 + 1 / 400.0)

    def test_series_mttf_closed_form(self):
        structure = Series("S", [BasicBlock("A", 100.0, 1.0), BasicBlock("B", 400.0, 2.0)])
        assert mean_time_to_failure(structure) == pytest.approx(1.0 / (0.01 + 0.0025))

    def test_equivalent_mttr_reproduces_availability(self):
        structure = Series("S", [BasicBlock("A", 100.0, 1.0), BasicBlock("B", 400.0, 2.0)])
        mttf = mean_time_to_failure(structure)
        mttr = equivalent_mttr(structure)
        assert availability_from_mttf_mttr(mttf, mttr) == pytest.approx(
            structure.availability()
        )

    def test_paper_os_pm_equivalents(self):
        # Hierarchical step of Section IV-D with Table VI values.
        os_pm = series("OS_PM", [("OS", 4000.0, 1.0), ("PM", 1000.0, 12.0)])
        result = evaluate(os_pm)
        assert result.mttf == pytest.approx(1.0 / (1 / 4000.0 + 1 / 1000.0))
        assert availability_from_mttf_mttr(result.mttf, result.mttr) == pytest.approx(
            result.availability
        )
        # The PM hardware (12 h repair) dominates the combined repair time.
        assert 2.0 < result.mttr < 12.0

    def test_paper_nas_net_equivalents(self):
        nas_net = series(
            "NAS_NET",
            [("Switch", 430000.0, 4.0), ("Router", 14077473.0, 4.0), ("NAS", 20000000.0, 2.0)],
        )
        result = evaluate(nas_net)
        assert result.availability > 0.99998
        assert result.mttf == pytest.approx(
            1.0 / (1 / 430000.0 + 1 / 14077473.0 + 1 / 20000000.0)
        )


class TestNonSeriesStructures:
    def test_parallel_mttf_of_identical_exponentials(self):
        # For two identical units without repair MTTF_parallel = 1.5 / lambda.
        structure = Parallel("P", [BasicBlock("A", 100.0, 1.0), BasicBlock("B", 100.0, 1.0)])
        assert mean_time_to_failure(structure) == pytest.approx(150.0, rel=1e-3)

    def test_parallel_equivalent_mttr_consistent(self):
        structure = Parallel("P", [BasicBlock("A", 100.0, 5.0), BasicBlock("B", 100.0, 5.0)])
        mttf = mean_time_to_failure(structure)
        mttr = equivalent_mttr(structure)
        assert availability_from_mttf_mttr(mttf, mttr) == pytest.approx(
            structure.availability()
        )

    def test_basic_block_passthrough(self):
        leaf = BasicBlock("A", 321.0, 7.0)
        assert mean_time_to_failure(leaf) == 321.0
        assert equivalent_mttr(leaf) == 7.0

    def test_perfect_block_has_zero_equivalent_mttr(self):
        leaf = BasicBlock("A", 321.0, 0.0)
        assert equivalent_mttr(leaf) == 0.0


class TestRbdResult:
    def test_result_fields_and_nines(self):
        result = evaluate(series("S", [("A", 99.0, 1.0)]))
        assert result.name == "S"
        assert result.availability == pytest.approx(0.99)
        assert result.nines == pytest.approx(2.0)
        assert result.failure_rate == pytest.approx(1.0 / 99.0)


class TestMttfIntegrationRobustness:
    """Regression tests for the truncated-horizon MTTF bug.

    The old implementation integrated R(t) in one adaptive pass over
    [0, 200 x max leaf MTTF]; with component lifetimes separated by many
    orders of magnitude the quadrature sampled straight past the
    concentrated mass and silently lost (or zeroed) the integral.  The fix
    places one breakpoint per decade between the fastest failure scale and
    the horizon and certifies the truncated tail against the coherent-
    structure bound R(t) <= sum_i exp(-lambda_i t).
    """

    def test_redundant_parallel_inside_series_with_separated_scales(self):
        # Closed form: integral of (1 - (1 - e^{-a t})^4) e^{-c t} dt
        #            = 4/(c+a) - 6/(c+2a) + 4/(c+3a) - 1/(c+4a).
        a, c = 1e-6, 1000.0
        deep = Parallel("deep", [BasicBlock(f"p{i}", 1.0 / a, 1.0) for i in range(4)])
        structure = Series("mixed", [deep, BasicBlock("weak", 1.0 / c, 1e-4)])
        exact = 4 / (c + a) - 6 / (c + 2 * a) + 4 / (c + 3 * a) - 1 / (c + 4 * a)
        assert mean_time_to_failure(structure) == pytest.approx(exact, rel=1e-8)

    def test_highly_redundant_parallel_matches_harmonic_closed_form(self):
        n, leaf_mttf = 64, 100.0
        block = Parallel("big", [BasicBlock(f"u{i}", leaf_mttf, 1.0) for i in range(n)])
        exact = leaf_mttf * sum(1.0 / k for k in range(1, n + 1))
        assert mean_time_to_failure(block) == pytest.approx(exact, rel=1e-10)

    def test_parallel_with_twelve_orders_of_magnitude_scale_separation(self):
        # Inclusion-exclusion for two independent exponentials.
        fast, slow = 1.0, 1e12
        block = Parallel("sep", [BasicBlock("fast", fast, 0.1), BasicBlock("slow", slow, 0.1)])
        exact = fast + slow - 1.0 / (1.0 / fast + 1.0 / slow)
        assert mean_time_to_failure(block) == pytest.approx(exact, rel=1e-10)

    def test_explicit_upper_limit_factor_still_truncates(self):
        block = Parallel("pair", [BasicBlock("a", 100.0, 1.0), BasicBlock("b", 100.0, 1.0)])
        truncated = mean_time_to_failure(block, upper_limit_factor=0.5)
        assert truncated < mean_time_to_failure(block)
