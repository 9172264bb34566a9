"""Tests for availability metrics and nines conversions."""

import math

import pytest

from repro.metrics import (
    AvailabilityResult,
    availability_from_mttf_mttr,
    downtime_hours_per_year,
    downtime_minutes_per_year,
    number_of_nines,
)


class TestAvailabilityFromMttfMttr:
    def test_basic_value(self):
        assert availability_from_mttf_mttr(99.0, 1.0) == pytest.approx(0.99)

    def test_zero_mttr_gives_perfect_availability(self):
        assert availability_from_mttf_mttr(1000.0, 0.0) == 1.0

    def test_table_vi_operating_system(self):
        # OS: MTTF 4000 h, MTTR 1 h (Table VI).
        assert availability_from_mttf_mttr(4000.0, 1.0) == pytest.approx(4000.0 / 4001.0)

    def test_complements_unavailability(self):
        a = availability_from_mttf_mttr(1234.0, 5.6)
        assert 1.0 - a == pytest.approx(5.6 / (1234.0 + 5.6))

    def test_rejects_non_positive_mttf(self):
        with pytest.raises(ValueError):
            availability_from_mttf_mttr(0.0, 1.0)

    def test_rejects_negative_mttr(self):
        with pytest.raises(ValueError):
            availability_from_mttf_mttr(100.0, -1.0)


class TestNumberOfNines:
    def test_paper_value_table_vii_one_machine(self):
        # Table VII: A = 0.9842914 -> 1.80 nines.
        assert number_of_nines(0.9842914) == pytest.approx(1.80, abs=0.005)

    def test_paper_value_table_vii_rio_brasilia(self):
        # Table VII: A = 0.9997317 -> 3.57 nines.
        assert number_of_nines(0.9997317) == pytest.approx(3.57, abs=0.005)

    def test_three_nines(self):
        assert number_of_nines(0.999) == pytest.approx(3.0)

    def test_perfect_availability_is_infinite(self):
        assert math.isinf(number_of_nines(1.0))

    def test_zero_availability_is_zero_nines(self):
        assert number_of_nines(0.0) == pytest.approx(0.0)

    def test_round_trip_with_inverse(self):
        for nines in (0.5, 1.0, 2.5, 3.57, 5.0):
            assert number_of_nines(1.0 - 10.0 ** (-nines)) == pytest.approx(nines)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            number_of_nines(1.5)
        with pytest.raises(ValueError):
            number_of_nines(-0.1)


class TestDowntime:
    def test_hours_per_year(self):
        assert downtime_hours_per_year(0.999) == pytest.approx(8.76)

    def test_minutes_per_year(self):
        assert downtime_minutes_per_year(0.999) == pytest.approx(8.76 * 60.0)

    def test_perfect_availability_has_no_downtime(self):
        assert downtime_hours_per_year(1.0) == 0.0


class TestAvailabilityResult:
    def test_nines_property(self):
        result = AvailabilityResult(0.99, label="demo")
        assert result.nines == pytest.approx(2.0)
        assert result.unavailability == pytest.approx(0.01)

    def test_improvement_in_nines_against_result(self):
        baseline = AvailabilityResult(0.99)
        improved = AvailabilityResult(0.9999)
        assert improved.improvement_in_nines(baseline) == pytest.approx(2.0)

    def test_improvement_in_nines_against_float(self):
        improved = AvailabilityResult(0.999)
        assert improved.improvement_in_nines(0.99) == pytest.approx(1.0)

    def test_meets_sla(self):
        result = AvailabilityResult(0.9995)
        assert result.meets_sla(0.999)
        assert not result.meets_sla(0.9999)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            AvailabilityResult(1.2)

    def test_str_contains_label_and_nines(self):
        text = str(AvailabilityResult(0.999, label="rio"))
        assert "rio" in text
        assert "nines" in text
