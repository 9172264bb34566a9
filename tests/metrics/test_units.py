"""Tests for the unit-safe value objects."""

import pytest

from repro.metrics import Bandwidth, DataSize, Distance, Duration


class TestDuration:
    def test_year_conversion(self):
        assert Duration.from_years(1.0).hours == pytest.approx(8760.0)

    def test_minute_conversion(self):
        assert Duration.from_minutes(30.0).hours == pytest.approx(0.5)

    def test_second_conversion_round_trip(self):
        assert Duration.from_seconds(7200.0).seconds == pytest.approx(7200.0)

    def test_addition_and_scaling(self):
        total = Duration.from_hours(1.0) + Duration.from_minutes(30.0)
        assert total.hours == pytest.approx(1.5)
        assert (2 * Duration.from_hours(3.0)).hours == pytest.approx(6.0)

    def test_ordering(self):
        assert Duration.from_minutes(5.0) < Duration.from_hours(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Duration(-1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Duration(float("nan")),
            lambda: Duration(float("inf")),
            lambda: Duration.from_years(1e308),
        ],
        ids=["nan", "inf", "overflow"],
    )
    def test_rejects_non_finite(self, make):
        # NaN passes a `< 0` check; 1e308 years overflow to infinite hours.
        with pytest.raises(ValueError, match="finite"):
            make()


class TestDistance:
    def test_meters_round_trip(self):
        assert Distance.from_meters(1500.0).kilometers == pytest.approx(1.5)
        assert Distance.from_kilometers(2.0).meters == pytest.approx(2000.0)

    def test_addition(self):
        assert (Distance(1.0) + Distance(2.0)).kilometers == pytest.approx(3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Distance(-5.0)


class TestDataSize:
    def test_gigabyte_conversion(self):
        vm_image = DataSize.from_gigabytes(4.0)  # VM size used in the case study
        assert vm_image.megabytes == pytest.approx(4096.0)
        assert vm_image.gigabytes == pytest.approx(4.0)

    def test_bits(self):
        assert DataSize.from_megabytes(1.0).bits == pytest.approx(8.0 * 1024.0**2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DataSize(-1.0)


class TestBandwidth:
    def test_megabit_conversion_round_trip(self):
        link = Bandwidth.from_megabits_per_second(100.0)
        assert link.megabits_per_second == pytest.approx(100.0)

    def test_transfer_time(self):
        link = Bandwidth.from_megabytes_per_second(1.0)
        duration = link.transfer_time(DataSize.from_megabytes(3600.0))
        assert duration.hours == pytest.approx(1.0)

    def test_zero_bandwidth_cannot_transfer(self):
        with pytest.raises(ValueError):
            Bandwidth(0.0).transfer_time(DataSize.from_megabytes(1.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Bandwidth(-1.0)
