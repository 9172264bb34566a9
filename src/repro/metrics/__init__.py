"""Dependability metrics: availability, nines, downtime and unit handling."""

from repro.metrics.availability import (
    AvailabilityResult,
    availability_from_mttf_mttr,
    downtime_hours_per_year,
    downtime_minutes_per_year,
    number_of_nines,
)
from repro.metrics.units import Bandwidth, DataSize, Distance, Duration

__all__ = [
    "AvailabilityResult",
    "availability_from_mttf_mttr",
    "downtime_hours_per_year",
    "downtime_minutes_per_year",
    "number_of_nines",
    "Bandwidth",
    "DataSize",
    "Distance",
    "Duration",
]
