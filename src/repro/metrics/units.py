"""Small unit-safe value objects used across the case study.

The case study mixes hours (component MTTFs), years (disaster mean times),
minutes (VM start time), seconds (computed transfer times), kilometres
(inter-data-center distances) and gigabytes (VM image size).  These tiny
wrappers keep the conversion factors in a single place so scenario code never
multiplies by a magic constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_HOURS_PER_YEAR = 8760.0
_SECONDS_PER_HOUR = 3600.0
_MINUTES_PER_HOUR = 60.0
_BITS_PER_BYTE = 8.0
_BYTES_PER_GIGABYTE = 1024.0**3
_BYTES_PER_MEGABYTE = 1024.0**2


@dataclass(frozen=True, order=True)
class Duration:
    """A span of time stored canonically in hours."""

    hours: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hours) and self.hours >= 0.0):
            raise ValueError(
                f"duration must be finite and non-negative, got {self.hours!r} hours"
            )

    @classmethod
    def from_hours(cls, hours: float) -> "Duration":
        return cls(hours)

    @classmethod
    def from_years(cls, years: float) -> "Duration":
        return cls(years * _HOURS_PER_YEAR)

    @classmethod
    def from_minutes(cls, minutes: float) -> "Duration":
        return cls(minutes / _MINUTES_PER_HOUR)

    @classmethod
    def from_seconds(cls, seconds: float) -> "Duration":
        return cls(seconds / _SECONDS_PER_HOUR)

    @property
    def years(self) -> float:
        return self.hours / _HOURS_PER_YEAR

    @property
    def minutes(self) -> float:
        return self.hours * _MINUTES_PER_HOUR

    @property
    def seconds(self) -> float:
        return self.hours * _SECONDS_PER_HOUR

    def __add__(self, other: "Duration") -> "Duration":
        return Duration(self.hours + other.hours)

    def __mul__(self, factor: float) -> "Duration":
        return Duration(self.hours * float(factor))

    __rmul__ = __mul__


@dataclass(frozen=True, order=True)
class Distance:
    """A geographic distance stored canonically in kilometres."""

    kilometers: float

    def __post_init__(self) -> None:
        if self.kilometers < 0.0:
            raise ValueError(
                f"distance must be non-negative, got {self.kilometers!r} km"
            )

    @classmethod
    def from_kilometers(cls, kilometers: float) -> "Distance":
        return cls(kilometers)

    @classmethod
    def from_meters(cls, meters: float) -> "Distance":
        return cls(meters / 1000.0)

    @property
    def meters(self) -> float:
        return self.kilometers * 1000.0

    def __add__(self, other: "Distance") -> "Distance":
        return Distance(self.kilometers + other.kilometers)


@dataclass(frozen=True, order=True)
class DataSize:
    """An amount of data stored canonically in bytes (VM image sizes)."""

    bytes: float

    def __post_init__(self) -> None:
        if self.bytes < 0.0:
            raise ValueError(f"data size must be non-negative, got {self.bytes!r} bytes")

    @classmethod
    def from_gigabytes(cls, gigabytes: float) -> "DataSize":
        return cls(gigabytes * _BYTES_PER_GIGABYTE)

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "DataSize":
        return cls(megabytes * _BYTES_PER_MEGABYTE)

    @property
    def gigabytes(self) -> float:
        return self.bytes / _BYTES_PER_GIGABYTE

    @property
    def megabytes(self) -> float:
        return self.bytes / _BYTES_PER_MEGABYTE

    @property
    def bits(self) -> float:
        return self.bytes * _BITS_PER_BYTE


@dataclass(frozen=True, order=True)
class Bandwidth:
    """A data rate stored canonically in bytes per second."""

    bytes_per_second: float

    def __post_init__(self) -> None:
        if self.bytes_per_second < 0.0:
            raise ValueError(
                f"bandwidth must be non-negative, got {self.bytes_per_second!r} B/s"
            )

    @classmethod
    def from_megabits_per_second(cls, mbps: float) -> "Bandwidth":
        return cls(mbps * 1e6 / _BITS_PER_BYTE)

    @classmethod
    def from_megabytes_per_second(cls, mbytes: float) -> "Bandwidth":
        return cls(mbytes * _BYTES_PER_MEGABYTE)

    @property
    def megabits_per_second(self) -> float:
        return self.bytes_per_second * _BITS_PER_BYTE / 1e6

    @property
    def megabytes_per_second(self) -> float:
        return self.bytes_per_second / _BYTES_PER_MEGABYTE

    def transfer_time(self, size: DataSize) -> Duration:
        """Time needed to transfer ``size`` at this sustained rate."""
        if self.bytes_per_second == 0.0:
            raise ValueError("cannot transfer data over a zero-bandwidth link")
        return Duration.from_seconds(size.bytes / self.bytes_per_second)
