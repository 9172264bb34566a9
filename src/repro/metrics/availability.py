"""Steady-state availability arithmetic.

The paper reports results both as raw availability values (Table VII) and as
"number of nines" (Figure 7), computed as ``nines = -log10(1 - A)``.  This
module centralises those conversions plus the derived quantities IaaS
providers actually negotiate in SLAs (downtime per year).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HOURS_PER_YEAR = 8760.0
MINUTES_PER_HOUR = 60.0


def availability_from_mttf_mttr(mttf: float, mttr: float) -> float:
    """Steady-state availability of a single repairable component.

    ``A = MTTF / (MTTF + MTTR)`` for exponentially distributed failure and
    repair times (the assumption used throughout the paper).

    Args:
        mttf: mean time to failure (any time unit, must be positive).
        mttr: mean time to repair (same unit, must be non-negative).

    Returns:
        Availability in ``[0, 1]``.
    """
    if mttf <= 0.0:
        raise ValueError(f"MTTF must be positive, got {mttf!r}")
    if mttr < 0.0:
        raise ValueError(f"MTTR must be non-negative, got {mttr!r}")
    return mttf / (mttf + mttr)


def number_of_nines(availability: float) -> float:
    """Number of nines of an availability value.

    ``nines = -log10(1 - A)`` — the expression given in Section V of the
    paper.  ``A = 1`` maps to ``inf``.

    Args:
        availability: value in ``[0, 1]``.
    """
    _check_probability(availability, "availability")
    if availability == 1.0:
        return math.inf
    return -math.log10(1.0 - availability)


def downtime_hours_per_year(availability: float) -> float:
    """Expected downtime in hours over one year of continuous operation."""
    _check_probability(availability, "availability")
    return (1.0 - availability) * HOURS_PER_YEAR


def downtime_minutes_per_year(availability: float) -> float:
    """Expected downtime in minutes over one year of continuous operation."""
    return downtime_hours_per_year(availability) * MINUTES_PER_HOUR


def _check_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class AvailabilityResult:
    """Availability of a system together with the derived SLA-style figures.

    Attributes:
        availability: steady-state availability in ``[0, 1]``.
        label: optional human-readable identifier of the evaluated
            architecture or scenario.
    """

    availability: float
    label: str = ""

    def __post_init__(self) -> None:
        _check_probability(self.availability, "availability")

    @property
    def unavailability(self) -> float:
        """``1 - A``."""
        return 1.0 - self.availability

    @property
    def nines(self) -> float:
        """Number of nines, the metric plotted in Figure 7."""
        return number_of_nines(self.availability)

    @property
    def downtime_hours_per_year(self) -> float:
        """Expected yearly downtime in hours."""
        return downtime_hours_per_year(self.availability)

    @property
    def downtime_minutes_per_year(self) -> float:
        """Expected yearly downtime in minutes."""
        return downtime_minutes_per_year(self.availability)

    def improvement_in_nines(self, baseline: "AvailabilityResult | float") -> float:
        """Increase in number of nines relative to ``baseline``.

        This is the quantity reported by Figure 7 ("availability increase of
        different distributed cloud configurations").
        """
        if isinstance(baseline, AvailabilityResult):
            base = baseline.nines
        else:
            base = number_of_nines(float(baseline))
        return self.nines - base

    def meets_sla(self, required_availability: float) -> bool:
        """Whether this availability satisfies a minimum SLA level."""
        _check_probability(required_availability, "required_availability")
        return self.availability >= required_availability

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = f"{self.label}: " if self.label else ""
        return f"{label}A={self.availability:.7f} ({self.nines:.2f} nines)"
