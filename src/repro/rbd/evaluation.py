"""Evaluation of RBD structures: MTTF, equivalent MTTR and summary results.

The hierarchical step of the paper (Section IV-D) needs the *equivalent*
MTTF/MTTR of an RBD so that the corresponding SIMPLE_COMPONENT of the SPN can
be parameterised.  For a series structure of independently repairable
exponential components the standard equivalences are used::

    Λ_eq  = Σ λ_i                      (equivalent failure rate)
    A_eq  = Π A_i                      (steady-state availability)
    MTTF_eq = 1 / Λ_eq
    MTTR_eq = MTTF_eq (1 - A_eq) / A_eq

For arbitrary structures MTTF is obtained by integrating the mission
reliability ``∫ R(t) dt`` and MTTR again follows from the availability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import AnalysisError
from repro.metrics.availability import number_of_nines
from repro.rbd.blocks import BasicBlock, Block, Series

#: Default integration horizon, as a multiple of the largest leaf MTTF.
#: The truncated tail is *certified* against :func:`_tail_bound` (for a
#: coherent structure ``R(t) ≤ Σᵢ e^(-λᵢ t)``), so at 200 mean lifetimes the
#: neglected mass is below ``Σᵢ MTTFᵢ · e⁻²⁰⁰`` — far under double precision.
DEFAULT_HORIZON_FACTOR = 200.0

#: Relative tolerance the certified tail bound must meet before the horizon
#: stops growing.
_TAIL_RELATIVE_TOLERANCE = 1e-12


def equivalent_failure_rate(block: Block) -> float:
    """Equivalent failure rate of a block.

    Exact for basic blocks and series structures (sum of leaf rates); for
    other structures it is defined as ``1 / MTTF`` with MTTF obtained from
    :func:`mean_time_to_failure`.
    """
    if isinstance(block, BasicBlock):
        return block.failure_rate
    if isinstance(block, Series) and all(
        isinstance(child, (BasicBlock, Series)) for child in block.children
    ):
        return sum(equivalent_failure_rate(child) for child in block.children)
    return 1.0 / mean_time_to_failure(block)


def _tail_bound(leaf_mttfs: list[float], horizon: float) -> float:
    """Certified upper bound on the truncated tail ``∫_H^∞ R(t) dt``.

    A coherent structure is up only while at least one component is up, so
    ``R(t) ≤ Σᵢ P{component i alive at t} = Σᵢ e^(-t / MTTFᵢ)`` and the tail
    beyond ``horizon`` is bounded by ``Σᵢ MTTFᵢ · e^(-horizon / MTTFᵢ)``.
    """
    return sum(mttf * math.exp(-horizon / mttf) for mttf in leaf_mttfs)


def _integration_breakpoints(leaf_mttfs: list[float], horizon: float) -> list[float]:
    """Log-spaced quadrature breakpoints covering every lifetime scale.

    ``R(t)``'s mass can sit anywhere between the fastest failure scale
    (``1 / Σ λᵢ``) and the horizon; with leaf MTTFs separated by many orders
    of magnitude a single adaptive pass over ``[0, horizon]`` samples right
    past the concentrated mass and silently truncates the integral (the bug
    this replaces).  One breakpoint per decade forces the quadrature to
    resolve every scale.
    """
    fastest = 0.1 / sum(1.0 / mttf for mttf in leaf_mttfs)
    first = math.floor(math.log10(fastest))
    last = math.ceil(math.log10(horizon))
    return [10.0**k for k in range(first, last) if 0.0 < 10.0**k < horizon]


def mean_time_to_failure(
    block: Block, upper_limit_factor: Optional[float] = None
) -> float:
    """Mean time to first failure of the structure (no repair).

    Closed form for basic blocks and series-of-exponential structures;
    numerical integration of ``R(t)`` otherwise.  The integration places one
    breakpoint per decade between the fastest failure scale and the horizon
    (so widely separated component lifetimes cannot be sampled past — the
    old single-pass quadrature silently lost the concentrated mass of
    highly redundant parallel structures inside larger
    systems), and the truncated tail is certified against the coherent-
    structure bound ``R(t) ≤ Σᵢ e^(-λᵢ t)``, growing the horizon until the
    neglected tail is relatively negligible.

    Args:
        block: the structure to evaluate.
        upper_limit_factor: optional explicit truncation horizon as a
            multiple of the largest leaf MTTF; ``None`` (the default) uses
            ``200`` lifetimes *and* enforces the certified tail bound.
    """
    if isinstance(block, BasicBlock):
        return block.mttf()
    if isinstance(block, Series) and all(
        isinstance(child, (BasicBlock, Series)) for child in block.children
    ):
        return 1.0 / sum(equivalent_failure_rate(child) for child in block.children)

    # Only non-series structures integrate; the case study's RBDs are series,
    # so its runs never pay scipy.integrate's import (and scipy.optimize's).
    from scipy import integrate

    leaf_mttfs = [leaf.mttf() for leaf in block.basic_blocks()]
    longest_leaf_mttf = max(leaf_mttfs)
    explicit_horizon = upper_limit_factor is not None
    factor = upper_limit_factor if explicit_horizon else DEFAULT_HORIZON_FACTOR
    horizon = factor * longest_leaf_mttf

    value = 0.0
    absolute_error = 0.0
    lower = 0.0
    while True:
        points = [
            point
            for point in _integration_breakpoints(leaf_mttfs, horizon)
            if lower < point < horizon
        ]
        piece, piece_error = integrate.quad(
            block.reliability,
            lower,
            horizon,
            limit=max(400, 50 * (len(points) + 1)),
            points=points or None,
        )
        value += piece
        absolute_error += piece_error
        if explicit_horizon:
            break
        tail = _tail_bound(leaf_mttfs, horizon)
        if tail <= _TAIL_RELATIVE_TOLERANCE * max(value, tail):
            break
        # Certified tail still matters: push the horizon out and integrate
        # the next slab (geometric growth terminates in a handful of steps
        # because the bound decays exponentially).
        lower, horizon = horizon, 2.0 * horizon
    if value <= 0.0:
        raise AnalysisError(
            f"numerical MTTF integration for block {block.name!r} returned {value!r}"
        )
    if absolute_error > max(1e-6, 1e-4 * value):
        raise AnalysisError(
            f"numerical MTTF integration for block {block.name!r} did not converge "
            f"(value={value!r}, error estimate={absolute_error!r})"
        )
    return value


def equivalent_mttr(block: Block) -> float:
    """Equivalent MTTR consistent with the block availability and MTTF."""
    if isinstance(block, BasicBlock):
        return block.mttr()
    availability = block.availability()
    if availability >= 1.0:
        return 0.0
    if availability <= 0.0:
        raise AnalysisError(
            f"block {block.name!r} has zero availability; equivalent MTTR is undefined"
        )
    mttf = mean_time_to_failure(block)
    return mttf * (1.0 - availability) / availability


@dataclass(frozen=True)
class RbdResult:
    """Summary of an RBD evaluation used to feed the SPN level.

    Attributes:
        name: name of the evaluated structure.
        availability: steady-state availability.
        mttf: equivalent mean time to failure.
        mttr: equivalent mean time to repair.
    """

    name: str
    availability: float
    mttf: float
    mttr: float

    @property
    def nines(self) -> float:
        """Number of nines of the availability."""
        return number_of_nines(self.availability)

    @property
    def failure_rate(self) -> float:
        """Equivalent failure rate ``1 / MTTF``."""
        return 1.0 / self.mttf


def evaluate(block: Block) -> RbdResult:
    """Evaluate a block and return the (availability, MTTF, MTTR) summary."""
    return RbdResult(
        name=block.name,
        availability=block.availability(),
        mttf=mean_time_to_failure(block),
        mttr=equivalent_mttr(block),
    )
