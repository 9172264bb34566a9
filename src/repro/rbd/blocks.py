"""Reliability Block Diagram (RBD) structures.

The paper uses RBDs at the lower level of its hierarchical approach
(Section IV-D, Figure 5): the operating system and the physical-machine
hardware form a series RBD (``OS_PM``), and the switch, router and NAS form a
second series RBD (``NAS_NET``).  The equivalent MTTF/MTTR of each RBD then
parameterises a SIMPLE_COMPONENT of the higher-level SPN.

Series and parallel structures may be nested arbitrarily, and every block
exposes steady-state availability, time-dependent reliability (without
repair), an equivalent failure rate and equivalent MTTF/MTTR.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

from repro.exceptions import ModelError
from repro.metrics.availability import availability_from_mttf_mttr


class Block:
    """Base class of every RBD node.

    Concrete subclasses implement :meth:`availability_given` (steady-state
    availability with optional per-basic-block overrides) and
    :meth:`reliability` (probability of surviving ``[0, t]`` without repair).
    """

    name: str

    def availability(self) -> float:
        """Steady-state availability of the (sub)system rooted at this block."""
        return self.availability_given({})

    def availability_given(self, overrides: Mapping[str, float]) -> float:
        """Availability with some basic blocks pinned to given values.

        Args:
            overrides: mapping from basic-block name to an availability value
                in ``[0, 1]``; used by importance analysis.
        """
        raise NotImplementedError

    def reliability(self, time: float) -> float:
        """Reliability ``R(t)`` assuming no repair (mission reliability)."""
        raise NotImplementedError

    def basic_blocks(self) -> list["BasicBlock"]:
        """All basic (leaf) blocks in the subtree, in depth-first order."""
        raise NotImplementedError

    def basic_block_names(self) -> list[str]:
        """Names of all basic blocks in the subtree."""
        return [block.name for block in self.basic_blocks()]

    # Derived metrics -----------------------------------------------------

    def mttf(self, upper_limit_factor: "float | None" = None) -> float:
        """Mean time to (first) failure ``∫ R(t) dt``.

        For leaves and pure series structures the closed form is used; other
        structures integrate the reliability numerically with per-decade
        breakpoints and a certified exponential tail bound (see
        :func:`repro.rbd.evaluation.mean_time_to_failure`).  An explicit
        ``upper_limit_factor`` truncates at that multiple of the largest
        leaf MTTF instead.
        """
        from repro.rbd.evaluation import mean_time_to_failure

        return mean_time_to_failure(self, upper_limit_factor=upper_limit_factor)

    def mttr(self) -> float:
        """Equivalent MTTR consistent with the availability and the MTTF."""
        from repro.rbd.evaluation import equivalent_mttr

        return equivalent_mttr(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class BasicBlock(Block):
    """A leaf component with exponential failure and repair times.

    Attributes:
        name: unique component name (e.g. ``"OS"``, ``"Router"``).
        mttf: mean time to failure (hours in the paper's tables).
        mttr: mean time to repair (same unit).
    """

    def __init__(self, name: str, mttf: float, mttr: float):
        if not name:
            raise ModelError("a basic block needs a non-empty name")
        if mttf <= 0.0:
            raise ModelError(f"block {name!r}: MTTF must be positive, got {mttf!r}")
        if mttr < 0.0:
            raise ModelError(f"block {name!r}: MTTR must be non-negative, got {mttr!r}")
        self.name = name
        self._mttf = mttf
        self._mttr = mttr

    @property
    def failure_rate(self) -> float:
        """Exponential failure rate ``1 / MTTF``."""
        return 1.0 / self._mttf

    @property
    def repair_rate(self) -> float:
        """Exponential repair rate ``1 / MTTR`` (``inf`` for MTTR = 0)."""
        if self._mttr == 0.0:
            return math.inf
        return 1.0 / self._mttr

    def availability_given(self, overrides: Mapping[str, float]) -> float:
        if self.name in overrides:
            value = overrides[self.name]
            if not 0.0 <= value <= 1.0:
                raise ModelError(
                    f"override for block {self.name!r} must be in [0, 1], got {value!r}"
                )
            return value
        return availability_from_mttf_mttr(self._mttf, self._mttr)

    def reliability(self, time: float) -> float:
        if time < 0.0:
            raise ValueError(f"time must be non-negative, got {time!r}")
        return math.exp(-time / self._mttf)

    def basic_blocks(self) -> list["BasicBlock"]:
        return [self]

    def mttf(self, upper_limit_factor: float = 200.0) -> float:
        return self._mttf

    def mttr(self) -> float:
        return self._mttr


class _Composite(Block):
    """Shared plumbing of structures with child blocks."""

    def __init__(self, name: str, children: Iterable[Block]):
        children = list(children)
        if not name:
            raise ModelError("a composite block needs a non-empty name")
        if not children:
            raise ModelError(f"composite block {name!r} needs at least one child")
        names = [block.name for child in children for block in child.basic_blocks()]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ModelError(
                f"composite block {name!r} contains duplicated basic block names: "
                f"{sorted(duplicates)}"
            )
        self.name = name
        self.children: Sequence[Block] = tuple(children)

    def basic_blocks(self) -> list[BasicBlock]:
        blocks: list[BasicBlock] = []
        for child in self.children:
            blocks.extend(child.basic_blocks())
        return blocks


class Series(_Composite):
    """Series arrangement: the structure works iff every child works."""

    def availability_given(self, overrides: Mapping[str, float]) -> float:
        result = 1.0
        for child in self.children:
            result *= child.availability_given(overrides)
        return result

    def reliability(self, time: float) -> float:
        result = 1.0
        for child in self.children:
            result *= child.reliability(time)
        return result


class Parallel(_Composite):
    """Parallel arrangement: the structure works iff at least one child works."""

    def availability_given(self, overrides: Mapping[str, float]) -> float:
        result = 1.0
        for child in self.children:
            result *= 1.0 - child.availability_given(overrides)
        return 1.0 - result

    def reliability(self, time: float) -> float:
        result = 1.0
        for child in self.children:
            result *= 1.0 - child.reliability(time)
        return 1.0 - result

