"""Convenience constructors for common RBD shapes.

These helpers keep the case-study code declarative, e.g.::

    os_pm = series("OS_PM", [("OS", 4000.0, 1.0), ("PM", 1000.0, 12.0)])
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

from repro.rbd.blocks import BasicBlock, Block, Parallel, Series

ComponentSpec = Union[Block, Tuple[str, float, float]]


def _as_block(spec: ComponentSpec) -> Block:
    if isinstance(spec, Block):
        return spec
    name, mttf, mttr = spec
    return BasicBlock(name, mttf, mttr)


def series(name: str, components: Iterable[ComponentSpec]) -> Series:
    """Series structure from blocks or ``(name, mttf, mttr)`` tuples."""
    return Series(name, [_as_block(spec) for spec in components])


def parallel(name: str, components: Iterable[ComponentSpec]) -> Parallel:
    """Parallel structure from blocks or ``(name, mttf, mttr)`` tuples."""
    return Parallel(name, [_as_block(spec) for spec in components])


def replicate(
    name: str, prototype: Tuple[float, float], count: int, prefix: str
) -> Sequence[BasicBlock]:
    """Create ``count`` identical basic blocks named ``prefix_1..prefix_count``.

    Args:
        name: unused placeholder kept for symmetry with the other builders
            (the returned blocks are leaves, the caller wraps them).
        prototype: ``(mttf, mttr)`` shared by every replica.
        count: number of replicas (must be positive).
        prefix: name prefix of each replica.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count!r}")
    mttf, mttr = prototype
    return [BasicBlock(f"{prefix}_{index}", mttf, mttr) for index in range(1, count + 1)]
