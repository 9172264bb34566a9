"""Component importance measures for RBD structures.

These measures tell a designer which component most limits system
availability — useful when deciding where to add redundancy (the kind of
design question the paper's case study is meant to answer at the data-center
level).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rbd.blocks import Block


@dataclass(frozen=True)
class ImportanceResult:
    """Importance indices of a single basic block within a structure.

    Attributes:
        component: basic-block name.
        birnbaum: Birnbaum (marginal) importance
            ``A_sys(A_i = 1) - A_sys(A_i = 0)``.
        availability_improvement: increase in system availability obtained by
            making the component perfect (``A_i = 1``).
        criticality: Birnbaum importance weighted by the component's own
            unavailability relative to the system's unavailability.
    """

    component: str
    birnbaum: float
    availability_improvement: float
    criticality: float


def importance_analysis(block: Block) -> list[ImportanceResult]:
    """Compute importance indices for every basic block of a structure.

    Results are sorted by decreasing Birnbaum importance so the most critical
    component appears first.
    """
    system_availability = block.availability()
    system_unavailability = 1.0 - system_availability
    results = []
    for leaf in block.basic_blocks():
        with_perfect = block.availability_given({leaf.name: 1.0})
        with_failed = block.availability_given({leaf.name: 0.0})
        birnbaum = with_perfect - with_failed
        leaf_availability = leaf.availability()
        if system_unavailability > 0.0:
            criticality = birnbaum * (1.0 - leaf_availability) / system_unavailability
        else:
            criticality = 0.0
        results.append(
            ImportanceResult(
                component=leaf.name,
                birnbaum=birnbaum,
                availability_improvement=with_perfect - system_availability,
                criticality=criticality,
            )
        )
    results.sort(key=lambda result: result.birnbaum, reverse=True)
    return results
