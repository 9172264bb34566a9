"""Composition of stochastic Petri nets.

Section IV of the paper assembles the full cloud model from reusable blocks
(SIMPLE_COMPONENT, VM_BEHAVIOR, TRANSMISSION_COMPONENT) using "composition
rules (e.g. net union)".  ``merge`` implements that net union: places with
the same name are fused into a single place (their initial markings must
agree), transition names must stay unique, and guards keep referring to the
fused places.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ModelError
from repro.spn.model import ArcKind, StochasticPetriNet


def merge(name: str, nets: Sequence[StochasticPetriNet]) -> StochasticPetriNet:
    """Union of several nets, fusing places that share a name.

    Args:
        name: name of the composed net.
        nets: nets to merge, in order.

    Returns:
        A new net containing every place, transition and arc of the inputs.

    Raises:
        ModelError: if two nets define the same place with different initial
            markings, or the same transition name twice.
    """
    if not nets:
        raise ModelError("at least one net is required for composition")
    merged = StochasticPetriNet(name)
    for net in nets:
        _merge_into(merged, net)
    return merged


def _merge_into(target: StochasticPetriNet, source: StochasticPetriNet) -> None:
    for place in source.places:
        if target.has_place(place.name):
            existing = target.place(place.name)
            if existing.initial_tokens != place.initial_tokens:
                raise ModelError(
                    f"cannot fuse place {place.name!r}: initial markings differ "
                    f"({existing.initial_tokens} vs {place.initial_tokens})"
                )
        else:
            target.add_place(place.name, place.initial_tokens)
    for transition in source.transitions:
        if target.has_transition(transition.name):
            raise ModelError(
                f"cannot merge nets: transition {transition.name!r} is defined in "
                f"both {target.name!r} and {source.name!r}"
            )
        if transition.immediate:
            target.add_immediate_transition(
                transition.name,
                weight=transition.weight,
                priority=transition.priority,
                guard=transition.guard,
            )
        else:
            target.add_timed_transition(
                transition.name,
                delay=transition.delay,
                semantics=transition.semantics,
                guard=transition.guard,
            )
    for arc in source.arcs:
        if arc.kind is ArcKind.INPUT:
            target.add_input_arc(arc.place, arc.transition, arc.multiplicity)
        elif arc.kind is ArcKind.OUTPUT:
            target.add_output_arc(arc.transition, arc.place, arc.multiplicity)
        else:
            target.add_inhibitor_arc(arc.place, arc.transition, arc.multiplicity)
