"""Compiled net representation: fast enabling checks and firing.

Reachability generation and simulation both evaluate "which transitions are
enabled in this marking, and what happens when one fires" millions of times.
:class:`CompiledNet` flattens the declarative :class:`~repro.spn.model.StochasticPetriNet`
into index-based arc lists and pre-compiled guard closures so those inner
loops stay cheap; its incidence kernel (:mod:`repro.spn.kernel`) answers the
same questions for whole blocks of markings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.exceptions import ModelError
from repro.expressions import CompiledExpression, Expression, compile_expression
from repro.spn.model import ArcKind, ServerSemantics, StochasticPetriNet, Transition


@dataclass(frozen=True)
class CompiledTransition:
    """Flattened, index-based view of one transition.

    Attributes:
        name: transition name.
        immediate: whether the transition is immediate.
        rate: nominal firing rate (``1 / delay``) for timed transitions.
        infinite_server: whether the effective rate scales with the enabling
            degree.
        weight / priority: race resolution for immediate transitions.
        inputs / outputs / inhibitors: ``(place_index, multiplicity)`` pairs.
        guard: compiled guard closure or ``None``.
        guard_expression: the guard's AST (``None`` without a guard), which
            the incidence kernel tabulates over linear atoms.
        guard_source: canonical text of the guard AST (``None`` without a
            guard) — kept so net structures can be fingerprinted for the
            persistent reachability cache.
    """

    name: str
    immediate: bool
    rate: float
    infinite_server: bool
    weight: float
    priority: int
    inputs: tuple[tuple[int, int], ...]
    outputs: tuple[tuple[int, int], ...]
    inhibitors: tuple[tuple[int, int], ...]
    guard: Optional[CompiledExpression]
    guard_expression: Optional[Expression] = None
    guard_source: Optional[str] = None

    def is_enabled(self, marking: Sequence[int]) -> bool:
        """Whether the transition may fire in ``marking``."""
        for place, multiplicity in self.inputs:
            if marking[place] < multiplicity:
                return False
        for place, multiplicity in self.inhibitors:
            if marking[place] >= multiplicity:
                return False
        if self.guard is not None and not self.guard(marking):
            return False
        return True

    def enabling_degree(self, marking: Sequence[int]) -> int:
        """How many concurrent firings the marking supports.

        The degree is limited by the input arcs only (the standard GSPN
        definition); a transition without input arcs has degree 1.
        """
        if not self.inputs:
            return 1
        return min(marking[place] // multiplicity for place, multiplicity in self.inputs)

    def effective_rate(self, marking: Sequence[int]) -> float:
        """Firing rate in ``marking`` accounting for server semantics."""
        if self.immediate:
            raise ModelError(f"immediate transition {self.name!r} has no rate")
        if self.infinite_server:
            return self.rate * self.enabling_degree(marking)
        return self.rate

    def fire(self, marking: Sequence[int]) -> tuple[int, ...]:
        """Marking reached by firing the transition once."""
        updated = list(marking)
        for place, multiplicity in self.inputs:
            updated[place] -= multiplicity
            if updated[place] < 0:
                raise ModelError(
                    f"firing {self.name!r} would make place index {place} negative"
                )
        for place, multiplicity in self.outputs:
            updated[place] += multiplicity
        return tuple(updated)


class CompiledNet:
    """Index-based snapshot of a net, ready for analysis or simulation."""

    def __init__(self, net: StochasticPetriNet):
        self.name = net.name
        self.place_names: tuple[str, ...] = tuple(net.place_names)
        self.place_index: dict[str, int] = {
            name: index for index, name in enumerate(self.place_names)
        }
        self.initial_marking: tuple[int, ...] = tuple(
            place.initial_tokens for place in net.places
        )
        self.transitions: tuple[CompiledTransition, ...] = tuple(
            self._compile_transition(net, transition) for transition in net.transitions
        )
        self.timed_transitions: tuple[CompiledTransition, ...] = tuple(
            t for t in self.transitions if not t.immediate
        )
        self.immediate_transitions: tuple[CompiledTransition, ...] = tuple(
            t for t in self.transitions if t.immediate
        )
        self.transition_index: dict[str, int] = {
            t.name: i for i, t in enumerate(self.transitions)
        }
        # Immediate transitions grouped by priority, highest class first:
        # the enabled-immediate query walks the classes top-down instead of
        # recomputing max(priority) over the enabled set on every marking.
        by_priority: dict[int, list[CompiledTransition]] = {}
        for t in self.immediate_transitions:
            by_priority.setdefault(t.priority, []).append(t)
        self.immediate_priority_classes: tuple[tuple[CompiledTransition, ...], ...] = tuple(
            tuple(by_priority[priority]) for priority in sorted(by_priority, reverse=True)
        )
        self._kernel = None

    def _compile_transition(
        self, net: StochasticPetriNet, transition: Transition
    ) -> CompiledTransition:
        inputs: list[tuple[int, int]] = []
        outputs: list[tuple[int, int]] = []
        inhibitors: list[tuple[int, int]] = []
        for arc in net.arcs_of(transition.name):
            entry = (self.place_index[arc.place], arc.multiplicity)
            if arc.kind is ArcKind.INPUT:
                inputs.append(entry)
            elif arc.kind is ArcKind.OUTPUT:
                outputs.append(entry)
            else:
                inhibitors.append(entry)
        guard = None
        guard_source = None
        if transition.guard is not None:
            guard = compile_expression(transition.guard, self.place_index)
            guard_source = repr(transition.guard)
        return CompiledTransition(
            name=transition.name,
            immediate=transition.immediate,
            rate=0.0 if transition.immediate else transition.rate,
            infinite_server=(
                not transition.immediate
                and transition.semantics is ServerSemantics.INFINITE_SERVER
            ),
            weight=transition.weight,
            priority=transition.priority,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            inhibitors=tuple(inhibitors),
            guard=guard,
            guard_expression=transition.guard,
            guard_source=guard_source,
        )

    def kernel(self):
        """The (lazily built, cached) incidence-matrix kernel of this net."""
        if self._kernel is None:
            from repro.spn.kernel import IncidenceKernel

            self._kernel = IncidenceKernel(self)
        return self._kernel

    # --- marking-level queries ----------------------------------------------

    def enabled_immediate(self, marking: Sequence[int]) -> list[CompiledTransition]:
        """Enabled immediate transitions of the highest enabled priority."""
        for transitions in self.immediate_priority_classes:
            enabled = [t for t in transitions if t.is_enabled(marking)]
            if enabled:
                return enabled
        return []

    def enabled_timed(self, marking: Sequence[int]) -> list[CompiledTransition]:
        """Enabled timed transitions (regardless of immediate enabling)."""
        return [t for t in self.timed_transitions if t.is_enabled(marking)]

    def is_vanishing(self, marking: Sequence[int]) -> bool:
        """A marking is vanishing when at least one immediate transition is enabled."""
        return any(t.is_enabled(marking) for t in self.immediate_transitions)

    def transition_named(self, name: str) -> CompiledTransition:
        try:
            return self.transitions[self.transition_index[name]]
        except KeyError:
            raise ModelError(f"unknown transition {name!r} in net {self.name!r}") from None
