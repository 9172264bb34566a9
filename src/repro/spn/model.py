"""Stochastic Petri net model definition.

The model class follows the flavour of generalized stochastic Petri nets
(GSPN) used by the paper and by the Mercury / TimeNET tools it references:

* places hold non-negative integer token counts;
* *timed* transitions fire after an exponentially distributed delay with
  either single-server (``ss``) or infinite-server (``is``) semantics
  (Tables I, III and V of the paper);
* *immediate* transitions fire in zero time, are resolved by priority and
  probabilistic weights, and always have precedence over timed transitions;
* transitions may carry a *guard* — a boolean expression over the marking
  (Tables II and IV) — and input, output and inhibitor arcs with integer
  multiplicities.

The class is purely declarative: analysis lives in
:mod:`repro.spn.reachability`, :mod:`repro.spn.analysis` and
:mod:`repro.spn.simulation`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.exceptions import ModelError
from repro.expressions import Expression, parse


class ServerSemantics(enum.Enum):
    """Concurrency semantics of a timed transition.

    ``SINGLE_SERVER`` (``ss``) fires at its nominal rate regardless of the
    enabling degree; ``INFINITE_SERVER`` (``is``) fires at the nominal rate
    multiplied by the enabling degree (used by the paper for VM failure and
    repair, Table III).
    """

    SINGLE_SERVER = "ss"
    INFINITE_SERVER = "is"


@dataclass(frozen=True)
class Place:
    """A place of the net.

    Attributes:
        name: unique identifier (also used inside guard expressions).
        initial_tokens: token count in the initial marking.
    """

    name: str
    initial_tokens: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("a place needs a non-empty name")
        if self.initial_tokens < 0:
            raise ModelError(
                f"place {self.name!r}: initial tokens must be non-negative, "
                f"got {self.initial_tokens!r}"
            )


class ArcKind(enum.Enum):
    """Kind of an arc."""

    INPUT = "input"
    OUTPUT = "output"
    INHIBITOR = "inhibitor"


@dataclass(frozen=True)
class Arc:
    """An arc connecting a place and a transition.

    For ``INPUT`` and ``INHIBITOR`` arcs the place is the source; for
    ``OUTPUT`` arcs the place is the target.  ``multiplicity`` is the number
    of tokens consumed / produced, or the inhibition threshold (the
    transition is disabled when the place holds *at least* ``multiplicity``
    tokens).
    """

    kind: ArcKind
    place: str
    transition: str
    multiplicity: int = 1

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise ModelError(
                f"arc {self.place!r} <-> {self.transition!r}: multiplicity must be "
                f"at least 1, got {self.multiplicity!r}"
            )


@dataclass(frozen=True)
class Transition:
    """A transition of the net.

    Exactly one of the two behaviours applies:

    * **timed** (``immediate=False``): ``delay`` is the mean of the
      exponential firing delay; ``semantics`` selects single- or
      infinite-server behaviour.
    * **immediate** (``immediate=True``): ``weight`` and ``priority`` resolve
      races between simultaneously enabled immediate transitions.

    ``guard`` is an optional boolean expression over the marking; a
    transition with a guard is enabled only when the guard evaluates to true.
    """

    name: str
    immediate: bool = False
    delay: Optional[float] = None
    semantics: ServerSemantics = ServerSemantics.SINGLE_SERVER
    weight: float = 1.0
    priority: int = 1
    guard: Optional[Expression] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("a transition needs a non-empty name")
        if self.immediate:
            if self.delay is not None:
                raise ModelError(
                    f"immediate transition {self.name!r} must not define a delay"
                )
            if self.weight <= 0.0:
                raise ModelError(
                    f"immediate transition {self.name!r}: weight must be positive, "
                    f"got {self.weight!r}"
                )
            if self.priority < 1:
                raise ModelError(
                    f"immediate transition {self.name!r}: priority must be >= 1, "
                    f"got {self.priority!r}"
                )
        else:
            if self.delay is None or self.delay <= 0.0:
                raise ModelError(
                    f"timed transition {self.name!r}: delay must be a positive mean "
                    f"time, got {self.delay!r}"
                )

    @property
    def rate(self) -> float:
        """Nominal firing rate ``1 / delay`` of a timed transition."""
        if self.immediate or self.delay is None:
            raise ModelError(f"transition {self.name!r} is immediate and has no rate")
        return 1.0 / self.delay


GuardLike = Union[str, Expression, None]


class StochasticPetriNet:
    """A generalized stochastic Petri net.

    The builder API is intentionally close to the vocabulary of the paper::

        net = StochasticPetriNet("SIMPLE_COMPONENT")
        net.add_place("X_ON", initial_tokens=1)
        net.add_place("X_OFF")
        net.add_timed_transition("X_Failure", delay=mttf)
        net.add_timed_transition("X_Repair", delay=mttr)
        net.add_input_arc("X_ON", "X_Failure")
        net.add_output_arc("X_Failure", "X_OFF")
        net.add_input_arc("X_OFF", "X_Repair")
        net.add_output_arc("X_Repair", "X_ON")
    """

    def __init__(self, name: str = "net"):
        if not name:
            raise ModelError("a net needs a non-empty name")
        self.name = name
        self._places: dict[str, Place] = {}
        self._transitions: dict[str, Transition] = {}
        self._arcs: list[Arc] = []

    # --- introspection -----------------------------------------------------

    @property
    def places(self) -> list[Place]:
        """Places in insertion order."""
        return list(self._places.values())

    @property
    def place_names(self) -> list[str]:
        return list(self._places.keys())

    @property
    def transitions(self) -> list[Transition]:
        """Transitions in insertion order."""
        return list(self._transitions.values())

    @property
    def transition_names(self) -> list[str]:
        return list(self._transitions.keys())

    @property
    def arcs(self) -> list[Arc]:
        return list(self._arcs)

    def place(self, name: str) -> Place:
        try:
            return self._places[name]
        except KeyError:
            raise ModelError(f"unknown place {name!r} in net {self.name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self._transitions[name]
        except KeyError:
            raise ModelError(f"unknown transition {name!r} in net {self.name!r}") from None

    def has_place(self, name: str) -> bool:
        return name in self._places

    def has_transition(self, name: str) -> bool:
        return name in self._transitions

    def initial_marking(self) -> dict[str, int]:
        """Initial marking as a ``{place: tokens}`` mapping."""
        return {place.name: place.initial_tokens for place in self._places.values()}

    def arcs_of(self, transition_name: str) -> list[Arc]:
        """All arcs attached to one transition."""
        self.transition(transition_name)
        return [arc for arc in self._arcs if arc.transition == transition_name]

    # --- construction ------------------------------------------------------

    def add_place(self, name: str, initial_tokens: int = 0) -> Place:
        """Add a place; re-adding the same name with the same marking is a no-op."""
        if name in self._places:
            existing = self._places[name]
            if existing.initial_tokens != initial_tokens:
                raise ModelError(
                    f"place {name!r} already exists with {existing.initial_tokens} "
                    f"initial tokens (requested {initial_tokens})"
                )
            return existing
        place = Place(name, initial_tokens)
        self._places[name] = place
        return place

    def set_initial_tokens(self, name: str, tokens: int) -> None:
        """Replace the initial marking of an existing place."""
        self.place(name)
        self._places[name] = Place(name, tokens)

    def add_timed_transition(
        self,
        name: str,
        delay: float,
        semantics: ServerSemantics | str = ServerSemantics.SINGLE_SERVER,
        guard: GuardLike = None,
    ) -> Transition:
        """Add an exponentially timed transition with mean delay ``delay``."""
        transition = Transition(
            name=name,
            immediate=False,
            delay=delay,
            semantics=self._coerce_semantics(semantics),
            guard=self._coerce_guard(guard),
        )
        return self._register_transition(transition)

    def add_immediate_transition(
        self,
        name: str,
        weight: float = 1.0,
        priority: int = 1,
        guard: GuardLike = None,
    ) -> Transition:
        """Add an immediate transition resolved by weight and priority."""
        transition = Transition(
            name=name,
            immediate=True,
            weight=weight,
            priority=priority,
            guard=self._coerce_guard(guard),
        )
        return self._register_transition(transition)

    def add_input_arc(self, place: str, transition: str, multiplicity: int = 1) -> Arc:
        """Arc from ``place`` to ``transition`` (tokens consumed on firing)."""
        return self._register_arc(Arc(ArcKind.INPUT, place, transition, multiplicity))

    def add_output_arc(self, transition: str, place: str, multiplicity: int = 1) -> Arc:
        """Arc from ``transition`` to ``place`` (tokens produced on firing)."""
        return self._register_arc(Arc(ArcKind.OUTPUT, place, transition, multiplicity))

    def add_inhibitor_arc(self, place: str, transition: str, multiplicity: int = 1) -> Arc:
        """Inhibitor arc: the transition is disabled when ``#place >= multiplicity``."""
        return self._register_arc(Arc(ArcKind.INHIBITOR, place, transition, multiplicity))

    # --- helpers -------------------------------------------------------------

    @staticmethod
    def _coerce_semantics(semantics: ServerSemantics | str) -> ServerSemantics:
        if isinstance(semantics, ServerSemantics):
            return semantics
        try:
            return ServerSemantics(semantics)
        except ValueError:
            raise ModelError(
                f"unknown server semantics {semantics!r}; use 'ss' or 'is'"
            ) from None

    @staticmethod
    def _coerce_guard(guard: GuardLike) -> Optional[Expression]:
        if guard is None:
            return None
        if isinstance(guard, Expression):
            return guard
        return parse(guard)

    def _register_transition(self, transition: Transition) -> Transition:
        if transition.name in self._transitions:
            raise ModelError(
                f"transition {transition.name!r} already exists in net {self.name!r}"
            )
        if transition.name in self._places:
            raise ModelError(
                f"name {transition.name!r} is already used by a place in net {self.name!r}"
            )
        self._transitions[transition.name] = transition
        return transition

    def _register_arc(self, arc: Arc) -> Arc:
        if arc.place not in self._places:
            raise ModelError(
                f"arc references unknown place {arc.place!r} in net {self.name!r}"
            )
        if arc.transition not in self._transitions:
            raise ModelError(
                f"arc references unknown transition {arc.transition!r} in net {self.name!r}"
            )
        self._arcs.append(arc)
        return arc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StochasticPetriNet({self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)}, arcs={len(self._arcs)})"
        )
