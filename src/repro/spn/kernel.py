"""Incidence-matrix kernel: array-level enabling, degrees and firing.

The scalar :class:`~repro.spn.enabling.CompiledTransition` API answers "is
this one transition enabled in this one marking?" with a Python loop over arc
tuples.  Reachability generation asks that question ``|frontier| × |T|``
times per BFS wave and the event-driven simulator asks it ``|T|`` times per
event, so :class:`IncidenceKernel` lifts the whole net into dense incidence
arrays of shape ``(T, P)`` — input multiplicities, output multiplicities,
token deltas and inhibitor thresholds — and answers it for a whole
``(F, P)`` block of markings with a handful of broadcast compares.

Transitions with guards keep their compiled scalar closures: the structural
part (arcs, inhibitors) is evaluated vectorized and only the guard itself
falls back to per-marking evaluation, restricted to the rows where the
transition is structurally enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (enabling → kernel)
    from repro.spn.enabling import CompiledNet

#: Inhibitor threshold meaning "no inhibitor arc": no bounded marking reaches it.
NO_INHIBITOR = np.iinfo(np.int64).max

#: Enabling degree assigned to transitions without input arcs.
_UNBOUNDED_DEGREE = np.iinfo(np.int64).max


class IncidenceKernel:
    """Dense incidence-array view of a compiled net.

    Attributes:
        input_requirement: ``(T, P)`` int64 — tokens a marking must hold for
            the transition to be enabled (the *maximum* input-arc
            multiplicity per pair, matching the scalar per-arc checks when a
            pair carries several arcs).
        input_total / output_total: ``(T, P)`` int64 — tokens consumed /
            produced by one firing (arc multiplicities *summed* per pair).
        delta: ``output_total - input_total`` — firing is one vector add.
        inhibitor_matrix: ``(T, P)`` int64 thresholds; a marking with
            ``tokens >= threshold`` in any place disables the transition
            (:data:`NO_INHIBITOR` where no inhibitor arc exists).
        guards: per-transition compiled guard closure or ``None``.
        timed_indices / immediate_indices: transition-id subsets, in net
            order (the order of ``net.timed_transitions`` /
            ``net.immediate_transitions``).
        timed_rates: nominal rates of the timed subset.
        timed_infinite_server: bool mask over the timed subset.
        immediate_weights / immediate_priorities: race data of the immediate
            subset.
    """

    def __init__(self, net: "CompiledNet") -> None:
        self.net = net
        transitions = net.transitions
        number_of_places = len(net.place_names)
        shape = (len(transitions), number_of_places)
        self.input_requirement = np.zeros(shape, dtype=np.int64)
        self.input_total = np.zeros(shape, dtype=np.int64)
        self.output_total = np.zeros(shape, dtype=np.int64)
        self.inhibitor_matrix = np.full(shape, NO_INHIBITOR, dtype=np.int64)
        for row, transition in enumerate(transitions):
            for place, multiplicity in transition.inputs:
                self.input_requirement[row, place] = max(
                    int(self.input_requirement[row, place]), multiplicity
                )
                self.input_total[row, place] += multiplicity
            for place, multiplicity in transition.outputs:
                self.output_total[row, place] += multiplicity
            for place, multiplicity in transition.inhibitors:
                self.inhibitor_matrix[row, place] = min(
                    int(self.inhibitor_matrix[row, place]), multiplicity
                )
        self.delta = self.output_total - self.input_total
        self.has_inputs = self.input_requirement.any(axis=1)
        self.has_inhibitors = (self.inhibitor_matrix != NO_INHIBITOR).any(axis=1)
        self.guards = tuple(t.guard for t in transitions)
        self.guard_vectors = tuple(t.guard_vector for t in transitions)
        self.guarded = np.asarray([t.guard is not None for t in transitions], dtype=bool)
        self.timed_indices = np.asarray(
            [i for i, t in enumerate(transitions) if not t.immediate], dtype=np.int64
        )
        self.immediate_indices = np.asarray(
            [i for i, t in enumerate(transitions) if t.immediate], dtype=np.int64
        )
        self.timed_rates = np.asarray(
            [transitions[i].rate for i in self.timed_indices], dtype=np.float64
        )
        self.timed_infinite_server = np.asarray(
            [transitions[i].infinite_server for i in self.timed_indices], dtype=bool
        )
        self.immediate_weights = np.asarray(
            [transitions[i].weight for i in self.immediate_indices], dtype=np.float64
        )
        self.immediate_priorities = np.asarray(
            [transitions[i].priority for i in self.immediate_indices], dtype=np.int64
        )
        self._infinite_positions = np.nonzero(self.timed_infinite_server)[0]
        self._infinite_ids = self.timed_indices[self._infinite_positions]
        # Per-transition sparse columns: the handful of places an enabling
        # check actually reads, for the large-block code path of `enabled`.
        self._input_places = []
        self._input_levels = []
        self._inhibitor_places = []
        self._inhibitor_levels = []
        for row in range(len(transitions)):
            places = np.nonzero(self.input_requirement[row])[0]
            self._input_places.append(places)
            self._input_levels.append(self.input_requirement[row, places])
            places = np.nonzero(self.inhibitor_matrix[row] != NO_INHIBITOR)[0]
            self._inhibitor_places.append(places)
            self._inhibitor_levels.append(self.inhibitor_matrix[row, places])
        # Divisor-safe copy of the requirement matrix for the degree floor-divide.
        self._degree_divisor = np.maximum(self.input_requirement, 1)
        # Firing can only push a place negative when some pair carries several
        # input arcs (enabled by the max multiplicity, consumes the sum).
        self.firing_can_go_negative = bool((self.input_total > self.input_requirement).any())

    # --- batch queries ------------------------------------------------------

    def enabled(self, markings: np.ndarray, transition_ids: np.ndarray) -> np.ndarray:
        """``(F, K)`` enabledness of ``transition_ids`` over a marking block.

        ``markings`` is an ``(F, P)`` int64 array; guards are evaluated
        vectorized over the rows where the transition is structurally
        enabled.  Small blocks use one 3-D broadcast compare; large blocks
        check each transition's few relevant places (input and inhibitor
        columns) instead of all ``P`` places.
        """
        rows = markings.shape[0]
        if rows * transition_ids.size * markings.shape[1] <= 65536:
            requirements = self.input_requirement[transition_ids]
            thresholds = self.inhibitor_matrix[transition_ids]
            block = markings[:, None, :]
            mask = (block >= requirements[None, :, :]).all(axis=2)
            mask &= (block < thresholds[None, :, :]).all(axis=2)
        else:
            mask = np.empty((rows, transition_ids.size), dtype=bool)
            for column, transition_id in enumerate(transition_ids):
                places = self._input_places[transition_id]
                if places.size:
                    verdict = (
                        markings[:, places] >= self._input_levels[transition_id]
                    ).all(axis=1)
                else:
                    verdict = np.ones(rows, dtype=bool)
                places = self._inhibitor_places[transition_id]
                if places.size:
                    verdict &= (
                        markings[:, places] < self._inhibitor_levels[transition_id]
                    ).all(axis=1)
                mask[:, column] = verdict
        self._apply_guards(markings, transition_ids, mask)
        return mask

    def _apply_guards(
        self, markings: np.ndarray, transition_ids: np.ndarray, mask: np.ndarray
    ) -> None:
        if not self.guarded[transition_ids].any():
            return
        for column, transition_id in enumerate(transition_ids):
            guard_vector = self.guard_vectors[transition_id]
            if guard_vector is None:
                continue
            rows = np.nonzero(mask[:, column])[0]
            if rows.size == 0:
                continue
            verdict = guard_vector(markings[rows])
            if isinstance(verdict, np.ndarray):
                mask[rows, column] = verdict.astype(bool, copy=False)
            elif not verdict:
                mask[rows, column] = False

    def enabling_degrees(
        self, markings: np.ndarray, transition_ids: np.ndarray
    ) -> np.ndarray:
        """``(F, K)`` enabling degrees (input arcs only; no inputs → 1).

        Degrees are reported independently of enabledness: rows where a
        transition is disabled carry whatever the floor-divide produced and
        must be masked by the caller.
        """
        requirements = self.input_requirement[transition_ids]
        divisors = self._degree_divisor[transition_ids]
        quotients = markings[:, None, :] // divisors[None, :, :]
        quotients = np.where(requirements[None, :, :] > 0, quotients, _UNBOUNDED_DEGREE)
        degrees = quotients.min(axis=2)
        return np.where(self.has_inputs[transition_ids][None, :], degrees, 1)

    def successors(
        self, markings: np.ndarray, rows: np.ndarray, transition_ids: np.ndarray
    ) -> np.ndarray:
        """Successor markings ``markings[rows] + delta[transition_ids]``."""
        return markings[rows] + self.delta[transition_ids]

    def vanishing_mask(self, markings: np.ndarray) -> np.ndarray:
        """``(F,)`` bool — which markings enable at least one immediate transition."""
        if self.immediate_indices.size == 0:
            return np.zeros(len(markings), dtype=bool)
        return self.enabled(markings, self.immediate_indices).any(axis=1)

    # --- single-marking queries (simulator hot path) ------------------------

    def timed_effective_rates(self, marking: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized pass over all timed transitions for one marking.

        Returns:
            ``(enabled, rates)`` — bool mask and effective rates (nominal
            rate × enabling degree for infinite-server transitions, zero
            where disabled), both aligned with ``net.timed_transitions``.
        """
        block = marking[None, :]
        enabled = self.enabled(block, self.timed_indices)[0]
        rates = np.where(enabled, self.timed_rates, 0.0)
        if self._infinite_ids.size:
            degrees = self.enabling_degrees(block, self._infinite_ids)[0]
            rates[self._infinite_positions] *= degrees
        return enabled, rates

    def enabled_immediate_indices(self, marking: np.ndarray) -> np.ndarray:
        """Enabled immediate transitions of the highest enabled priority.

        Returns positions into ``net.immediate_transitions`` (equivalently
        into ``immediate_weights``), not global transition ids.
        """
        if self.immediate_indices.size == 0:
            return self.immediate_indices
        enabled = self.enabled(marking[None, :], self.immediate_indices)[0]
        if not enabled.any():
            return np.zeros(0, dtype=np.int64)
        top = self.immediate_priorities[enabled].max()
        return np.nonzero(enabled & (self.immediate_priorities == top))[0]


# --- memory-footprint estimation --------------------------------------------

#: CPython overhead of interning one marking: the bytes key object, the dict
#: slot, and the marking tuple of small ints (measured ~120 B on 64-bit
#: builds, amortised over dict resizing).
_INTERNER_OVERHEAD_BYTES = 120

#: Bytes one marking component costs across the interner structures (int64
#: array row + tuple slot + bytes-key payload).
_PER_PLACE_BYTES = 32

#: Bytes one stored edge costs in the in-RAM representation: source + target
#: int64, rate float64, ECM entry (data + index), SCM share and indptr
#: amortisation.
_PER_EDGE_BYTES = 80


def estimate_state_bytes(net: "CompiledNet") -> tuple[int, int]:
    """Estimated peak bytes *per tangible state* for each representation.

    Returns ``(in_ram, chunked)``.  The in-RAM figure covers the marking
    interner plus the accumulated edge arrays and coefficient matrices,
    assuming roughly one stored edge per (state, timed transition) pair —
    the density this model family exhibits once vanishing markings are
    absorbed.  The chunked figure keeps the interner (states must still be
    deduplicated in RAM during generation) and a handful of dense
    state-length vectors, but no accumulated edge structures.  Neither
    figure covers solve-time structures: the in-RAM solve adds the filled
    balance system and its ILU factors, and the chunked solve adds the same
    system and factors.

    These are *planning* numbers for :func:`repro.engine.dispatch.plan_representation`
    — deliberately coarse, only good enough to separate fits-in-budget from
    doesn't by integer factors.
    """
    places = max(1, len(net.place_names))
    timed = max(1, len(net.timed_transitions))
    interner = _INTERNER_OVERHEAD_BYTES + _PER_PLACE_BYTES * places
    in_ram = interner + timed * _PER_EDGE_BYTES
    # Chunked: interner + ~8 dense float64 state vectors (solution, warm
    # start, Krylov work arrays).  The resident balance system and its
    # factors are not counted.
    chunked = interner + 8 * 8
    return in_ram, chunked
