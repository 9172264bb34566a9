"""Incidence-matrix kernel: array-level enabling, degrees and firing.

The scalar :class:`~repro.spn.enabling.CompiledTransition` API answers "is
this one transition enabled in this one marking?" with a Python loop over arc
tuples.  Reachability generation asks that question ``|frontier| × |T|``
times per BFS wave and the event-driven simulator asks it ``|T|`` times per
event, so :class:`IncidenceKernel` lifts the whole net into dense incidence
arrays of shape ``(T, P)`` — input multiplicities, output multiplicities,
token deltas and inhibitor thresholds — and answers it for a whole
``(F, P)`` block of markings with a handful of broadcast compares.

Guards are compiled once per net into one *atom table*: a ``(P, A)``
integer weight matrix over the net's distinct linear atoms ``lo <= Σ c·#p <=
hi`` (:func:`repro.expressions.compiler.tabulate_guard`), plus a truth table
per guard over its own atoms.  A block's guards then cost one product
``block @ W``, one interval test, one ``bits @ 2**position`` product that
packs each guard's atom bits into a table index, and one table gather.  A
guard that does not reduce (``*``, ``/``, identifiers, non-integer literals,
more than :data:`~repro.expressions.compiler.MAX_TABLE_ATOMS` atoms) keeps
its compiled scalar closure, evaluated row by row on the rows where its
transition is structurally enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.expressions.compiler import CompiledExpression, LinearAtom, tabulate_guard

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
        atom_weights: ``(P, A)`` int64 coefficients of the net's distinct
            guard atoms; ``atom_lo`` / ``atom_hi`` are their ``(A,)`` float
            bounds (infinite where open).
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
        self.guarded = np.asarray([t.guard is not None for t in transitions], dtype=bool)
        # Every tabulated guard reads the shared atom table; the others keep
        # their closures.
        atom_ids: dict[LinearAtom, int] = {}
        self._guard_tables: dict[int, tuple[list[int], np.ndarray]] = {}
        self._scalar_guards: dict[int, CompiledExpression] = {}
        for row, transition in enumerate(transitions):
            if transition.guard is None:
                continue
            tabulated = tabulate_guard(transition.guard_expression, net.place_index)
            if tabulated is None:
                self._scalar_guards[row] = transition.guard
                continue
            self._guard_tables[row] = (
                [atom_ids.setdefault(atom, len(atom_ids)) for atom in tabulated.atoms],
                tabulated.table,
            )
        self.atom_weights = np.zeros((number_of_places, len(atom_ids)), dtype=np.int64)
        self.atom_lo = np.empty(len(atom_ids), dtype=np.float64)
        self.atom_hi = np.empty(len(atom_ids), dtype=np.float64)
        for column, atom in enumerate(atom_ids):
            for place, coefficient in atom.terms:
                self.atom_weights[place, column] = coefficient
            self.atom_lo[column] = atom.lo
            self.atom_hi[column] = atom.hi
        self._guard_programs: dict[bytes, Optional[_GuardProgram]] = {}
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

        ``markings`` is an ``(F, P)`` int64 array.  Small blocks use one 3-D
        broadcast compare; large blocks check each transition's few relevant
        places (input and inhibitor columns) instead of all ``P`` places.
        The guards of ``transition_ids`` then run as one compiled program
        per distinct id subset (see :class:`_GuardProgram`).
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
        key = transition_ids.tobytes()
        if key not in self._guard_programs:
            self._guard_programs[key] = (
                _GuardProgram(self, transition_ids)
                if self.guarded[transition_ids].any()
                else None
            )
        program = self._guard_programs[key]
        if program is not None:
            program.apply(markings, mask)
        return mask

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


class _GuardProgram:
    """The guards of one transition subset, evaluated together on a block.

    Tabulated guards read the subset's columns of the kernel's atom table
    on every row; closures run only on the rows their transition's arcs
    already enable, as :meth:`CompiledTransition.is_enabled
    <repro.spn.enabling.CompiledTransition.is_enabled>` does.
    """

    def __init__(self, kernel: IncidenceKernel, transition_ids: np.ndarray) -> None:
        columns: list[int] = []
        atom_lists: list[list[int]] = []
        tables: list[np.ndarray] = []
        #: ``(column, closure)`` of the guards that did not reduce.
        self.scalar: list[tuple[int, CompiledExpression]] = []
        for column, transition_id in enumerate(transition_ids.tolist()):
            if transition_id in kernel._guard_tables:
                atoms, table = kernel._guard_tables[transition_id]
                columns.append(column)
                atom_lists.append(atoms)
                tables.append(table)
            elif transition_id in kernel._scalar_guards:
                self.scalar.append((column, kernel._scalar_guards[transition_id]))
        self.columns = np.asarray(columns, dtype=np.int64)
        used = sorted({atom for atoms in atom_lists for atom in atoms})
        local = {atom: position for position, atom in enumerate(used)}
        self.weights = kernel.atom_weights[:, used].astype(np.float64)
        self.lo = kernel.atom_lo[used]
        self.hi = kernel.atom_hi[used]
        # positions[a, g] = 2**(bit of atom a in guard g); the products of a
        # block's atom bits with it are the guards' table indices, exact in
        # float64 (below 2**MAX_TABLE_ATOMS).
        self.positions = np.zeros((len(used), len(columns)), dtype=np.float64)
        for guard, atoms in enumerate(atom_lists):
            for bit, atom in enumerate(atoms):
                self.positions[local[atom], guard] = float(1 << bit)
        sizes = [table.size for table in tables]
        self.offsets = np.cumsum([0] + sizes[:-1]).astype(np.float64)
        self.table = np.concatenate(tables) if tables else np.zeros(0, dtype=bool)

    def apply(self, markings: np.ndarray, mask: np.ndarray) -> None:
        """Clear ``mask`` where a guard of its column is false."""
        if self.columns.size:
            values = markings @ self.weights
            bits = (values >= self.lo) & (values <= self.hi)
            codes = bits @ self.positions + self.offsets
            mask[:, self.columns] &= self.table[codes.astype(np.int64)]
        for column, guard in self.scalar:
            for row in np.nonzero(mask[:, column])[0]:
                if not guard(markings[row]):
                    mask[row, column] = False


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
