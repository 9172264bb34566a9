"""Tangible reachability graph generation with vanishing-marking elimination.

The analysis pipeline of the paper's tools (Mercury, TimeNET) reduces a GSPN
to a continuous-time Markov chain over its *tangible* markings: markings in
which no immediate transition is enabled.  Markings that enable immediate
transitions (*vanishing* markings) are passed through in zero time and are
eliminated on the fly here — every timed firing that lands on a vanishing
marking is redistributed over the tangible markings reachable through
immediate firings, weighted by the branching probabilities of the immediate
race (priority first, then relative weights).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.exceptions import ModelError, StateSpaceError, StateSpaceLimitError
from repro.spn.enabling import CompiledNet
from repro.spn.marking import MarkingView
from repro.spn.model import StochasticPetriNet
from repro.symmetry.canonicalize import build_canonicalizer
from repro.symmetry.spec import SymmetrySpec
from repro.symmetry.validate import validate_spec_for_net

#: Safety limit: exploring more tangible markings than this aborts generation.
DEFAULT_MAX_TANGIBLE_MARKINGS = 500_000

#: Safety limit on the depth of chained immediate firings from a single marking.
DEFAULT_MAX_VANISHING_DEPTH = 10_000

#: Number of frontier markings expanded per vectorized BFS wave.
DEFAULT_EXPLORATION_CHUNK = 4096


class TangibleReachabilityGraph:
    """The tangible state space of a net, stored sparse-natively.

    The edge list and the per-transition coefficient matrices are held as
    flat numpy / scipy.sparse arrays so that re-rating the graph for a new
    parameter point (:mod:`repro.spn.parametric`) and assembling the CTMC
    generator (:mod:`repro.spn.ctmc_export`) are a handful of vectorized
    array operations instead of Python dict walks.

    Sparse-native attributes:
        edge_sources / edge_targets: ``int64`` arrays of length ``E`` — the
            unique (source_id, target_id) pairs of the aggregated tangible
            edges, self-loops excluded.
        edge_rates: ``float64`` array of length ``E`` — current edge rates,
            aligned with ``edge_sources`` / ``edge_targets``.
        transition_names: names of the timed transitions carrying coefficient
            data (all timed transitions of the net for generated graphs).
        rate_vector: ``float64`` array of length ``T`` — current base rate of
            each timed transition, aligned with ``transition_names``.
        edge_coefficient_matrix: CSR matrix of shape ``(T, E)``; entry
            ``(t, e)`` is the rate-independent coefficient (enabling degree ×
            switching probability through vanishing markings) of transition
            ``t`` on edge ``e``, so that
            ``edge_rates = edge_coefficient_matrix.T @ rate_vector``.
        state_coefficient_matrix: CSR matrix of shape ``(T, N)``; entry
            ``(t, s)`` is the enabling degree of transition ``t`` in state
            ``s`` (the rate-independent part of the throughput).
    """

    def __init__(
        self,
        net: CompiledNet,
        markings: list[tuple[int, ...]],
        initial_distribution: dict[int, float],
        *,
        edge_sources: np.ndarray,
        edge_targets: np.ndarray,
        edge_rates: np.ndarray,
        transition_names: tuple[str, ...],
        rate_vector: np.ndarray,
        edge_coefficient_matrix: sparse.csr_matrix,
        state_coefficient_matrix: sparse.csr_matrix,
    ) -> None:
        self.net = net
        self.markings = markings
        self.initial_distribution = initial_distribution
        self.edge_sources = np.asarray(edge_sources, dtype=np.int64)
        self.edge_targets = np.asarray(edge_targets, dtype=np.int64)
        self.edge_rates = np.asarray(edge_rates, dtype=np.float64)
        self.transition_names = tuple(transition_names)
        self.rate_vector = np.asarray(rate_vector, dtype=np.float64)
        self.edge_coefficient_matrix = edge_coefficient_matrix
        self.state_coefficient_matrix = state_coefficient_matrix
        self.transition_index = {
            name: i for i, name in enumerate(self.transition_names)
        }

    # --- shape ------------------------------------------------------------

    @property
    def number_of_states(self) -> int:
        return len(self.markings)

    @property
    def number_of_transitions(self) -> int:
        return int(self.edge_rates.size)

    def marking_view(self, state_id: int) -> MarkingView:
        """Dict-like view of one tangible marking."""
        return MarkingView(self.markings[state_id], self.net.place_index)

    # --- vectorized operations --------------------------------------------

    def with_rate_vector(self, rate_vector: np.ndarray) -> "TangibleReachabilityGraph":
        """A re-rated copy sharing this graph's structure.

        The new edge rates are a single sparse mat-vec
        ``Q-entries(θ) = Σ_t rate_t(θ) · C_t`` over the stacked coefficient
        matrix; markings, edge index arrays and coefficient matrices are
        shared (they are rate-independent).
        """
        rate_vector = np.asarray(rate_vector, dtype=np.float64)
        edge_rates = self.edge_coefficient_matrix.T.dot(rate_vector)
        return TangibleReachabilityGraph(
            net=self.net,
            markings=self.markings,
            initial_distribution=self.initial_distribution,
            edge_sources=self.edge_sources,
            edge_targets=self.edge_targets,
            edge_rates=np.asarray(edge_rates, dtype=np.float64).ravel(),
            transition_names=self.transition_names,
            rate_vector=rate_vector,
            edge_coefficient_matrix=self.edge_coefficient_matrix,
            state_coefficient_matrix=self.state_coefficient_matrix,
        )

    def exit_rates(self) -> np.ndarray:
        """Total outgoing rate of every tangible state (dense, length ``N``)."""
        return np.bincount(
            self.edge_sources, weights=self.edge_rates, minlength=self.number_of_states
        )

    def throughput_vector(self, transition_name: str) -> np.ndarray:
        """Dense per-state effective firing rate of one timed transition.

        Raises:
            KeyError: if the transition is unknown (callers translate this
                into their layer's error type).
        """
        index = self.transition_index.get(transition_name)
        if index is None:
            raise KeyError(transition_name)
        row = self.state_coefficient_matrix.getrow(index)
        vector = np.zeros(self.number_of_states)
        vector[row.indices] = row.data * self.rate_vector[index]
        return vector


def _coefficients_to_csr(
    names: Sequence[str],
    coefficients: Mapping[str, Mapping],
    edge_index: Optional[dict[tuple[int, int], int]],
    width: int,
) -> sparse.csr_matrix:
    """Stack per-transition coefficient dicts into one ``(T, width)`` CSR matrix.

    ``edge_index`` maps edge keys to column ids; when ``None`` the dict keys
    are state ids used as columns directly.
    """
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for row, name in enumerate(names):
        for key, value in (coefficients.get(name) or {}).items():
            rows.append(row)
            cols.append(edge_index[key] if edge_index is not None else key)
            data.append(value)
    return sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(names), width), dtype=np.float64
    )


def _immediate_branching(
    net: CompiledNet, marking: tuple[int, ...]
) -> list[tuple[float, tuple[int, ...]]]:
    """One step of the immediate race: ``[(probability, next_marking), ...]``."""
    enabled = net.enabled_immediate(marking)
    total_weight = sum(t.weight for t in enabled)
    return [(t.weight / total_weight, t.fire(marking)) for t in enabled]


def resolve_vanishing(
    net: CompiledNet,
    marking: tuple[int, ...],
    max_depth: int = DEFAULT_MAX_VANISHING_DEPTH,
    memo: dict[tuple[int, ...], dict[tuple[int, ...], float]] | None = None,
) -> dict[tuple[int, ...], float]:
    """Distribute a (possibly vanishing) marking over tangible markings.

    Performs a memoized depth-first traversal of the vanishing sub-graph
    rooted at ``marking``, accumulating branching probabilities.  Memoization
    matters: when an infrastructure component fails, the flush-style immediate
    transitions of the cloud models can fire in factorially many orders, all
    converging on the same tangible markings — each intermediate vanishing
    marking is resolved once.  Cycles among vanishing markings (immediate
    loops / "time traps") are detected and reported.

    Args:
        net: compiled net.
        marking: the marking to resolve.
        max_depth: maximum length of a chain of immediate firings.
        memo: optional cache shared across calls (the reachability generator
            passes one cache for the whole exploration).

    Returns:
        ``{tangible_marking: probability}`` summing to one.

    Raises:
        StateSpaceError: on immediate-transition cycles or excessive depth.
    """
    if not net.is_vanishing(marking):
        return {marking: 1.0}
    if memo is None:
        memo = {}
    on_path: set[tuple[int, ...]] = set()

    def resolve(current: tuple[int, ...], depth: int) -> dict[tuple[int, ...], float]:
        cached = memo.get(current)
        if cached is not None:
            return cached
        if depth > max_depth:
            raise StateSpaceError(
                f"net {net.name!r}: vanishing-marking resolution exceeded "
                f"{max_depth} chained immediate firings"
            )
        if current in on_path:
            raise StateSpaceError(
                f"net {net.name!r}: cycle of immediate transitions detected "
                f"(time trap) around marking {current}"
            )
        on_path.add(current)
        distribution: dict[tuple[int, ...], float] = {}
        for branch_probability, successor in _immediate_branching(net, current):
            if branch_probability <= 0.0:
                continue
            if net.is_vanishing(successor):
                for tangible, probability in resolve(successor, depth + 1).items():
                    mass = branch_probability * probability
                    distribution[tangible] = distribution.get(tangible, 0.0) + mass
            else:
                distribution[successor] = (
                    distribution.get(successor, 0.0) + branch_probability
                )
        on_path.discard(current)
        memo[current] = distribution
        return distribution

    result = resolve(marking, 0)
    total = sum(result.values())
    if abs(total - 1.0) > 1e-9:
        raise StateSpaceError(
            f"net {net.name!r}: vanishing resolution lost probability mass "
            f"(total={total!r})"
        )
    return result


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """Concatenate array chunks (empty list → empty array of ``dtype``)."""
    if not chunks:
        return np.zeros(0, dtype=dtype)
    return np.concatenate(chunks).astype(dtype, copy=False)


def _compact_records(block: np.ndarray) -> np.ndarray:
    """Contiguous copy of a marking block, int16 when every value fits.

    int16 records are 4× smaller than int64, which speeds up both the
    C-level row dedupe and the hashing of the derived bytes keys.
    """
    if block.size and -32768 <= block.min() and block.max() <= 32767:
        return np.ascontiguousarray(block, dtype=np.int16)
    return np.ascontiguousarray(block, dtype=np.int64)


def _record_view(block: np.ndarray) -> np.ndarray:
    """1-D void view of a contiguous 2-D block: one fixed-size record per row."""
    return block.view(np.dtype((np.void, block.dtype.itemsize * block.shape[1]))).ravel()


def _marking_row_key(row: np.ndarray) -> bytes:
    """Compact, encoding-stable bytes key of one marking vector.

    Uses the :func:`_compact_records` encoding rule on a single row: the
    decision is per marking, so a given marking always maps to the same key
    regardless of which block it arrives in, and the two encodings cannot
    collide (different lengths).
    """
    return _compact_records(np.atleast_2d(row)).tobytes()


def _marking_block_keys(block: np.ndarray) -> list[bytes]:
    """Per-row :func:`_marking_row_key` of a ``(N, P)`` block, batched."""
    if block.size == 0:
        return []
    compact = _compact_records(block)
    if compact.dtype != np.int16:
        # Mixed blocks fall back to per-row encoding so a small marking is
        # keyed identically no matter which block it arrives in.
        return [_marking_row_key(row) for row in block]
    record = compact.dtype.itemsize * compact.shape[1]
    buffer = compact.tobytes()
    return [buffer[k * record : (k + 1) * record] for k in range(len(compact))]


class _MarkingInterner:
    """Bytes-keyed state interner with optional (batched) canonicalization.

    States are keyed by the raw bytes of their canonical int64 marking
    vector; the tuple form is materialised once per *new* state only.  With
    a :class:`~repro.symmetry.spec.SymmetrySpec` (see
    :meth:`repro.core.cloud_model.CloudSystemModel.symmetry_spec`), the
    spec's canonicalizer maps every marking to its orbit representative,
    whole blocks of markings at a time through its vectorized ``batch``
    companion.
    """

    def __init__(
        self, net_name: str, max_states: int, symmetry: Optional[SymmetrySpec]
    ) -> None:
        self.net_name = net_name
        self.max_states = max_states
        self.canonicalize = (
            build_canonicalizer(symmetry) if symmetry is not None else None
        )
        self.markings: list[tuple[int, ...]] = []
        #: Canonical marking bytes → state id (tangible states only).
        self.ids: dict[bytes, int] = {}

    def insert(self, key: bytes, row: np.ndarray) -> int:
        """Intern an already-canonical marking keyed by its array bytes."""
        state_id = self.ids.get(key)
        if state_id is not None:
            return state_id
        state_id = len(self.markings)
        if state_id >= self.max_states:
            raise StateSpaceLimitError(
                f"net {self.net_name!r}: tangible state space exceeds the limit "
                f"of {self.max_states} markings",
                max_states=self.max_states,
                states_explored=len(self.markings),
            )
        self.ids[key] = state_id
        self.markings.append(tuple(row.tolist()))
        return state_id

    def intern_tuple(self, marking: tuple[int, ...]) -> int:
        if self.canonicalize is not None:
            marking = self.canonicalize(marking)
        row = np.asarray(marking, dtype=np.int64)
        return self.insert(_marking_row_key(row), row)

    def canonical_block(self, block: np.ndarray) -> np.ndarray:
        """Canonical representatives of a ``(N, P)`` block of raw markings."""
        if self.canonicalize is not None:
            block = self.canonicalize.batch(block)
        return np.ascontiguousarray(block, dtype=np.int64)


class _BatchSuccessorResolver:
    """Maps raw successor markings to interned tangible distributions.

    One instance lives for the duration of an exploration.  ``cache`` maps
    the raw bytes of a successor marking to its fully resolved distribution
    ``((state_id, probability), ...)`` — the vanishing-chain traversal, the
    optional orbit canonicalization and the interning are all collapsed into
    that single lookup, so each distinct successor pays the resolution cost
    exactly once.

    Novel vanishing successors of a wave are resolved together: the
    vanishing sub-graph below them is discovered level by level (one
    vectorized immediate-race expansion per level of chained immediate
    firings) and the branching probabilities are then absorbed through the
    sub-graph with sparse matrix products (see
    :meth:`_resolve_vanishing_batch`).  Cycles of immediate transitions
    (time traps) are found on the sub-graph's structure and reported.

    With a symmetry spec, the entire resolution runs in *canonical* marking
    space — vanishing chain markings included.  The spec's contract (the
    net is invariant under the declared place permutations) makes this
    exact: permuted vanishing markings have permuted races with
    identical probabilities, hence identical canonical tangible
    distributions.  Working on orbit representatives shrinks the vanishing
    sub-graph by up to the orbit size.
    """

    def __init__(
        self,
        kernel,
        interner: _MarkingInterner,
        max_depth: int = DEFAULT_MAX_VANISHING_DEPTH,
    ):
        self.kernel = kernel
        self.net = kernel.net
        self.interner = interner
        self.max_depth = max_depth
        #: Raw successor bytes → resolved ((state_id, probability), ...).
        self.cache: dict[bytes, tuple[tuple[int, float], ...]] = {}
        #: Canonical bytes of a *vanishing* marking → resolved distribution.
        self._vanishing_distributions: dict[bytes, tuple[tuple[int, float], ...]] = {}

    def resolve_wave(self, successors: np.ndarray, keys: list[bytes]) -> None:
        """Ensure ``cache`` covers every successor of the wave."""
        novel_rows: list[int] = []
        seen: set[bytes] = set()
        for row, key in enumerate(keys):
            if key in self.cache or key in seen:
                continue
            seen.add(key)
            novel_rows.append(row)
        if not novel_rows:
            return
        canonical = self.interner.canonical_block(successors[novel_rows])
        canonical_keys = _marking_block_keys(canonical)
        state_ids = self.interner.ids
        unknown_rows: list[int] = []
        unknown_keys: list[bytes] = []
        seen.clear()
        for index, canonical_key in enumerate(canonical_keys):
            if (
                canonical_key in state_ids
                or canonical_key in self._vanishing_distributions
                or canonical_key in seen
            ):
                continue
            seen.add(canonical_key)
            unknown_rows.append(index)
            unknown_keys.append(canonical_key)
        if unknown_rows:
            vanishing = self.kernel.vanishing_mask(canonical[unknown_rows])
            pending_rows: list[int] = []
            pending_keys: list[bytes] = []
            for position, index in enumerate(unknown_rows):
                if vanishing[position]:
                    pending_rows.append(index)
                    pending_keys.append(unknown_keys[position])
                else:
                    self.interner.insert(unknown_keys[position], canonical[index])
            if pending_rows:
                self._resolve_vanishing_batch(canonical[pending_rows], pending_keys)
        for index, row in enumerate(novel_rows):
            canonical_key = canonical_keys[index]
            state_id = state_ids.get(canonical_key)
            if state_id is not None:
                self.cache[keys[row]] = ((state_id, 1.0),)
            else:
                self.cache[keys[row]] = self._vanishing_distributions[canonical_key]

    def _resolve_vanishing_batch(self, markings: np.ndarray, keys: list[bytes]) -> None:
        """Resolve a batch of distinct, unresolved, *canonical* vanishing markings.

        Two phases.  *Discovery* walks the vanishing sub-graph level by
        level, assigning every unresolved vanishing marking an integer node
        id and collecting the one-step race as COO triplets of two sparse
        matrices — ``P_vv`` (vanishing → vanishing) and ``P_vt`` (vanishing
        → tangible, tangible children interned on the spot).  *Absorption*
        then computes every node's tangible distribution at once as
        ``D = (Σ_k P_vv^k) · P_vt`` with sparse mat-mats.  A cycle of
        immediate transitions (a strongly connected component or self-loop
        of ``P_vv``) is reported as a time trap first, as the scalar
        explorer reports it, also when the cycle has an exit: the series
        would only decay its mass, below double precision after enough
        terms.  Without one, ``P_vv`` on ``n`` nodes is nilpotent of index
        at most ``n``, so the series ends within ``n`` terms.
        """
        kernel = self.kernel
        interner = self.interner
        state_ids = interner.ids
        immediate_ids = kernel.immediate_indices
        priorities = kernel.immediate_priorities
        weights = kernel.immediate_weights

        node_ids: dict[bytes, int] = {}
        node_keys: list[bytes] = []

        def new_node(key: bytes) -> int:
            node_id = len(node_keys)
            node_ids[key] = node_id
            node_keys.append(key)
            return node_id

        for key in keys:
            new_node(key)

        vv_rows: list[np.ndarray] = []
        vv_columns: list[np.ndarray] = []
        vv_probabilities: list[np.ndarray] = []
        vt_rows: list[np.ndarray] = []
        vt_columns: list[np.ndarray] = []
        vt_probabilities: list[np.ndarray] = []

        level_markings = markings
        level_nodes = np.arange(len(keys), dtype=np.int64)
        depth = 0
        while level_nodes.size:
            depth += 1
            if depth > self.max_depth:
                raise StateSpaceError(
                    f"net {self.net.name!r}: vanishing-marking resolution exceeded "
                    f"{self.max_depth} chained immediate firings"
                )
            enabled = kernel.enabled(level_markings, immediate_ids)
            masked_priorities = np.where(enabled, priorities[None, :], np.iinfo(np.int64).min)
            top = masked_priorities.max(axis=1)
            race = enabled & (priorities[None, :] == top[:, None])
            race_weights = np.where(race, weights[None, :], 0.0)
            totals = race_weights.sum(axis=1)
            rows, columns = np.nonzero(race)
            children = interner.canonical_block(
                level_markings[rows] + kernel.delta[immediate_ids[columns]]
            )
            probabilities = race_weights[rows, columns] / totals[rows]
            # Dedupe the level's children in C; classification runs per
            # *distinct* child and is scattered back over the race pairs
            # with one fancy-index per array.
            _, first_rows, inverse = np.unique(
                _record_view(_compact_records(children)),
                return_index=True,
                return_inverse=True,
            )
            unique_keys = _marking_block_keys(children[first_rows])

            # Per distinct child: tangible (kind 0, code = state id), node of
            # this batch (kind 1, code = node id), or previously resolved
            # vanishing marking (kind 2, code = index into known_dists).
            n_unique = len(unique_keys)
            kinds = np.empty(n_unique, dtype=np.int8)
            codes = np.empty(n_unique, dtype=np.int64)
            known_dists: list[tuple[tuple[int, float], ...]] = []
            unknown_positions: list[int] = []
            for position, child_key in enumerate(unique_keys):
                state_id = state_ids.get(child_key)
                if state_id is not None:
                    kinds[position] = 0
                    codes[position] = state_id
                    continue
                node_id = node_ids.get(child_key)
                if node_id is not None:
                    kinds[position] = 1
                    codes[position] = node_id
                    continue
                known = self._vanishing_distributions.get(child_key)
                if known is not None:
                    kinds[position] = 2
                    codes[position] = len(known_dists)
                    known_dists.append(known)
                    continue
                unknown_positions.append(position)
            next_rows: list[int] = []
            if unknown_positions:
                unknown_rows = first_rows[unknown_positions]
                child_vanishing = kernel.vanishing_mask(children[unknown_rows])
                for offset, position in enumerate(unknown_positions):
                    child_key = unique_keys[position]
                    row = int(unknown_rows[offset])
                    if child_vanishing[offset]:
                        kinds[position] = 1
                        codes[position] = new_node(child_key)
                        next_rows.append(row)
                    else:
                        kinds[position] = 0
                        codes[position] = interner.insert(child_key, children[row])

            parent_nodes = level_nodes[rows]
            pair_kinds = kinds[inverse]
            pair_codes = codes[inverse]
            tangible_mask = pair_kinds == 0
            vt_rows.append(parent_nodes[tangible_mask])
            vt_columns.append(pair_codes[tangible_mask])
            vt_probabilities.append(probabilities[tangible_mask])
            node_mask = pair_kinds == 1
            vv_rows.append(parent_nodes[node_mask])
            vv_columns.append(pair_codes[node_mask])
            vv_probabilities.append(probabilities[node_mask])
            known_mask = pair_kinds == 2
            if known_mask.any():
                # A child resolved by an earlier batch contributes its known
                # distribution directly, expanded with a ragged repeat.
                known_codes = pair_codes[known_mask]
                counts = np.fromiter(
                    (len(known_dists[code]) for code in known_codes),
                    dtype=np.int64,
                    count=known_codes.size,
                )
                vt_rows.append(np.repeat(parent_nodes[known_mask], counts))
                vt_columns.append(
                    np.fromiter(
                        (
                            state
                            for code in known_codes
                            for state, _ in known_dists[code]
                        ),
                        dtype=np.int64,
                    )
                )
                vt_probabilities.append(
                    np.repeat(probabilities[known_mask], counts)
                    * np.fromiter(
                        (
                            mass
                            for code in known_codes
                            for _, mass in known_dists[code]
                        ),
                        dtype=np.float64,
                    )
                )
            level_markings = children[next_rows]
            level_nodes = np.arange(
                len(node_keys) - len(next_rows), len(node_keys), dtype=np.int64
            )

        number_of_nodes = len(node_keys)
        width = len(interner.markings)
        to_tangible = sparse.coo_matrix(
            (
                _concat(vt_probabilities, np.float64),
                (_concat(vt_rows, np.int64), _concat(vt_columns, np.int64)),
            ),
            shape=(number_of_nodes, width),
        ).tocsr()
        to_vanishing = sparse.coo_matrix(
            (
                _concat(vv_probabilities, np.float64),
                (_concat(vv_rows, np.int64), _concat(vv_columns, np.int64)),
            ),
            shape=(number_of_nodes, number_of_nodes),
        ).tocsr()

        components, _ = csgraph.connected_components(
            to_vanishing, directed=True, connection="strong"
        )
        if components < number_of_nodes or to_vanishing.diagonal().any():
            raise StateSpaceError(
                f"net {self.net.name!r}: cycle of immediate transitions detected "
                "(time trap)"
            )
        distributions = to_tangible.copy()
        remaining = to_vanishing
        while remaining.nnz:
            distributions = distributions + remaining @ to_tangible
            remaining = remaining @ to_vanishing
        row_totals = np.asarray(distributions.sum(axis=1)).ravel()
        worst = np.abs(row_totals - 1.0).max() if row_totals.size else 0.0
        if worst > 1e-9:
            raise StateSpaceError(
                f"net {self.net.name!r}: vanishing resolution lost probability "
                f"mass (worst row total deviates by {worst!r})"
            )

        memo = self._vanishing_distributions
        indptr = distributions.indptr
        indices = distributions.indices.tolist()
        data = distributions.data.tolist()
        for node_id, key in enumerate(node_keys):
            start, end = indptr[node_id], indptr[node_id + 1]
            memo[key] = tuple(zip(indices[start:end], data[start:end]))


class WaveBlock(NamedTuple):
    """One finalized BFS wave of the exploration (see :class:`WaveExploration`).

    Blocks partition the state space by source rows: the rows
    ``[row_start, row_end)`` of block ``k`` pick up exactly where block
    ``k-1`` stopped, and — because every state is expanded in exactly one
    wave — all edges with a source in that range live in that block.  Edges
    are deduplicated and sorted by ``(source, target)`` *within* the block,
    which (with disjoint, increasing source ranges) makes the concatenation
    of the per-block edge lists identical to a globally sorted edge list.
    """

    row_start: int
    row_end: int
    #: ``(W, P)`` int64 marking rows of the wave's source states.
    markings: np.ndarray
    #: Aggregated tangible edges of the wave, absolute state ids.
    edge_sources: np.ndarray
    edge_targets: np.ndarray
    edge_rates: np.ndarray
    #: ``(T, E_w)`` CSR slice of the edge coefficient matrix.
    edge_coefficient_block: sparse.csr_matrix
    #: ``(T, W)`` CSR slice of the state coefficient matrix; columns are
    #: wave-relative (``absolute_state - row_start``).
    state_coefficient_block: sparse.csr_matrix


class WaveExploration:
    """Shared chunked-wave BFS core behind every state-space representation.

    Owns the setup that both graph frontends need — compiled net, incidence
    kernel, marking interner, vanishing-chain resolver, resolved initial
    distribution — and exposes the exploration as a stream of finalized
    :class:`WaveBlock` objects.  The in-RAM frontend
    (:func:`generate_tangible_reachability_graph`) concatenates the blocks
    into one :class:`TangibleReachabilityGraph`; the disk-backed frontend
    (:mod:`repro.statespace.chunked`) writes each block to its own chunk
    file and never holds more than one wave in memory.

    Per-wave finalization is exact, not approximate: deduplication keys,
    coefficient placement and rate accumulation order are arranged so that
    concatenating the per-wave results is *bitwise* identical to the
    single-pass global construction (duplicate edge contributions are always
    wave-internal, and block-local sort order extends the global
    ``(source, target)`` order).
    """

    def __init__(
        self,
        net: StochasticPetriNet | CompiledNet,
        max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
        symmetry: Optional[SymmetrySpec] = None,
        chunk_size: int = DEFAULT_EXPLORATION_CHUNK,
    ) -> None:
        self.compiled = net if isinstance(net, CompiledNet) else CompiledNet(net)
        validate_spec_for_net(
            symmetry, len(self.compiled.place_names), self.compiled.name
        )
        self.max_states = max_states
        self.chunk_size = max(1, chunk_size)
        self.kernel = self.compiled.kernel()
        self.timed_ids = self.kernel.timed_indices
        self.n_timed = int(self.timed_ids.size)
        self.nominal_rates = self.kernel.timed_rates
        self.transition_names = tuple(
            t.name for t in self.compiled.timed_transitions
        )
        self.interner = _MarkingInterner(self.compiled.name, max_states, symmetry)
        self.resolver = _BatchSuccessorResolver(self.kernel, self.interner)
        self.initial_distribution: dict[int, float] = {}
        for tangible_marking, probability in resolve_vanishing(
            self.compiled, self.compiled.initial_marking
        ).items():
            target_id = self.interner.intern_tuple(tangible_marking)
            self.initial_distribution[target_id] = (
                self.initial_distribution.get(target_id, 0.0) + probability
            )

    @property
    def markings(self) -> list[tuple[int, ...]]:
        return self.interner.markings

    def blocks(self) -> Iterator[WaveBlock]:
        """Stream the exploration as finalized per-wave blocks.

        Every wave yields exactly one block (edge arrays may be empty), so
        the blocks' ``[row_start, row_end)`` ranges partition the final
        state space.  A ``max_states`` overflow is re-raised enriched with
        how far the exploration got and a wave-growth projection of the
        total state-space size.
        """
        kernel = self.kernel
        interner = self.interner
        resolver = self.resolver
        markings = interner.markings
        timed_ids = self.timed_ids
        n_timed = self.n_timed
        nominal_rates = self.nominal_rates
        infinite_server = kernel.timed_infinite_server
        infinite_ids = timed_ids[infinite_server]
        empty_edges = (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
        )

        wave_totals: list[int] = []
        head = 0
        try:
            while head < len(markings):
                wave_end = min(head + self.chunk_size, len(markings))
                wave_ids = np.arange(head, wave_end, dtype=np.int64)
                wave = np.asarray(markings[head:wave_end], dtype=np.int64)
                row_start, head = head, wave_end
                if n_timed == 0:
                    wave_totals.append(len(markings))
                    yield WaveBlock(
                        row_start,
                        wave_end,
                        wave,
                        *empty_edges,
                        sparse.csr_matrix((n_timed, 0), dtype=np.float64),
                        sparse.csr_matrix(
                            (n_timed, wave_end - row_start), dtype=np.float64
                        ),
                    )
                    continue

                enabled = kernel.enabled(wave, timed_ids)
                pair_rate_matrix = enabled * nominal_rates[None, :]
                degree_matrix = None
                if infinite_ids.size:
                    # Degrees only matter for infinite-server transitions;
                    # computing them for those columns alone keeps the 3-D
                    # floor-divide small.
                    degree_matrix = np.ones((len(wave), n_timed), dtype=np.float64)
                    degree_matrix[:, infinite_server] = kernel.enabling_degrees(
                        wave, infinite_ids
                    )
                    pair_rate_matrix = pair_rate_matrix * degree_matrix
                firing_mask = enabled & (pair_rate_matrix > 0.0)
                rows, columns = np.nonzero(firing_mask)  # state-major order
                if rows.size == 0:
                    wave_totals.append(len(markings))
                    yield WaveBlock(
                        row_start,
                        wave_end,
                        wave,
                        *empty_edges,
                        sparse.csr_matrix((n_timed, 0), dtype=np.float64),
                        sparse.csr_matrix(
                            (n_timed, wave_end - row_start), dtype=np.float64
                        ),
                    )
                    continue

                successors = wave[rows] + kernel.delta[timed_ids[columns]]
                if kernel.firing_can_go_negative and (successors < 0).any():
                    raise ModelError(
                        f"net {self.compiled.name!r}: firing a transition with "
                        "duplicate input arcs would make a place marking negative"
                    )
                pair_rates = pair_rate_matrix[rows, columns]
                if degree_matrix is None:
                    pair_degrees = np.ones(rows.size, dtype=np.float64)
                else:
                    pair_degrees = degree_matrix[rows, columns]
                pair_sources = wave_ids[rows]

                state_coefficient_block = sparse.coo_matrix(
                    (pair_degrees, (columns, pair_sources - row_start)),
                    shape=(n_timed, wave_end - row_start),
                ).tocsr()

                # Dedupe the wave's successors in C (a sort over fixed-size
                # byte records), resolve each distinct successor once, then
                # expand the resolved distributions back over all pairs with
                # ragged gathers.
                _, first_rows, inverse = np.unique(
                    _record_view(_compact_records(successors)),
                    return_index=True,
                    return_inverse=True,
                )
                unique_successors = successors[first_rows]
                unique_keys = _marking_block_keys(unique_successors)
                resolver.resolve_wave(unique_successors, unique_keys)
                cache = resolver.cache
                distributions = [cache[key] for key in unique_keys]
                counts = np.fromiter(
                    (len(d) for d in distributions),
                    dtype=np.int64,
                    count=len(distributions),
                )
                offsets = np.cumsum(counts) - counts
                flat_targets = np.fromiter(
                    (target for d in distributions for target, _ in d),
                    dtype=np.int64,
                )
                flat_probabilities = np.fromiter(
                    (probability for d in distributions for _, probability in d),
                    dtype=np.float64,
                )
                lengths = counts[inverse]
                total = int(lengths.sum())
                out_offsets = np.cumsum(lengths) - lengths
                gather = np.arange(total, dtype=np.int64) + np.repeat(
                    offsets[inverse] - out_offsets, lengths
                )
                targets = flat_targets[gather]
                probabilities = flat_probabilities[gather]
                sources = np.repeat(pair_sources, lengths)
                keep = targets != sources  # self-loops contribute nothing
                kept_sources = sources[keep]
                kept_targets = targets[keep]
                kept_rows = np.repeat(columns, lengths)[keep]
                kept_rates = (np.repeat(pair_rates, lengths) * probabilities)[keep]
                kept_coefficients = (
                    np.repeat(pair_degrees, lengths) * probabilities
                )[keep]

                # Finalize the wave: dedupe/sort its edges exactly as the
                # global pass would.  Every target is interned by now, so
                # ``stride`` bounds them and the block-local key sorts in
                # global (source, target) order; duplicate contributions to
                # one edge are always wave-internal (wave-locality), so the
                # per-wave bincount accumulates the same addends in the same
                # order as a global bincount would.
                stride = len(markings)
                edge_keys = (kept_sources - row_start) * stride + kept_targets
                unique_edge_keys, edge_index = np.unique(
                    edge_keys, return_inverse=True
                )
                block_sources = unique_edge_keys // stride + row_start
                block_targets = unique_edge_keys % stride
                block_rates = np.bincount(
                    edge_index, weights=kept_rates, minlength=unique_edge_keys.size
                )
                edge_coefficient_block = sparse.coo_matrix(
                    (kept_coefficients, (kept_rows, edge_index)),
                    shape=(n_timed, unique_edge_keys.size),
                ).tocsr()
                wave_totals.append(len(markings))
                yield WaveBlock(
                    row_start,
                    wave_end,
                    wave,
                    block_sources,
                    block_targets,
                    block_rates,
                    edge_coefficient_block,
                    state_coefficient_block,
                )
        except StateSpaceLimitError as error:
            raise _enriched_limit_error(
                error, self.compiled.name, wave_totals, len(markings)
            ) from None


def _enriched_limit_error(
    error: StateSpaceLimitError,
    net_name: str,
    wave_totals: list[int],
    states_explored: int,
) -> StateSpaceLimitError:
    """Rebuild a ``max_states`` overflow with exploration context.

    Projects the total state-space size by extrapolating the per-wave
    discovery counts geometrically (BFS levels of these nets grow roughly
    geometrically until saturation); the projection is omitted when the
    recent growth is flat or shrinking, where a geometric tail sum would be
    meaningless.
    """
    waves_explored = len(wave_totals) + 1
    projected = None
    if len(wave_totals) >= 3:
        added = np.diff(np.asarray(wave_totals[-4:], dtype=np.float64))
        if added.size >= 2 and (added > 0).all():
            growth = float(np.exp(np.mean(np.log(added[1:] / added[:-1]))))
            if growth > 1.05:
                projected = int(states_explored + added[-1] * growth / (growth - 1.0))
    projection_clause = (
        f"; wave growth projects roughly {projected} tangible markings in total"
        if projected is not None
        else ""
    )
    return StateSpaceLimitError(
        f"net {net_name!r}: tangible state space exceeds the limit of "
        f"{error.max_states} markings after exploring {states_explored} states "
        f"across {waves_explored} BFS waves{projection_clause}. Options: raise "
        "max_states, enable symmetry_reduction, or route the model to the "
        "disk-backed chunked backend (repro.statespace.chunked / "
        "--memory-budget).",
        max_states=error.max_states,
        states_explored=states_explored,
        waves_explored=waves_explored,
        projected_states=projected,
    )


def generate_tangible_reachability_graph(
    net: StochasticPetriNet | CompiledNet,
    max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
    symmetry: Optional[SymmetrySpec] = None,
    chunk_size: int = DEFAULT_EXPLORATION_CHUNK,
) -> TangibleReachabilityGraph:
    """Explore the tangible state space of ``net`` with the incidence kernel.

    The breadth-first exploration expands the frontier in waves: up to
    ``chunk_size`` markings are stacked into one ``(F, P)`` array, and
    enabledness, enabling degrees and all successor markings of the wave are
    computed with broadcast array operations
    (:class:`repro.spn.kernel.IncidenceKernel`).  Vanishing successors are
    resolved by a batch traversal of the vanishing sub-graph (one vectorized
    immediate-race expansion per chain level, then a sparse-matrix
    absorption of the branching probabilities), and every successor marking
    seen before is a single bytes-key lookup.  The produced graph is
    equivalent to the one built by the retained scalar reference
    (:func:`generate_tangible_reachability_graph_scalar`): same markings,
    edges and coefficients, possibly under a different state numbering.

    This is the in-RAM frontend over :class:`WaveExploration`; the
    disk-backed frontend in :mod:`repro.statespace.chunked` consumes the
    same wave stream without accumulating it.

    Args:
        net: the net to explore (a declarative net is compiled first).
        max_states: abort if more tangible markings than this are discovered
            (protects against unbounded nets).
        symmetry: optional :class:`~repro.symmetry.spec.SymmetrySpec`
            declaring the group of place permutations the net is invariant
            under (e.g. identical physical machines within a data center).
            Every marking is mapped to the canonical representative of its
            orbit, so the exploration produces the exactly lumped CTMC,
            often several times smaller.  Measures evaluated on the lumped
            graph must themselves be symmetric under the same permutations.
            The spec's place count is checked against the net up front — a
            stale spec built for a different net raises
            :class:`~repro.exceptions.ModelError` instead of silently
            producing a wrong lumped graph.
        chunk_size: frontier markings expanded per vectorized wave.

    Raises:
        StateSpaceError: if the exploration exceeds ``max_states`` or the net
            contains immediate-transition cycles.
        ModelError: if ``symmetry`` does not fit the net.
    """
    exploration = WaveExploration(net, max_states, symmetry, chunk_size)
    n_timed = exploration.n_timed

    edge_source_blocks: list[np.ndarray] = []
    edge_target_blocks: list[np.ndarray] = []
    edge_rate_blocks: list[np.ndarray] = []
    edge_coefficient_blocks: list[sparse.csr_matrix] = []
    state_coefficient_blocks: list[sparse.csr_matrix] = []
    for block in exploration.blocks():
        edge_source_blocks.append(block.edge_sources)
        edge_target_blocks.append(block.edge_targets)
        edge_rate_blocks.append(block.edge_rates)
        edge_coefficient_blocks.append(block.edge_coefficient_block)
        state_coefficient_blocks.append(block.state_coefficient_block)

    markings = exploration.markings
    number_of_states = len(markings)
    if edge_coefficient_blocks:
        edge_coefficient_matrix = sparse.hstack(
            edge_coefficient_blocks, format="csr"
        )
        state_coefficient_matrix = sparse.hstack(
            state_coefficient_blocks, format="csr"
        )
    else:  # pragma: no cover - a net always has at least one tangible state
        edge_coefficient_matrix = sparse.csr_matrix((n_timed, 0), dtype=np.float64)
        state_coefficient_matrix = sparse.csr_matrix(
            (n_timed, number_of_states), dtype=np.float64
        )

    return TangibleReachabilityGraph(
        net=exploration.compiled,
        markings=markings,
        initial_distribution=exploration.initial_distribution,
        edge_sources=_concat(edge_source_blocks, np.int64),
        edge_targets=_concat(edge_target_blocks, np.int64),
        edge_rates=_concat(edge_rate_blocks, np.float64),
        transition_names=exploration.transition_names,
        rate_vector=exploration.nominal_rates.copy(),
        edge_coefficient_matrix=edge_coefficient_matrix,
        state_coefficient_matrix=state_coefficient_matrix,
    )


def generate_tangible_reachability_graph_scalar(
    net: StochasticPetriNet | CompiledNet,
    max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
    symmetry: Optional[SymmetrySpec] = None,
) -> TangibleReachabilityGraph:
    """Scalar reference explorer (one marking, one transition at a time).

    This is the pre-kernel implementation, retained as the ground truth the
    vectorized explorer is verified against (property tests,
    ``benchmarks/bench_statespace.py``): its per-marking Python loops fill
    coefficient dicts, stacked into the graph's arrays at the end.
    Semantics and state numbering are identical to
    :func:`generate_tangible_reachability_graph`.
    """
    compiled = net if isinstance(net, CompiledNet) else CompiledNet(net)
    validate_spec_for_net(symmetry, len(compiled.place_names), compiled.name)
    canonicalize = build_canonicalizer(symmetry) if symmetry is not None else None

    marking_ids: dict[tuple[int, ...], int] = {}
    markings: list[tuple[int, ...]] = []
    transitions: dict[tuple[int, int], float] = {}
    throughput_coefficients: dict[str, dict[int, float]] = {
        t.name: {} for t in compiled.timed_transitions
    }
    edge_contributions: dict[str, dict[tuple[int, int], float]] = {
        t.name: {} for t in compiled.timed_transitions
    }

    def intern(marking: tuple[int, ...]) -> tuple[int, bool]:
        if canonicalize is not None:
            marking = canonicalize(marking)
        state_id = marking_ids.get(marking)
        if state_id is not None:
            return state_id, False
        state_id = len(markings)
        if state_id >= max_states:
            raise StateSpaceError(
                f"net {compiled.name!r}: tangible state space exceeds the limit of "
                f"{max_states} markings"
            )
        marking_ids[marking] = state_id
        markings.append(marking)
        return state_id, True

    vanishing_memo: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
    initial_distribution: dict[int, float] = {}
    frontier: deque[int] = deque()
    for tangible_marking, probability in resolve_vanishing(
        compiled, compiled.initial_marking, memo=vanishing_memo
    ).items():
        state_id, is_new = intern(tangible_marking)
        initial_distribution[state_id] = (
            initial_distribution.get(state_id, 0.0) + probability
        )
        if is_new:
            frontier.append(state_id)

    while frontier:
        state_id = frontier.popleft()
        marking = markings[state_id]
        for transition in compiled.timed_transitions:
            if not transition.is_enabled(marking):
                continue
            degree = float(transition.enabling_degree(marking)) if transition.infinite_server else 1.0
            rate = transition.rate * degree
            if rate <= 0.0:
                continue
            throughput_coefficients[transition.name][state_id] = (
                throughput_coefficients[transition.name].get(state_id, 0.0) + degree
            )
            fired = transition.fire(marking)
            contributions = edge_contributions[transition.name]
            for tangible_marking, probability in resolve_vanishing(
                compiled, fired, memo=vanishing_memo
            ).items():
                target_id, is_new = intern(tangible_marking)
                if is_new:
                    frontier.append(target_id)
                if target_id == state_id:
                    # A self-loop contributes nothing to the CTMC dynamics.
                    continue
                key = (state_id, target_id)
                transitions[key] = transitions.get(key, 0.0) + rate * probability
                contributions[key] = contributions.get(key, 0.0) + degree * probability

    names = tuple(t.name for t in compiled.timed_transitions)
    edge_index = {edge: i for i, edge in enumerate(transitions)}
    return TangibleReachabilityGraph(
        net=compiled,
        markings=markings,
        initial_distribution=initial_distribution,
        edge_sources=np.asarray([source for source, _ in transitions], dtype=np.int64),
        edge_targets=np.asarray([target for _, target in transitions], dtype=np.int64),
        edge_rates=np.asarray(list(transitions.values()), dtype=np.float64),
        transition_names=names,
        rate_vector=np.asarray(
            [t.rate for t in compiled.timed_transitions], dtype=np.float64
        ),
        edge_coefficient_matrix=_coefficients_to_csr(
            names, edge_contributions, edge_index, len(transitions)
        ),
        state_coefficient_matrix=_coefficients_to_csr(
            names, throughput_coefficients, None, len(markings)
        ),
    )
