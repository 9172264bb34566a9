"""Canonicalizers derived from a :class:`~repro.symmetry.spec.SymmetrySpec`.

:func:`build_canonicalizer` emits the marking canonicalizer that the
reachability generator's state interner builds from the spec it is given:
a scalar ``f(marking_tuple) -> marking_tuple`` carrying ``f.batch``, the
vectorized companion (``(N, P) -> (N, P)``, representatives **identical**
to the scalar path's on every row).  Every other layer passes the spec
itself, whose ``cache_id`` and ``group_order`` are the lumping's identity
and group order.

Canonical form
--------------

Flat groups (PM exchange) sort their block value-tuples ascending — the
classic exchangeable-machines representative.  The paired group (DC
exchange) is canonicalized *after* the flat groups (its block keys read the
already-sorted PM slots):

1. every block's key — its profile values, pair slots excluded — is sorted
   stably ascending;
2. among all block permutations consistent with that key order (the
   products of permutations within key-tie runs), the one producing the
   lexicographically smallest full vector — pair slots *included* — wins.

Step 2 is what makes the form constant on orbits (f(σ·m) = f(m) for every
group element σ), not merely idempotent: a tie broken by block position
alone would depend on the input labelling and silently build a **wrong**
lumped chain, not a less-lumped one.  The batch path short-circuits the
expensive enumeration: rows without key ties are unambiguous, and rows
whose pair slots hold one constant value (the overwhelmingly common "no
transfer in flight" states) are tie-invariant; only the rare ambiguous rows
fall back to the scalar enumerator.  It orders a group's blocks by one
packed mixed-radix int64 key per block, reads ties off equal keys, and
permutes only the rows whose order is not already the identity.

:func:`rate_vector_key` reuses the same canonical form in *rate space*
(blocks of timed-transition rates instead of marking slots) to give the
grid's dedupe a symmetry-aware digest: rate vectors that differ only by a
permutation of exchangeable data-center blocks map to one key.
"""

from __future__ import annotations

import hashlib
from itertools import permutations, product
from typing import Callable, Optional, Sequence

import numpy as np

from repro.symmetry.spec import OrbitGroup, SymmetrySpec


def _sort_flat_group(values: list, group: OrbitGroup) -> None:
    """Sort a flat group's block value-tuples ascending, in place."""
    states = sorted(
        tuple(values[index] for index in profile) for profile in group.profiles
    )
    for profile, state in zip(group.profiles, states):
        for index, token in zip(profile, state):
            values[index] = token


def _paired_candidates(values: list, group: OrbitGroup) -> list[list[int]]:
    """Block orders consistent with the stable key sort (tie-run products)."""
    keys = [
        tuple(values[index] for index in profile) for profile in group.profiles
    ]
    order = sorted(range(group.size), key=lambda block: (keys[block], block))
    runs: list[list[int]] = []
    for position, block in enumerate(order):
        if position and keys[block] == keys[order[position - 1]]:
            runs[-1].append(block)
        else:
            runs.append([block])
    if all(len(run) == 1 for run in runs):
        return [order]
    return [
        [block for run in combo for block in run]
        for combo in product(*(permutations(run) for run in runs))
    ]


def _apply_paired_order(values: list, group: OrbitGroup, order: Sequence[int]) -> list:
    """The vector with block ``k`` holding block ``order[k]``'s values."""
    out = list(values)
    for k, src in enumerate(order):
        for dst, origin in zip(group.profiles[k], group.profiles[src]):
            out[dst] = values[origin]
        for l, src_l in enumerate(order):
            for dst, origin in zip(group.pairs[k][l], group.pairs[src][src_l]):
                out[dst] = values[origin]
    return out


def _canonicalize_paired(values: list, group: OrbitGroup) -> list:
    candidates = _paired_candidates(values, group)
    if len(candidates) == 1:
        return _apply_paired_order(values, group, candidates[0])
    return min(
        (_apply_paired_order(values, group, order) for order in candidates),
        key=tuple,
    )


def _scalar_canonicalizer(groups: Sequence[OrbitGroup]):
    def canonicalize(marking):
        values = list(marking)
        for group in groups:
            if group.paired:
                values = _canonicalize_paired(values, group)
            else:
                _sort_flat_group(values, group)
        return tuple(values)

    return canonicalize


#: Largest radix product of a packed block key; above it blocks are ordered
#: with ``np.lexsort`` over their columns instead.
_PACKED_KEY_LIMIT = 1 << 62


def _block_order(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable ascending block order of each row, and which rows hold ties.

    ``sub`` is ``(N, blocks, width)``.  Blocks compare as tuples, which is
    the order of one mixed-radix int64 key per block built from the
    columns' spans, sorted with a stable ``argsort``; ties are equal keys.
    ``np.lexsort`` over the columns takes over when the radix product would
    pass 2**62.  Both orders match ``sorted`` on the scalar path.
    """
    low = sub.min(axis=(0, 1))
    spans = (sub.max(axis=(0, 1)) - low + 1).tolist()
    radix = [1] * len(spans)
    for column in range(len(spans) - 2, -1, -1):
        radix[column] = radix[column + 1] * spans[column + 1]
    if radix[0] * spans[0] <= _PACKED_KEY_LIMIT:
        keys = (sub - low) @ np.asarray(radix, dtype=np.int64)
        order = np.argsort(keys, axis=1, kind="stable")
        keys = np.take_along_axis(keys, order, axis=1)
        return order, (keys[:, 1:] == keys[:, :-1]).any(axis=1)
    order = np.lexsort(
        tuple(sub[:, :, column] for column in range(sub.shape[2] - 1, -1, -1))
    )
    ordered = np.take_along_axis(sub, order[:, :, None], axis=1)
    return order, (ordered[:, 1:] == ordered[:, :-1]).all(axis=2).any(axis=1)


class _BatchGroup:
    """Slot indices of one orbit group, for permuting blocks of markings.

    ``profiles`` is the ``(blocks, width)`` profile-slot matrix.  A paired
    group also holds the dense ``(blocks, blocks, W)`` pair-slot matrix,
    whose diagonal is a dummy (index 0) masked out of every use.
    """

    def __init__(self, group: OrbitGroup, place_count: int) -> None:
        self.place_count = place_count
        self.profiles = np.asarray(group.profiles, dtype=np.int64)
        size = group.size
        self.pair_width = len(group.pairs[0][1]) if group.paired else 0
        self.pair_matrix = np.zeros((size, size, self.pair_width), dtype=np.int64)
        for i in range(size):
            for j in range(size):
                if self.pair_width and i != j:
                    self.pair_matrix[i, j] = group.pairs[i][j]
        self.off_diagonal = ~np.eye(size, dtype=bool)
        self.pair_slots = self.pair_matrix[self.off_diagonal].reshape(-1)

    def sources(self, orders: np.ndarray) -> np.ndarray:
        """``(R, P)`` slot each output slot reads under each block order.

        Block ``k`` takes block ``order[k]``'s profile and pair ``(k, l)``
        takes pair ``(order[k], order[l])``, as on the scalar path.
        """
        count = len(orders)
        out = np.tile(np.arange(self.place_count, dtype=np.int64), (count, 1))
        out[:, self.profiles.ravel()] = self.profiles[orders].reshape(count, -1)
        if self.pair_width:
            pairs = self.pair_matrix[orders[:, :, None], orders[:, None, :]]
            out[:, self.pair_slots] = pairs[:, self.off_diagonal].reshape(count, -1)
        return out

    def permute(self, values: np.ndarray, order: np.ndarray) -> None:
        """Apply each row's block order in place; identity rows stay put.

        The source rows are built once per distinct order.
        """
        rows = np.nonzero((order != np.arange(order.shape[1])).any(axis=1))[0]
        if rows.size == 0:
            return
        moved = np.ascontiguousarray(order[rows])
        records = moved.view(np.dtype((np.void, moved.itemsize * moved.shape[1])))
        _, first, inverse = np.unique(
            records.ravel(), return_index=True, return_inverse=True
        )
        sources = self.sources(moved[first])[inverse]
        values[rows] = np.take_along_axis(values[rows], sources, axis=1)


def build_canonicalizer(spec: SymmetrySpec):
    """The marking canonicalizer of ``spec``: scalar, with a ``batch`` companion."""
    groups = spec.marking_groups
    scalar = _scalar_canonicalizer(groups)
    flat = [
        _BatchGroup(group, spec.place_count) for group in groups if not group.paired
    ]
    paired = next(
        (_BatchGroup(group, spec.place_count) for group in groups if group.paired),
        None,
    )

    def canonicalize_batch(block: np.ndarray) -> np.ndarray:
        values = np.array(block, dtype=np.int64, copy=True)
        if values.size == 0:
            return values
        for group in flat:
            order, _ = _block_order(values[:, group.profiles])
            group.permute(values, order)
        if paired is None:
            return values
        order, ties = _block_order(values[:, paired.profiles])
        # Rows whose key ties meet non-uniform pair slots: the key sort
        # alone is not orbit-constant there, so the exact scalar enumerator
        # decides, from the *original* rows, so the two paths agree bit for
        # bit.
        tied = np.nonzero(ties)[0]
        pair_values = values[tied[:, None], paired.pair_slots]
        ambiguous = tied[~(pair_values == pair_values[:, :1]).all(axis=1)]
        paired.permute(values, order)
        original = np.asarray(block, dtype=np.int64)
        for row in ambiguous.tolist():
            values[row] = scalar(tuple(original[row].tolist()))
        return values

    scalar.batch = canonicalize_batch
    return scalar


def rate_vector_key(
    spec: SymmetrySpec, transition_names: Sequence[str]
) -> Optional[Callable[[np.ndarray], bytes]]:
    """Symmetry-aware digest of rate vectors aligned with ``transition_names``.

    Canonicalizes a float64 rate vector along ``spec.rate_groups`` (blocks
    sorted, pair rates carried along, ties resolved by the exact
    enumerator) before hashing, so two rate assignments that differ only by
    a permutation of exchangeable blocks share one digest — the hook behind
    "grid cases differing only by a permutation of exchangeable DC
    parameter blocks dedupe to one solve".  Answers ``None`` when the spec
    names transitions absent from the vector (a mismatched graph must fall
    back to the plain bit-exact digest, never misdedupe).
    """
    if not spec.rate_groups:
        return None
    index = {name: position for position, name in enumerate(transition_names)}
    try:
        groups = tuple(group.indexed(index) for group in spec.rate_groups)
    except KeyError:
        return None
    scalar = _scalar_canonicalizer(groups)

    def key(vector: np.ndarray) -> bytes:
        canonical = scalar(tuple(np.asarray(vector, dtype=np.float64).tolist()))
        return hashlib.sha256(
            np.asarray(canonical, dtype=np.float64).tobytes()
        ).digest()

    return key
