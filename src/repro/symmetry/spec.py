"""Declarative description of a net's exchangeability structure.

A :class:`SymmetrySpec` says *which* indices of a marking vector (and which
timed transitions of the rate assignment) are exchangeable, without saying
anything about how to canonicalize — that is
:mod:`repro.symmetry.canonicalize`'s job.  The spec is built from frozen
dataclasses of plain tuples, so it pickles to generation workers, hashes to
a stable ``cache_id`` and compares by value.

Two group shapes exist:

* a **flat** :class:`OrbitGroup` (``pairs=()``) — ``b`` interchangeable
  blocks of ``L`` aligned slots each, e.g. the per-PM place profiles within
  one data center.  The model is invariant under any permutation of the
  blocks.
* a **paired** :class:`OrbitGroup` — additionally carries a ``b × b``
  matrix of pair profiles (empty diagonal): slots that must permute with
  *ordered pairs* of blocks, e.g. the ``TRF_ij``/``TBF_ij`` transmission
  places between exchangeable data centers.  Permuting blocks ``i → σ(i)``
  maps pair slot ``(i, j)`` onto ``(σ(i), σ(j))``.

A spec holds the marking-space groups (integer place indices) and,
optionally, the mirrored rate-space groups (timed-transition *names*, mapped
to vector positions only when a concrete rate-vector ordering is known).
At most one marking group may be paired: the canonical form of a paired
group is only exact in isolation (its block keys may reference slots of the
flat groups, which are canonicalized first, but two paired groups would see
each other's pair slots move mid-sort).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

Label = Union[int, str]


@dataclass(frozen=True)
class OrbitGroup:
    """One set of exchangeable, aligned blocks in an indexed vector space.

    Attributes:
        profiles: ``b`` blocks of ``L`` aligned slot labels each — slot
            ``t`` of every block plays the same role (e.g. "the OSPM UP
            place of machine ``k``").
        pairs: empty for a flat group, else a ``b × b`` nested tuple whose
            ``[i][j]`` entry (``i ≠ j``) lists the slots attached to the
            *ordered* block pair ``(i, j)``; the diagonal entries are
            empty tuples.
    """

    profiles: tuple[tuple[Label, ...], ...]
    pairs: tuple[tuple[tuple[Label, ...], ...], ...] = ()

    def __post_init__(self) -> None:
        if len(self.profiles) < 2:
            raise ValueError("an orbit group needs at least two blocks")
        width = len(self.profiles[0])
        if any(len(profile) != width for profile in self.profiles):
            raise ValueError("orbit-group profiles must have equal length")
        if self.pairs:
            b = len(self.profiles)
            if len(self.pairs) != b or any(len(row) != b for row in self.pairs):
                raise ValueError(
                    f"pair matrix must be {b}x{b} to match the {b} blocks"
                )
            pair_widths = {
                len(self.pairs[i][j]) for i in range(b) for j in range(b) if i != j
            }
            if len(pair_widths) > 1:
                raise ValueError("off-diagonal pair profiles must have equal length")
            if any(self.pairs[i][i] for i in range(b)):
                raise ValueError("diagonal pair entries must be empty")

    @property
    def size(self) -> int:
        """Number of exchangeable blocks (the orbit has ``size!`` elements)."""
        return len(self.profiles)

    @property
    def paired(self) -> bool:
        return bool(self.pairs)

    def labels(self) -> Iterator[Label]:
        """Every slot label the group touches (profiles and pairs)."""
        for profile in self.profiles:
            yield from profile
        for row in self.pairs:
            for entry in row:
                yield from entry

    def indexed(self, index: Mapping[str, int]) -> "OrbitGroup":
        """The same group with string labels resolved through ``index``."""

        def resolve(label: Label) -> int:
            return label if isinstance(label, int) else index[label]

        return OrbitGroup(
            profiles=tuple(
                tuple(resolve(label) for label in profile)
                for profile in self.profiles
            ),
            pairs=tuple(
                tuple(
                    tuple(resolve(label) for label in entry) for entry in row
                )
                for row in self.pairs
            ),
        )


@dataclass(frozen=True)
class SymmetrySpec:
    """The exchangeability structure of one net.

    Attributes:
        place_count: length of the marking vectors the spec describes;
            :func:`~repro.symmetry.validate.validate_spec_for_net` rejects
            any net whose place count differs (a *stale* spec must never
            lump a different net).
        marking_groups: orbit groups over integer place indices.  Flat
            groups (PM exchange) come first; an optional single paired
            group (DC exchange) comes last, its profiles may reference
            slots of the flat groups.
        rate_groups: the same orbit structure mirrored into timed-transition
            names — the rate assignment must be constant on these orbits
            for the lumping to be exact, and the grid's symmetry-aware
            dedupe canonicalizes rate vectors along them.
        kind: human-readable summary (``"pm"`` or ``"dc+pm"``) surfaced in
            lumping provenance.
    """

    place_count: int
    marking_groups: tuple[OrbitGroup, ...]
    rate_groups: tuple[OrbitGroup, ...] = ()
    kind: str = "pm"

    def __post_init__(self) -> None:
        if self.place_count <= 0:
            raise ValueError("place_count must be positive")
        if not self.marking_groups:
            raise ValueError("a symmetry spec needs at least one marking group")
        paired = [group for group in self.marking_groups if group.paired]
        if len(paired) > 1:
            raise ValueError(
                "at most one paired (data-center) orbit group is supported; "
                "the canonical form of two interacting paired groups is not "
                "well defined"
            )
        if paired and not self.marking_groups[-1].paired:
            raise ValueError("the paired orbit group must come last")
        for group in self.marking_groups:
            for label in group.labels():
                if not isinstance(label, int):
                    raise ValueError(
                        f"marking groups must use integer place indices, got "
                        f"{label!r}"
                    )
                if not 0 <= label < self.place_count:
                    raise ValueError(
                        f"place index {label} outside the net's "
                        f"{self.place_count} places — stale spec?"
                    )
        for group in self.rate_groups:
            for label in group.labels():
                if not isinstance(label, str):
                    raise ValueError(
                        f"rate groups must use transition names, got {label!r}"
                    )

    @property
    def group_order(self) -> int:
        """Order of the declared symmetry group (``∏ size!`` over groups)."""
        order = 1
        for group in self.marking_groups:
            order *= math.factorial(group.size)
        return order

    def digest(self) -> str:
        """Stable content hash of the spec (drives the cache identity)."""
        payload = repr(
            (
                "symmetry-spec/v1",
                self.place_count,
                tuple(
                    (group.profiles, group.pairs) for group in self.marking_groups
                ),
                tuple(
                    (group.profiles, group.pairs) for group in self.rate_groups
                ),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @property
    def cache_id(self) -> str:
        """The lumping's identity for grouping and graph caching.

        Lumped and unlumped graphs of one structure must never collide in
        the :class:`~repro.engine.cache.TRGCache` (nor may two different
        lumpings), so the identity keys on the full spec content.
        """
        return f"sym:{self.kind}:{self.digest()[:16]}"

    def generator_permutations(self) -> Iterator[list[int]]:
        """Index permutations generating the declared group.

        Yields, for every adjacent block transposition of every marking
        group, the full place permutation ``g`` such that the permuted
        marking is ``[marking[g[p]] for p in range(place_count)]``.  The
        transpositions generate the whole group, so a function invariant
        under every yielded permutation is invariant under the group.
        """
        for group in self.marking_groups:
            for a in range(group.size - 1):
                order = list(range(group.size))
                order[a], order[a + 1] = order[a + 1], order[a]
                yield _apply_block_order(group, order, self.place_count)


def _apply_block_order(group: OrbitGroup, order: list[int], size: int) -> list[int]:
    """Place permutation realising ``block k ← block order[k]`` for a group."""
    g = list(range(size))
    for k, src in enumerate(order):
        for dst_label, src_label in zip(group.profiles[k], group.profiles[src]):
            g[dst_label] = src_label
        if group.pairs:
            for l, src_l in enumerate(order):
                if k == l:
                    continue
                for dst_label, src_label in zip(
                    group.pairs[k][l], group.pairs[src][src_l]
                ):
                    g[dst_label] = src_label
    return g
