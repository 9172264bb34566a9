"""Reusable symbolic structure of the constrained balance equations.

Every scenario of a batch shares the tangible reachability graph's *sparsity
structure*: the edge list never changes, only the numeric rates do.  The
linear system solved for the stationary vector — ``A x = b`` with
``A = Qᵀ`` whose last balance equation is replaced by the normalisation
constraint ``Σ x = 1`` — therefore also has a fixed sparsity pattern across
the whole batch.

:class:`ConstrainedSystemTemplate` performs the symbolic assembly exactly
once: it lays out the CSC index structure of ``A`` and records, for every
stored nonzero, which entry of the per-scenario value vector it takes its
value from.  Re-rating a scenario then only *re-fills the numeric values* of
an existing CSC matrix (two ``np.concatenate`` calls and one fancy-indexed
assignment) instead of re-running transpose/`tolil` row surgery per scenario.

The value vector of a scenario is laid out as::

    [ masked edge rates | negated exit rates of states 0..n-2 | ones row ]

where the mask drops edges whose *target* is the last state (their balance
row is the one replaced by the normalisation constraint).  All three groups
address disjoint matrix positions — edges are never self-loops — so the
COO→CSC conversion used to discover the layout is a pure permutation.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np
from scipy import sparse


class ConstrainedSystemTemplate:
    """Symbolic (structure-only) form of the constrained balance system.

    The template itself is immutable; each solver materialises its own CSC
    matrix with :meth:`fresh_system` and then re-fills it in place with
    :meth:`refill`.

    For *process* workers the symbolic assembly does not have to be redone
    either: :meth:`shared_arrays` exports the five structure arrays (edge
    sources, surviving-edge mask, CSC index structure and the value-vector
    permutation) and :meth:`from_shared_arrays` reconstitutes a fully
    functional template around read-only views of them — e.g. zero-copy
    attachments of a :mod:`multiprocessing.shared_memory` block.
    """

    def __init__(self, edge_sources: np.ndarray, edge_targets: np.ndarray, n: int):
        if n < 2:
            raise ValueError("the constrained system needs at least two states")
        self.n = n
        last = n - 1
        self.edge_sources = np.asarray(edge_sources, dtype=np.int64)
        edge_targets = np.asarray(edge_targets, dtype=np.int64)
        #: Edges whose balance row survives (target != last state).
        self.edge_mask = edge_targets != last
        interior = np.arange(last, dtype=np.int64)
        rows = np.concatenate(
            [edge_targets[self.edge_mask], interior, np.full(n, last, dtype=np.int64)]
        )
        cols = np.concatenate(
            [self.edge_sources[self.edge_mask], interior, np.arange(n, dtype=np.int64)]
        )
        slots = rows.size
        # Build the CSC structure with 1-based slot ids as data: after the
        # conversion, each stored value tells which entry of the value
        # vector lands at that CSC position.  (1-based so that no slot id is
        # a zero that sparse construction could silently drop.)
        indexed = sparse.coo_matrix(
            (np.arange(1, slots + 1, dtype=np.float64), (rows, cols)), shape=(n, n)
        ).tocsc()
        if indexed.nnz != slots:
            raise AssertionError(
                "constrained-system template has colliding entries; the edge "
                "list must be unique and self-loop free"
            )
        self._pattern = indexed
        self._positions = indexed.data.astype(np.int64) - 1
        self.rhs = np.zeros(n)
        self.rhs[last] = 1.0

    def _values(self, edge_rates: np.ndarray) -> np.ndarray:
        exit_rates = np.bincount(self.edge_sources, weights=edge_rates, minlength=self.n)
        return np.concatenate(
            [edge_rates[self.edge_mask], -exit_rates[: self.n - 1], np.ones(self.n)]
        )

    def fresh_system(self, edge_rates: np.ndarray) -> sparse.csc_matrix:
        """A new CSC matrix with this structure, filled for ``edge_rates``.

        Only the value array is freshly allocated; the index structure is
        the template's own (it is identical for every scenario and must not
        be mutated by callers).
        """
        data = np.empty(self._positions.size, dtype=np.float64)
        system = sparse.csc_matrix(
            (data, self._pattern.indices, self._pattern.indptr),
            shape=(self.n, self.n),
        )
        # The structure came out of a COO→CSC conversion, so it is already
        # canonical; declaring it keeps scipy from ever re-verifying (or,
        # on non-canonical input, mutating) the shared index arrays.
        system.has_sorted_indices = True
        system.has_canonical_format = True
        self.refill(system, edge_rates)
        return system

    def refill(self, system: sparse.csc_matrix, edge_rates: np.ndarray) -> None:
        """Overwrite the numeric values of ``system`` in place for a new scenario."""
        system.data[:] = self._values(edge_rates)[self._positions]

    # --- zero-copy transport ----------------------------------------------

    def shared_arrays(self) -> dict[str, np.ndarray]:
        """The structure arrays a worker needs to rebuild this template.

        All five arrays are scenario-independent; placing them in shared
        memory lets every worker process attach read-only views instead of
        re-running (or re-pickling) the symbolic assembly.
        """
        return {
            "edge_sources": self.edge_sources,
            "edge_mask": self.edge_mask,
            "positions": self._positions,
            "csc_indices": self._pattern.indices,
            "csc_indptr": self._pattern.indptr,
        }

    @classmethod
    def from_shared_arrays(
        cls, arrays: Mapping[str, np.ndarray], n: int
    ) -> "ConstrainedSystemTemplate":
        """Reconstitute a template around pre-assembled structure arrays.

        ``arrays`` must hold the keys produced by :meth:`shared_arrays`.
        The arrays are adopted as-is (typically read-only shared-memory
        views); no symbolic assembly is performed.
        """
        template = cls.__new__(cls)
        template.n = int(n)
        template.edge_sources = arrays["edge_sources"]
        template.edge_mask = arrays["edge_mask"]
        template._positions = arrays["positions"]
        template._pattern = sparse.csc_matrix(
            (
                np.zeros(template._positions.size, dtype=np.float64),
                arrays["csc_indices"],
                arrays["csc_indptr"],
            ),
            shape=(template.n, template.n),
        )
        template.rhs = np.zeros(template.n)
        template.rhs[template.n - 1] = 1.0
        return template
