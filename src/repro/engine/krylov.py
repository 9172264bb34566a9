"""Factorisation-reusing, warm-started Krylov solver for sweep batches.

The numeric heart of the batch engine, extracted so the serial path of
:class:`~repro.engine.batch.ScenarioBatchEngine` and the process workers of
:mod:`repro.engine.parallel` run *exactly* the same floating-point
operations: filling one symbolically pre-assembled constrained balance
system (:class:`~repro.engine.system.ConstrainedSystemTemplate`), reusing
its incomplete-LU factors as a preconditioner across neighbouring sweep
points and warm-starting each GMRES solve from the previous stationary
vector.  Both solvers here fill that one template — the chunked
:class:`MatrixFreeSolver` builds it from the chunks' edge arrays — and
build every preconditioner with :func:`incomplete_lu`, one threshold ILU at
every chain size.  The GMRES policy is fixed by the module constants below.

Given identical scenario chains (same contiguous chunk of sweep points, in
the same order), two :class:`ReusableSolver` instances produce bitwise
identical solutions regardless of which process hosts them —
which is what makes the cross-backend determinism guarantees of the sweep
scheduler testable.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.engine.system import ConstrainedSystemTemplate
from repro.exceptions import AnalysisError
from repro.markov import solvers
from repro.statespace.chunked import ChunkedGraph


class KrylovConvergenceError(AnalysisError):
    """Preconditioned GMRES failed to converge on one scenario's system.

    Carries enough numeric context to diagnose the failure — which sweep
    scenario hit it and how far from the solution the final iterate was —
    instead of leaving a silently degraded vector behind.
    """

    def __init__(
        self,
        message: str,
        *,
        scenario_index: Optional[int] = None,
        residual_norm: float = float("nan"),
        iterations: int = 0,
    ) -> None:
        super().__init__(message)
        self.scenario_index = scenario_index
        self.residual_norm = residual_norm
        self.iterations = iterations


#: GMRES policy of every engine solve.  The relative tolerance is tight
#: enough that independently warm-started worker chains agree below 1e-12 on
#: measure values; the warm-started re-solves absorb the extra iterations.
GMRES_TOLERANCE = 1e-13
GMRES_RESTART = 60
GMRES_MAX_ITERATIONS = 2000

#: True-residual target ``‖b − Aπ‖₂`` of :class:`MatrixFreeSolver`'s ladder.
RESIDUAL_TARGET = 1e-14

#: Superblock width of :class:`MatrixFreeSolver`'s block-Jacobi
#: preconditioner.  It bounds the memory of each block's incomplete-LU
#: factors independently of the total state count.
DEFAULT_SUPERBLOCK_ROWS = 16_384


def incomplete_lu(matrix, what: str = "the balance system"):
    """Threshold incomplete LU of ``matrix``: every preconditioner of this module.

    ``spilu`` with its default COLAMD column ordering, dropping entries below
    :data:`~repro.markov.solvers.ILU_DROP_TOLERANCE`.  ``sparse_linalg`` is
    looked up at call time, so a substituted module (a tracer, a test
    double) sees every factorisation.

    Raises:
        AnalysisError: when the factorisation fails (``what`` names the
            matrix in the message).
    """
    try:
        return sparse_linalg.spilu(
            matrix,
            drop_tol=solvers.ILU_DROP_TOLERANCE,
            fill_factor=solvers.ILU_FILL_FACTOR,
        )
    except Exception as error:
        raise AnalysisError(
            f"incomplete LU factorisation of {what} failed: {error}"
        ) from error


class ReusableSolver:
    """Per-worker numeric state: filled system, preconditioner, warm start.

    One instance serves one contiguous chain of sweep points.  The first
    :meth:`solve` materialises the CSC system from the shared template and
    builds its incomplete LU; subsequent calls only re-fill the numeric
    values and re-use the previous factors as a GMRES preconditioner
    (neighbouring sweep points differ in a handful of rates, so the stale
    factors remain a good preconditioner) with the previous stationary
    vector as the initial guess.
    """

    def __init__(self, template: ConstrainedSystemTemplate):
        self.template = template
        self.system = None
        self.preconditioner = None
        self.warm_start: Optional[np.ndarray] = None
        #: Whether the most recent solve had to abandon the reuse machinery
        #: and fall back to the generic solver stack.
        self.last_solve_used_fallback = False
        #: The :class:`KrylovConvergenceError` behind the most recent
        #: fallback (``None`` when the last solve converged).
        self.last_convergence_error: Optional[KrylovConvergenceError] = None

    def solve_krylov(
        self,
        edge_rates: np.ndarray,
        scenario_index: Optional[int] = None,
    ) -> np.ndarray:
        """Stationary vector via preconditioned GMRES, or raise on stall.

        If GMRES stalls (``maxiter`` exhausted or a non-finite iterate), the
        factorisation is rebuilt from the current values and the solve
        retried once; a second failure raises :class:`KrylovConvergenceError`
        carrying the scenario index and the residual norm of the final
        iterate — callers decide whether to fall back (:meth:`solve` does).
        """
        template = self.template
        if self.system is None:
            self.system = template.fresh_system(edge_rates)
        else:
            template.refill(self.system, edge_rates)

        rhs = template.rhs
        solution = None
        for attempt in ("reuse", "rebuild"):
            if self.preconditioner is None or attempt == "rebuild":
                self.preconditioner = incomplete_lu(self.system)
            operator = sparse_linalg.LinearOperator(
                self.system.shape, self.preconditioner.solve
            )
            x0 = None
            if self.warm_start is not None and self.warm_start.shape == rhs.shape:
                x0 = self.warm_start
            solution, info = sparse_linalg.gmres(
                self.system,
                rhs,
                M=operator,
                x0=x0,
                rtol=GMRES_TOLERANCE,
                atol=0.0,
                restart=GMRES_RESTART,
                maxiter=GMRES_MAX_ITERATIONS,
            )
            if info == 0 and np.all(np.isfinite(solution)):
                probabilities = solvers.normalize_distribution(
                    np.asarray(solution).ravel()
                )
                self.warm_start = probabilities
                return probabilities
        residual_norm = float("nan")
        if solution is not None and np.all(np.isfinite(solution)):
            residual_norm = float(
                np.linalg.norm(self.system @ np.asarray(solution).ravel() - rhs)
            )
        where = (
            f"scenario {scenario_index}"
            if scenario_index is not None
            else "a scenario"
        )
        raise KrylovConvergenceError(
            f"preconditioned GMRES did not converge on {where} after "
            f"{GMRES_MAX_ITERATIONS} iteration(s) with a rebuilt "
            f"factorisation (final residual norm {residual_norm:.3e})",
            scenario_index=scenario_index,
            residual_norm=residual_norm,
            iterations=GMRES_MAX_ITERATIONS,
        )

    def solve(
        self,
        edge_rates: np.ndarray,
        fallback_generator: Callable[[], object],
        scenario_index: Optional[int] = None,
    ) -> np.ndarray:
        """Stationary vector of the template's system under ``edge_rates``.

        Runs :meth:`solve_krylov` (GMRES with a reuse-then-rebuild
        preconditioner schedule); on :class:`KrylovConvergenceError` the
        documented fallback takes over: the reuse state is discarded and the
        generic direct solver stack runs on ``fallback_generator()`` (a
        freshly assembled CTMC generator).  The convergence failure is
        surfaced as a warning — carrying the scenario index and residual
        norm — and kept in :attr:`last_convergence_error`; a row solved this
        way is additionally flagged via :attr:`last_solve_used_fallback`
        (``STATUS_FALLBACK`` in the sweep scheduler's status block).
        """
        self.last_solve_used_fallback = False
        self.last_convergence_error = None
        try:
            return self.solve_krylov(edge_rates, scenario_index=scenario_index)
        except KrylovConvergenceError as error:
            self.last_convergence_error = error
            warnings.warn(
                f"{error}; falling back to the direct solver stack",
                stacklevel=2,
            )
            self.preconditioner = None
            self.warm_start = None
            self.last_solve_used_fallback = True
            return solvers.steady_state(fallback_generator(), method="auto")


class MatrixFreeSolver:
    """Steady-state solver over a :class:`ChunkedGraph`.

    The chunks partition the states by source row, in order, so their edge
    arrays concatenate into exactly the in-RAM edge list.  The first solve
    builds one :class:`~repro.engine.system.ConstrainedSystemTemplate` from
    them; every solve rates the edges with one pass over the chunks
    (:meth:`ChunkedGraph.edge_chunks`) and fills that one system.  The
    system and the factors stay resident; the graph's markings and
    coefficient matrices stay on disk.  (The name predates the assembled
    system and is kept for existing callers.)

    Preconditioning is block-Jacobi over *superblocks*: chunk-aligned row
    runs of roughly :data:`DEFAULT_SUPERBLOCK_ROWS` rows, each factored with
    the same :func:`incomplete_lu` as the in-RAM solver from its diagonal
    slice of the filled system.  A block whose factorisation fails raises
    :class:`~repro.exceptions.AnalysisError`.  Like :class:`ReusableSolver`,
    factors are reused across sweep points as stale-but-good
    preconditioners and only rebuilt when a solve stalls; convergence
    escalates GMRES → BiCGStab → iterative refinement
    (:func:`repro.markov.solvers.steady_state_matrix_free`) before giving up
    with an honest :class:`KrylovConvergenceError`.
    """

    def __init__(self, graph: ChunkedGraph) -> None:
        self.graph = graph
        self.template: Optional[ConstrainedSystemTemplate] = None
        self.system = None
        self.warm_start: Optional[np.ndarray] = None
        self.preconditioner = None
        self._factor_rates: Optional[np.ndarray] = None

    def _fill(self, rate_vector: np.ndarray) -> sparse.csc_matrix:
        """The constrained system under ``rate_vector`` (template built once)."""
        graph = self.graph
        if self.template is None:
            sources, targets = (
                np.concatenate(
                    [graph.chunk_array(chunk.index, field) for chunk in graph.chunks]
                )
                for field in ("edge_sources", "edge_targets")
            )
            self.template = ConstrainedSystemTemplate(
                sources, targets, graph.number_of_states
            )
        # edge_chunks skips edgeless chunks; the empty seed keeps an
        # edgeless graph's rate vector well-formed.
        edge_rates = np.concatenate(
            [np.zeros(0)]
            + [rates for _, _, _, rates in graph.edge_chunks(rate_vector)]
        )
        if self.system is None:
            self.system = self.template.fresh_system(edge_rates)
        else:
            self.template.refill(self.system, edge_rates)
        return self.system

    def _superblocks(self) -> list[tuple[int, int]]:
        """Chunk-aligned ``(row_start, row_end)`` runs of ≈superblock width."""
        blocks: list[tuple[int, int]] = []
        start = 0
        for chunk in self.graph.chunks:
            if chunk.row_end - start >= DEFAULT_SUPERBLOCK_ROWS:
                blocks.append((start, chunk.row_end))
                start = chunk.row_end
        if start < self.graph.number_of_states:
            blocks.append((start, self.graph.number_of_states))
        return blocks

    def _factorize(self, system: sparse.csc_matrix) -> sparse_linalg.LinearOperator:
        factors = [
            (
                row_start,
                row_end,
                incomplete_lu(
                    system[row_start:row_end, row_start:row_end],
                    f"the superblock of rows {row_start}-{row_end - 1}",
                ),
            )
            for row_start, row_end in self._superblocks()
        ]

        def apply(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64).ravel()
            y = np.empty_like(x)
            for row_start, row_end, factor in factors:
                y[row_start:row_end] = factor.solve(x[row_start:row_end])
            return y

        return sparse_linalg.LinearOperator(system.shape, matvec=apply)

    def solve(
        self,
        rate_vector: Optional[np.ndarray] = None,
        scenario_index: Optional[int] = None,
    ) -> np.ndarray:
        """Stationary vector for ``rate_vector`` (default: the graph's own).

        Raises:
            KrylovConvergenceError: when even the escalation ladder with
                freshly built factors cannot push the residual below the
                target — there is no denser representation to fall back to,
                so the failure is surfaced instead of a degraded vector.
        """
        graph = self.graph
        n = graph.number_of_states
        if n == 0:
            raise AnalysisError("cannot solve an empty state space")
        if n == 1:
            return np.array([1.0])
        rates = (
            np.asarray(rate_vector, dtype=np.float64)
            if rate_vector is not None
            else graph.rate_vector
        )
        system = self._fill(rates)
        operator = sparse_linalg.aslinearoperator(system)
        best_norm = float("nan")
        for attempt in ("reuse", "rebuild"):
            stale = self._factor_rates is None or not np.array_equal(
                self._factor_rates, rates
            )
            if self.preconditioner is None or (attempt == "rebuild" and stale):
                self.preconditioner = self._factorize(system)
                self._factor_rates = rates.copy()
            elif attempt == "rebuild":
                break  # factors already match these rates; nothing to rebuild
            x0 = None
            if self.warm_start is not None and self.warm_start.shape == (n,):
                x0 = self.warm_start
            solution, best_norm = solvers.steady_state_matrix_free(
                operator,
                self.template.rhs,
                preconditioner=self.preconditioner,
                x0=x0,
                rtol=GMRES_TOLERANCE,
                residual_target=RESIDUAL_TARGET,
            )
            if best_norm <= RESIDUAL_TARGET:
                probabilities = solvers.normalize_distribution(solution)
                self.warm_start = probabilities
                return probabilities
        where = (
            f"scenario {scenario_index}"
            if scenario_index is not None
            else "a scenario"
        )
        raise KrylovConvergenceError(
            f"Krylov ladder (GMRES, BiCGStab, refinement) did not reach the "
            f"residual target {RESIDUAL_TARGET:.1e} on {where} "
            f"(final residual norm {best_norm:.3e})",
            scenario_index=scenario_index,
            residual_norm=best_norm,
            iterations=GMRES_MAX_ITERATIONS,
        )
