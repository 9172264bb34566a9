"""Factorisation-reusing, warm-started Krylov solver for sweep batches.

The numeric heart of the batch engine, extracted so the serial path of
:class:`~repro.engine.batch.ScenarioBatchEngine` and the process workers of
:mod:`repro.engine.parallel` run *exactly* the same floating-point
operations: filling one symbolically pre-assembled constrained balance
system (:class:`~repro.engine.system.ConstrainedSystemTemplate`), reusing
its incomplete-LU factors as a preconditioner across neighbouring sweep
points and warm-starting each GMRES solve from the previous stationary
vector.  Both solvers here build every preconditioner with
:func:`incomplete_lu`, one threshold ILU at every chain size.

Given identical scenario chains (same contiguous chunk of sweep points, in
the same order), two :class:`ReusableSolver` instances produce bitwise
identical solutions regardless of which process hosts them —
which is what makes the cross-backend determinism guarantees of the sweep
scheduler testable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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


@dataclass(frozen=True)
class KrylovSettings:
    """GMRES policy shared by every worker of one sweep.

    The values mirror the constructor arguments of
    :class:`~repro.engine.batch.ScenarioBatchEngine`; the dataclass is
    picklable so process workers can be configured through their pool
    initializer.
    """

    gmres_tolerance: float = 1e-13
    gmres_restart: int = 60
    gmres_max_iterations: int = 2000


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

    def __init__(self, template: ConstrainedSystemTemplate, settings: KrylovSettings):
        self.template = template
        self.settings = settings
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

        settings = self.settings
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
                rtol=settings.gmres_tolerance,
                atol=0.0,
                restart=settings.gmres_restart,
                maxiter=settings.gmres_max_iterations,
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
            f"{settings.gmres_max_iterations} iteration(s) with a rebuilt "
            f"factorisation (final residual norm {residual_norm:.3e})",
            scenario_index=scenario_index,
            residual_norm=residual_norm,
            iterations=settings.gmres_max_iterations,
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


#: Default superblock width of the matrix-free block-Jacobi preconditioner.
#: It bounds the memory of each block's incomplete-LU factors independently
#: of the total state count.
DEFAULT_SUPERBLOCK_ROWS = 16_384


class MatrixFreeSolver:
    """Out-of-core steady-state solver over a :class:`ChunkedGraph`.

    The constrained balance system ``A x = b`` (``A = Qᵀ`` with the last row
    replaced by the normalisation constraint — exactly the system
    :class:`~repro.engine.system.ConstrainedSystemTemplate` assembles) is
    applied as a :class:`scipy.sparse.linalg.LinearOperator` that streams the
    graph's chunk files per matvec, so the generator is never materialised.

    Preconditioning is block-Jacobi over *superblocks* — runs of consecutive
    chunks merged to roughly :data:`DEFAULT_SUPERBLOCK_ROWS` rows.  Because
    chunks partition the states by source row, a superblock's in-block
    entries come only from its own chunks (targets filtered to the block),
    so the factor build streams the graph once.  Each block gets the same
    :func:`incomplete_lu` as the in-RAM solver; a block whose factorisation
    fails raises :class:`~repro.exceptions.AnalysisError`.  Like
    :class:`ReusableSolver`, factors are reused across sweep points as
    stale-but-good preconditioners and only rebuilt when a solve stalls;
    convergence escalates GMRES → BiCGStab → iterative refinement
    (:func:`repro.markov.solvers.steady_state_matrix_free`) before giving up
    with an honest :class:`KrylovConvergenceError`.
    """

    def __init__(
        self,
        graph: ChunkedGraph,
        settings: KrylovSettings = KrylovSettings(),
        *,
        superblock_rows: int = DEFAULT_SUPERBLOCK_ROWS,
        residual_target: float = 1e-14,
    ) -> None:
        self.graph = graph
        self.settings = settings
        self.superblock_rows = max(1, superblock_rows)
        self.residual_target = residual_target
        self.warm_start: Optional[np.ndarray] = None
        self.preconditioner = None
        self._factor_rates: Optional[np.ndarray] = None
        n = graph.number_of_states
        self.rhs = np.zeros(n)
        if n:
            self.rhs[n - 1] = 1.0

    # --- operator ----------------------------------------------------------

    def _operator(
        self, rate_vector: np.ndarray, exit_rates: np.ndarray
    ) -> sparse_linalg.LinearOperator:
        graph = self.graph
        n = graph.number_of_states

        def matvec(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64).ravel()
            y = np.zeros(n)
            for _, sources, targets, rates in graph.edge_chunks(rate_vector):
                y += np.bincount(targets, weights=rates * x[sources], minlength=n)
            y -= exit_rates * x
            y[n - 1] = x.sum()  # the replaced normalisation row
            return y

        return sparse_linalg.LinearOperator((n, n), matvec=matvec)

    # --- preconditioner -----------------------------------------------------

    def _superblocks(self) -> list[tuple[int, int, list[int]]]:
        """``(row_start, row_end, chunk_indices)`` runs of ≈superblock_rows."""
        blocks: list[tuple[int, int, list[int]]] = []
        members: list[int] = []
        start = 0
        for chunk in self.graph.chunks:
            if not members:
                start = chunk.row_start
            members.append(chunk.index)
            if chunk.row_end - start >= self.superblock_rows:
                blocks.append((start, chunk.row_end, members))
                members = []
        if members:
            blocks.append((start, self.graph.chunks[members[-1]].row_end, members))
        return blocks

    def _factorize(
        self, rate_vector: np.ndarray, exit_rates: np.ndarray
    ) -> sparse_linalg.LinearOperator:
        graph = self.graph
        n = graph.number_of_states
        factors: list[tuple[int, int, object]] = []
        for row_start, row_end, members in self._superblocks():
            width = row_end - row_start
            rows: list[np.ndarray] = []
            cols: list[np.ndarray] = []
            vals: list[np.ndarray] = []
            for index in members:
                chunk = graph.chunks[index]
                if chunk.edge_count == 0:
                    continue
                sources = graph.chunk_array(index, "edge_sources")
                targets = graph.chunk_array(index, "edge_targets")
                rates = np.asarray(
                    graph.chunk_ecm(index).T.dot(rate_vector)
                ).ravel()
                inside = (targets >= row_start) & (targets < row_end)
                rows.append(targets[inside] - row_start)
                cols.append(sources[inside] - row_start)
                vals.append(rates[inside])
            diagonal = np.arange(width, dtype=np.int64)
            rows.append(diagonal)
            cols.append(diagonal)
            vals.append(-exit_rates[row_start:row_end])
            row_ids = np.concatenate(rows)
            col_ids = np.concatenate(cols)
            values = np.concatenate(vals)
            if row_end == n:
                # This block hosts the replaced normalisation row: drop its
                # balance entries and overwrite with the in-block ones row.
                keep = row_ids != width - 1
                row_ids = np.concatenate(
                    [row_ids[keep], np.full(width, width - 1, dtype=np.int64)]
                )
                col_ids = np.concatenate(
                    [col_ids[keep], np.arange(width, dtype=np.int64)]
                )
                values = np.concatenate([values[keep], np.ones(width)])
            block = sparse.coo_matrix(
                (values, (row_ids, col_ids)), shape=(width, width)
            ).tocsc()
            factor = incomplete_lu(
                block, f"the superblock of rows {row_start}-{row_end - 1}"
            )
            factors.append((row_start, row_end, factor))

        def apply(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64).ravel()
            y = np.empty_like(x)
            for row_start, row_end, factor in factors:
                y[row_start:row_end] = factor.solve(x[row_start:row_end])
            return y

        return sparse_linalg.LinearOperator((n, n), matvec=apply)

    # --- solving ------------------------------------------------------------

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
        exit_rates = graph.exit_rates(rates)
        operator = self._operator(rates, exit_rates)
        settings = self.settings
        best_norm = float("nan")
        for attempt in ("reuse", "rebuild"):
            stale = self._factor_rates is None or not np.array_equal(
                self._factor_rates, rates
            )
            if self.preconditioner is None or (attempt == "rebuild" and stale):
                self.preconditioner = self._factorize(rates, exit_rates)
                self._factor_rates = rates.copy()
            elif attempt == "rebuild":
                break  # factors already match these rates; nothing to rebuild
            x0 = None
            if self.warm_start is not None and self.warm_start.shape == (n,):
                x0 = self.warm_start
            solution, best_norm = solvers.steady_state_matrix_free(
                operator,
                self.rhs,
                preconditioner=self.preconditioner,
                x0=x0,
                rtol=settings.gmres_tolerance,
                restart=max(settings.gmres_restart, 100),
                residual_target=self.residual_target,
            )
            if best_norm <= self.residual_target:
                probabilities = solvers.normalize_distribution(solution)
                self.warm_start = probabilities
                return probabilities
        where = (
            f"scenario {scenario_index}"
            if scenario_index is not None
            else "a scenario"
        )
        raise KrylovConvergenceError(
            f"matrix-free Krylov ladder (GMRES, BiCGStab, refinement) did not "
            f"reach the residual target {self.residual_target:.1e} on {where} "
            f"(final residual norm {best_norm:.3e})",
            scenario_index=scenario_index,
            residual_norm=best_norm,
            iterations=settings.gmres_max_iterations,
        )
