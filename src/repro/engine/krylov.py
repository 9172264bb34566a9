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

Stale factors cost iterations as a chain drifts away from the point they
were built at.  One :class:`RefreshSchedule` per solver rebuilds them when
the drift, over the solves still left in the chain, outweighs the cost of a
factorisation; a solve that stalls rebuilds them too.  The schedule decides
from preconditioner-application counts and factor sizes only, never from
clocks.

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
from repro.markov.solvers import GMRES_MAX_CYCLES, GMRES_MAX_ITERATIONS, GMRES_RESTART
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


#: Relative GMRES tolerance of every engine solve: tight enough that
#: independently warm-started worker chains agree below 1e-12 on measure
#: values; the warm-started re-solves absorb the extra iterations.  Restart
#: length and iteration bound are the package's (``GMRES_RESTART``,
#: ``GMRES_MAX_ITERATIONS`` in :mod:`repro.markov.solvers`).
GMRES_TOLERANCE = 1e-13

#: Estimated cost of one :func:`incomplete_lu`, in preconditioner
#: applications: ``nnz(L+U) / FACTOR_NNZ_PER_APPLICATION``.  Measured with
#: one BLAS thread, ``spilu``'s time over the time of one GMRES iteration
#: ranges from 18 (413 states) to 4,061 (43,904 states).  This estimate is
#: at least 0.82x of that ratio on each of nine case-study systems of 413 to
#: 57,188 states, and up to 8.8x above it, so it errs towards keeping
#: factors.
FACTOR_NNZ_PER_APPLICATION = 350

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


class RefreshSchedule:
    """When a chain's stale preconditioner is worth rebuilding.

    A ski-rental rule (Karlin, Manasse, Rudolph & Sleator, "Competitive
    snoopy caching", Algorithmica 1988) for preconditioner reuse over a
    sequence of related systems (Parks, de Sturler, Mackey, Johnson &
    Maiti, SIAM J. Sci. Comput. 2006):
    the first solve with inner iterations after a factorisation sets the
    *baseline* count of preconditioner applications, and every later solve
    compares its count with it.  Before a solve, the factors are rebuilt
    when the previous solve's extra applications, expected again on each
    solve after this one, add up to more than one factorisation costs
    (``nnz(L+U) / FACTOR_NNZ_PER_APPLICATION`` applications).  The last
    solve of a chain (``remaining=1``, the default of a lone solve) never
    refreshes.  Every input is a count, so identical chains make identical
    decisions in any process.

    A solve that converges from its warm start without an inner iteration
    (a repeated point: one application, to the right-hand side) says
    nothing about the factors, so it never becomes the baseline.

    :attr:`fresh` tells the solvers that the factors were built from the
    values being solved, so a stall is not worth a second factorisation.
    """

    def __init__(self) -> None:
        #: Whether the factors were built during the current solve.
        self.fresh = False
        self._factor_nnz = 0
        self._baseline: Optional[int] = None
        self._previous: Optional[int] = None

    def due(self, remaining: int) -> bool:
        """Whether to rebuild the factors before this solve.

        Called once per solve, after the system has been refilled: from then
        on the factors describe earlier values, so they are not fresh.
        ``remaining`` counts the chain's solves from this one on.
        """
        self.fresh = False
        if self._baseline is None or self._previous is None:
            return False
        extra = self._previous - self._baseline
        saved = extra * (remaining - 1) * FACTOR_NNZ_PER_APPLICATION
        return saved > self._factor_nnz

    def factored(self, factor_nnz: int) -> None:
        """New factors of ``factor_nnz`` nonzeros, built from the current values."""
        self._factor_nnz = int(factor_nnz)
        self.fresh = True
        self._baseline = self._previous = None

    def solved(self, applications: int) -> None:
        """A converged solve applied the preconditioner ``applications`` times."""
        if self._baseline is None and applications > 1:
            self._baseline = applications
        self._previous = applications


class ReusableSolver:
    """Per-worker numeric state: filled system, preconditioner, warm start.

    One instance serves one contiguous chain of sweep points.  The first
    :meth:`solve` materialises the CSC system from the shared template and
    builds its incomplete LU; subsequent calls only re-fill the numeric
    values and re-use the previous factors as a GMRES preconditioner
    (neighbouring sweep points differ in a handful of rates, so the stale
    factors remain a good preconditioner) with the previous stationary
    vector as the initial guess.  The factors are rebuilt when a solve
    stalls, and when :attr:`schedule` finds the rest of the chain pays for
    a refresh.
    """

    def __init__(self, template: ConstrainedSystemTemplate):
        self.template = template
        self.system = None
        self.preconditioner = None
        self.schedule = RefreshSchedule()
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
        *,
        remaining: int = 1,
    ) -> np.ndarray:
        """Stationary vector via preconditioned GMRES, or raise on stall.

        ``remaining`` counts the solves of this chain from this one on; the
        :class:`RefreshSchedule` uses it to decide whether to rebuild the
        factors first.  If GMRES stalls (:data:`GMRES_MAX_ITERATIONS`
        exhausted or a non-finite iterate) on reused factors, they are
        rebuilt from the current values and the solve retried once; a stall
        on factors of the current values raises
        :class:`KrylovConvergenceError` carrying the scenario index and the
        residual norm of the final iterate — callers decide whether to fall
        back (:meth:`solve` does).
        """
        template = self.template
        if self.system is None:
            self.system = template.fresh_system(edge_rates)
        else:
            template.refill(self.system, edge_rates)
        schedule = self.schedule
        rebuild = schedule.due(remaining) or self.preconditioner is None

        applications = 0

        def precondition(vector: np.ndarray) -> np.ndarray:
            nonlocal applications
            applications += 1
            return self.preconditioner.solve(vector)

        rhs = template.rhs
        x0 = None
        if self.warm_start is not None and self.warm_start.shape == rhs.shape:
            x0 = self.warm_start
        solution = None
        for _ in range(2):  # reused or refreshed factors, then rebuilt ones
            if rebuild:
                self.preconditioner = None  # one set of factors in memory
                self.preconditioner = incomplete_lu(self.system)
                schedule.factored(self.preconditioner.nnz)
            operator = sparse_linalg.LinearOperator(
                self.system.shape, precondition, dtype=np.float64
            )
            applications = 0
            solution, info = sparse_linalg.gmres(
                self.system,
                rhs,
                M=operator,
                x0=x0,
                rtol=GMRES_TOLERANCE,
                atol=0.0,
                restart=GMRES_RESTART,
                maxiter=GMRES_MAX_CYCLES,
            )
            if info == 0 and np.all(np.isfinite(solution)):
                schedule.solved(applications)
                probabilities = solvers.normalize_distribution(
                    np.asarray(solution).ravel()
                )
                self.warm_start = probabilities
                return probabilities
            if schedule.fresh:
                break  # the factors already come from these values
            rebuild = True
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
            f"{GMRES_MAX_ITERATIONS} iteration(s) on factors of its own "
            f"values (final residual norm {residual_norm:.3e})",
            scenario_index=scenario_index,
            residual_norm=residual_norm,
            iterations=GMRES_MAX_ITERATIONS,
        )

    def solve(
        self,
        edge_rates: np.ndarray,
        fallback_generator: Callable[[], object],
        scenario_index: Optional[int] = None,
        *,
        remaining: int = 1,
    ) -> np.ndarray:
        """Stationary vector of the template's system under ``edge_rates``.

        Runs :meth:`solve_krylov` (GMRES on reused, refreshed or rebuilt
        factors; ``remaining`` is its chain position); on
        :class:`KrylovConvergenceError` the
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
            return self.solve_krylov(
                edge_rates, scenario_index=scenario_index, remaining=remaining
            )
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
    preconditioners, refreshed when :attr:`schedule` finds the rest of the
    chain pays for it (counting every block application and the nonzeros
    of all superblock factors) and rebuilt when a solve stalls; convergence
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
        self.schedule = RefreshSchedule()
        self._applications = 0

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

    def _factorize(self, system: sparse.csc_matrix) -> None:
        """Drop the old factors, then factor every superblock of ``system``."""
        self.preconditioner = None  # one set of factors in memory
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
            self._applications += 1
            x = np.asarray(x, dtype=np.float64).ravel()
            y = np.empty_like(x)
            for row_start, row_end, factor in factors:
                y[row_start:row_end] = factor.solve(x[row_start:row_end])
            return y

        self.preconditioner = sparse_linalg.LinearOperator(
            system.shape, matvec=apply, dtype=np.float64
        )
        self.schedule.factored(sum(factor.nnz for _, _, factor in factors))

    def solve(
        self,
        rate_vector: Optional[np.ndarray] = None,
        scenario_index: Optional[int] = None,
        *,
        remaining: int = 1,
    ) -> np.ndarray:
        """Stationary vector for ``rate_vector`` (default: the graph's own).

        ``remaining`` counts the solves of this chain from this one on (see
        :class:`RefreshSchedule`).

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
        schedule = self.schedule
        rebuild = schedule.due(remaining) or self.preconditioner is None
        x0 = None
        if self.warm_start is not None and self.warm_start.shape == (n,):
            x0 = self.warm_start
        for _ in range(2):  # reused or refreshed factors, then rebuilt ones
            if rebuild:
                self._factorize(system)
            self._applications = 0
            solution, best_norm = solvers.steady_state_matrix_free(
                operator,
                self.template.rhs,
                preconditioner=self.preconditioner,
                x0=x0,
                rtol=GMRES_TOLERANCE,
                residual_target=RESIDUAL_TARGET,
            )
            if best_norm <= RESIDUAL_TARGET:
                schedule.solved(self._applications)
                probabilities = solvers.normalize_distribution(solution)
                self.warm_start = probabilities
                return probabilities
            if schedule.fresh:
                break  # the factors already come from these values
            rebuild = True
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
