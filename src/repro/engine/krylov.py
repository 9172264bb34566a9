"""Factorisation-reusing, warm-started Krylov solver for sweep batches.

The numeric heart of the batch engine, extracted so the serial path of
:class:`~repro.engine.batch.ScenarioBatchEngine`, the process workers of
:mod:`repro.engine.parallel` and the chunked :class:`MatrixFreeSolver` run
*exactly* the same floating-point operations: filling one symbolically
pre-assembled constrained balance system
(:class:`~repro.engine.system.ConstrainedSystemTemplate`), reusing its
incomplete-LU factors as a preconditioner across neighbouring sweep points
and warm-starting each GMRES solve from the previous stationary vector.
Every preconditioner is one :func:`incomplete_lu` of the whole system, in
the generator's state order and without pivoting, at every chain size.
The GMRES policy is fixed by the module constants below.

Stale factors cost iterations as a chain drifts away from the point they
were built at.  One :class:`RefreshSchedule` per solver rebuilds them when
the drift, over the solves still left in the chain, outweighs the cost of a
factorisation; a solve that stalls rebuilds them too.  The schedule decides
from preconditioner-application counts and factor sizes only, never from
clocks.

Given identical scenario chains (same contiguous chunk of sweep points, in
the same order), two :class:`ReusableSolver` instances produce bitwise
identical solutions regardless of which process hosts them or whether the
graph is held in RAM or in chunks —
which is what makes the cross-backend determinism guarantees of the sweep
scheduler testable.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional

import numpy as np
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
#: ranges from 15 (413 states) to 317 (43,904 states).  This estimate is at
#: least 1.09x of that ratio on each of nine case-study systems of 413 to
#: 57,188 states, and up to 32x above it, so it errs towards keeping
#: factors.
FACTOR_NNZ_PER_APPLICATION = 350


def incomplete_lu(matrix):
    """Threshold incomplete LU of ``matrix``: every preconditioner of this module.

    ``spilu`` with the package's options
    (:data:`~repro.markov.solvers.ILU_OPTIONS`): the matrix's own row and
    column order, no pivoting.  ``sparse_linalg`` is looked up at call
    time, so a substituted module (a tracer, a test double) sees every
    factorisation.

    Raises:
        AnalysisError: when the factorisation fails.
    """
    try:
        return sparse_linalg.spilu(matrix, **solvers.ILU_OPTIONS)
    except Exception as error:
        raise AnalysisError(
            f"incomplete LU factorisation of the balance system failed: {error}"
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
    (:meth:`ChunkedGraph.edge_chunks`) and runs :attr:`solver`'s
    :meth:`ReusableSolver.solve_krylov` on them: the in-RAM path's factor,
    GMRES, stop rule and refresh schedule, so both representations return
    bitwise identical vectors.  The system and the factors stay resident;
    the graph's markings and coefficient matrices stay on disk.  (The name
    predates the assembled system and is kept for existing callers.)
    """

    def __init__(self, graph: ChunkedGraph) -> None:
        self.graph = graph
        self.solver: Optional[ReusableSolver] = None

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
            KrylovConvergenceError: when GMRES stalls on factors of the
                current values — there is no denser representation to fall
                back to, so the failure is surfaced instead of a degraded
                vector.
        """
        graph = self.graph
        n = graph.number_of_states
        if n == 0:
            raise AnalysisError("cannot solve an empty state space")
        if n == 1:
            return np.array([1.0])
        if self.solver is None:
            sources, targets = (
                np.concatenate(
                    [graph.chunk_array(chunk.index, field) for chunk in graph.chunks]
                )
                for field in ("edge_sources", "edge_targets")
            )
            self.solver = ReusableSolver(
                ConstrainedSystemTemplate(sources, targets, n)
            )
        # edge_chunks skips edgeless chunks; the empty seed keeps an
        # edgeless graph's rate vector well-formed.
        edge_rates = np.concatenate(
            [np.zeros(0)]
            + [rates for _, _, _, rates in graph.edge_chunks(rate_vector)]
        )
        return self.solver.solve_krylov(
            edge_rates, scenario_index, remaining=remaining
        )
