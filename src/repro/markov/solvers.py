"""Linear-algebra solvers for stationary distributions.

Three solver families are provided:

* ``direct``  — sparse LU factorisation of the constrained balance equations;
  robust and exact up to round-off, the default for small / medium chains.
* ``gth``     — the Grassmann–Taksar–Heyman elimination, which avoids
  subtractive cancellation and is the most numerically stable choice for
  stiff chains (the disaster models are extremely stiff: disaster rates are
  ~1/876000 h⁻¹ while immediate repairs are minutes).  Dense, O(n³), so only
  used for small chains.
* ``gmres_ilu`` — GMRES preconditioned by a threshold incomplete LU, the
  default for large chains.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.exceptions import AnalysisError

_DEFAULT_TOLERANCE = 1e-12

#: Drop tolerance and fill factor of every incomplete-LU preconditioner in
#: the package (this module's ``gmres_ilu`` path and the engine's reusable
#: and chunked Krylov solvers).  At 1e-4 the COLAMD-ordered factors of
#: the case-study chains hold 2-3.5x the nonzeros of the system, against
#: 31-96x for a complete LU, and GMRES still reaches a relative residual of
#: 1e-13 on them.
ILU_DROP_TOLERANCE = 1e-4
ILU_FILL_FACTOR = 20.0

#: Restart length and inner-iteration bound of every GMRES solve in the
#: package (this module's ``gmres_ilu`` path and the engine's reusable
#: solver).  scipy's ``maxiter`` counts restart cycles, hence
#: ``GMRES_MAX_CYCLES``.
GMRES_RESTART = 60
GMRES_MAX_ITERATIONS = 2000
GMRES_MAX_CYCLES = math.ceil(GMRES_MAX_ITERATIONS / GMRES_RESTART)

#: Largest chain the ``auto`` rule (here and in the batch engine) solves
#: with dense GTH elimination.
GTH_MAX_STATES = 200


def _as_csr(generator) -> sparse.csr_matrix:
    matrix = sparse.csr_matrix(generator, dtype=float)
    if matrix.shape[0] != matrix.shape[1]:
        raise AnalysisError(f"generator matrix must be square, got shape {matrix.shape}")
    return matrix


def steady_state(
    generator,
    method: str = "auto",
    tolerance: float = _DEFAULT_TOLERANCE,
) -> np.ndarray:
    """Stationary distribution ``π`` with ``π Q = 0`` and ``Σ π = 1``.

    Args:
        generator: CTMC generator matrix (dense or sparse), shape ``(n, n)``.
        method: ``"auto"``, ``"direct"``, ``"gth"`` or ``"gmres_ilu"``.
            ``"auto"`` picks GTH up to :data:`GTH_MAX_STATES` states, the
            sparse direct solver up to 20,000 states and ILU-preconditioned
            GMRES beyond that.
        tolerance: convergence tolerance for ``gmres_ilu``, which stops
            after :data:`GMRES_MAX_ITERATIONS` inner iterations.

    Returns:
        The stationary probability vector of length ``n``.

    Raises:
        AnalysisError: if the method is unknown, the matrix is not a valid
            generator, or GMRES fails to converge.
    """
    matrix = _as_csr(generator)
    n = matrix.shape[0]
    if n == 0:
        raise AnalysisError("cannot compute the stationary distribution of an empty chain")
    if n == 1:
        return np.array([1.0])

    if method == "auto":
        if n <= GTH_MAX_STATES:
            method = "gth"
        elif n <= 20_000:
            method = "direct"
        else:
            # Large stiff chains: incomplete-LU preconditioned GMRES scales
            # far better than a complete sparse factorisation here.
            method = "gmres_ilu"

    if method == "gth":
        return _steady_state_gth(matrix.toarray())
    if method == "direct":
        return _steady_state_direct(matrix)
    if method == "gmres_ilu":
        return _steady_state_gmres_ilu(matrix, tolerance)
    raise AnalysisError(f"unknown steady-state method {method!r}")


def normalize_distribution(vector: np.ndarray) -> np.ndarray:
    """Clip tiny negative round-off and rescale ``vector`` to sum to one.

    Raises:
        AnalysisError: if the vector has no positive mass or is non-finite.
    """
    vector = np.where(np.abs(vector) < 1e-300, 0.0, vector)
    vector = np.clip(vector, 0.0, None)
    total = vector.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise AnalysisError("steady-state solver produced a non-normalisable vector")
    return vector / total


_normalise = normalize_distribution


def constrained_balance_system(
    matrix: sparse.spmatrix,
) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Build the linear system ``A x = b`` whose solution is the stationary vector.

    ``A`` is ``Q^T`` with the last balance equation replaced by the
    normalisation constraint ``Σ x = 1``.  Shared by the direct and the
    preconditioned-Krylov solvers (and by callers that want to reuse a
    preconditioner across several related systems).
    """
    matrix = _as_csr(matrix)
    n = matrix.shape[0]
    transposed = matrix.transpose().tolil()
    transposed[n - 1, :] = np.ones(n)
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    return transposed.tocsc(), rhs


def steady_state_matrix_free(
    operator,
    rhs: np.ndarray,
    *,
    preconditioner=None,
    x0: np.ndarray | None = None,
    rtol: float = 1e-13,
    restart: int = 100,
    max_restart_cycles: int = 30,
    bicgstab_iterations: int = 2000,
    residual_target: float = 1e-12,
    refinement_rounds: int = 5,
) -> tuple[np.ndarray, float]:
    """Solve ``A x = rhs`` given only ``A``'s action.

    The numeric core of the chunked solve path: ``operator`` is any
    :class:`scipy.sparse.linalg.LinearOperator` of the constrained balance
    system (the engine wraps its filled system).  Escalation ladder:

    1. restarted GMRES (optionally preconditioned, warm-started);
    2. BiCGStab from the best iterate if GMRES stalls;
    3. iterative refinement — solve the residual equation ``A δ = r`` and
       correct — until ``‖rhs − A x‖₂ ≤ residual_target`` or the residual
       stops improving.

    Returns the best iterate found and its true (recomputed) residual
    2-norm; the *caller* decides whether that residual is good enough —
    this function only raises on non-finite breakdowns.
    """
    rhs = np.asarray(rhs, dtype=np.float64)

    def true_residual(x: np.ndarray) -> float:
        return float(np.linalg.norm(operator.matvec(x) - rhs))

    best: np.ndarray | None = None
    best_norm = np.inf

    def consider(candidate) -> None:
        nonlocal best, best_norm
        if candidate is None:
            return
        candidate = np.asarray(candidate, dtype=np.float64).ravel()
        if not np.all(np.isfinite(candidate)):
            return
        norm = true_residual(candidate)
        if norm < best_norm:
            best, best_norm = candidate, norm

    if x0 is not None:
        consider(x0)
    solution, _ = sparse_linalg.gmres(
        operator,
        rhs,
        M=preconditioner,
        x0=x0,
        rtol=rtol,
        atol=0.0,
        restart=restart,
        maxiter=max_restart_cycles,
    )
    consider(solution)
    if best_norm > residual_target:
        solution, _ = sparse_linalg.bicgstab(
            operator,
            rhs,
            M=preconditioner,
            x0=best,
            rtol=rtol,
            atol=0.0,
            maxiter=bicgstab_iterations,
        )
        consider(solution)
    for _ in range(refinement_rounds):
        if best is None or best_norm <= residual_target:
            break
        residual = rhs - operator.matvec(best)
        correction, _ = sparse_linalg.gmres(
            operator,
            residual,
            M=preconditioner,
            rtol=1e-8,
            atol=0.0,
            restart=restart,
            maxiter=max(1, max_restart_cycles // 3),
        )
        previous = best_norm
        consider(best + np.asarray(correction).ravel())
        if best_norm >= previous * 0.5:
            break  # refinement has stopped paying for its matvecs
    if best is None:
        raise AnalysisError(
            "matrix-free Krylov solve produced no finite iterate"
        )
    return best, best_norm


def _steady_state_gmres_ilu(matrix: sparse.csr_matrix, tolerance: float) -> np.ndarray:
    """Incomplete-LU preconditioned GMRES on the constrained balance equations."""
    system, rhs = constrained_balance_system(matrix)
    try:
        preconditioner = sparse_linalg.spilu(
            system, drop_tol=ILU_DROP_TOLERANCE, fill_factor=ILU_FILL_FACTOR
        )
    except Exception as error:  # pragma: no cover - scipy-specific failures
        raise AnalysisError(f"ILU preconditioner construction failed: {error}") from error
    operator = sparse_linalg.LinearOperator(
        system.shape, preconditioner.solve, dtype=np.float64
    )
    solution, info = sparse_linalg.gmres(
        system,
        rhs,
        M=operator,
        rtol=min(tolerance, 1e-10),
        atol=0.0,
        restart=GMRES_RESTART,
        maxiter=GMRES_MAX_CYCLES,
    )
    if info != 0:
        raise AnalysisError(
            f"preconditioned GMRES did not converge (scipy info code {info})"
        )
    if not np.all(np.isfinite(solution)):
        raise AnalysisError("preconditioned GMRES produced non-finite values")
    return _normalise(np.asarray(solution).ravel())


def _steady_state_direct(matrix: sparse.csr_matrix) -> np.ndarray:
    system, rhs = constrained_balance_system(matrix)
    try:
        solution = sparse_linalg.spsolve(system, rhs)
    except Exception as error:  # pragma: no cover - scipy-specific failures
        raise AnalysisError(f"sparse direct steady-state solve failed: {error}") from error
    if not np.all(np.isfinite(solution)):
        raise AnalysisError("sparse direct steady-state solve produced non-finite values")
    return _normalise(np.asarray(solution).ravel())


def _steady_state_gth(q: np.ndarray) -> np.ndarray:
    """Grassmann–Taksar–Heyman elimination on a dense generator copy."""
    n = q.shape[0]
    matrix = q.astype(float).copy()
    # Forward elimination.
    for k in range(n - 1, 0, -1):
        scale = matrix[k, :k].sum()
        if scale <= 0.0:
            # State k is unreachable from below at this elimination stage;
            # treat its contribution as zero mass.
            matrix[k, :k] = 0.0
            continue
        matrix[:k, k] /= scale
        # Rank-1 update: fold state k's outgoing mass back into the leading
        # k×k block in one outer product instead of a per-column Python loop.
        matrix[:k, :k] += np.outer(matrix[:k, k], matrix[k, :k])
    # Back substitution.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = float(np.dot(pi[:k], matrix[:k, k]))
    return _normalise(pi)
