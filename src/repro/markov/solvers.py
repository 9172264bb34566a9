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
  default for large chains.  The factor keeps the chain's state order and
  does not pivot (:data:`ILU_OPTIONS`); the batch engine's solvers build
  theirs from the same options.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.exceptions import AnalysisError

_DEFAULT_TOLERANCE = 1e-12

#: ``spilu`` options of every incomplete LU in the package (this module's
#: ``gmres_ilu`` path and :func:`repro.engine.krylov.incomplete_lu`).  The
#: factor keeps the generator's state order (breadth-first waves from the
#: initial marking) and never pivots.  Both are sound on the constrained
#: balance system: its first n−1 rows and columns are the negative of a
#: nonsingular M-matrix (an irreducible chain's sub-generator), which has
#: an incomplete LU without pivoting (Meijerink & van der Vorst, Math.
#: Comp. 1977; Saad, *Iterative Methods for Sparse Linear Systems*, 2003,
#: ch. 10), and only the last pivot involves the dense ``Σ x = 1`` row.
#: Threshold pivoting would pull that row up wherever an exit rate is
#: small and fill the factor.  At the 3e-4 drop tolerance the factors of
#: nine case-study chains of 413 to 57,188 states hold 1.6-3.2x the
#: nonzeros of the system, and GMRES still reaches a relative residual of
#: 1e-13 on them.
ILU_DROP_TOLERANCE = 3e-4
ILU_OPTIONS = {
    "drop_tol": ILU_DROP_TOLERANCE,
    "fill_factor": 20.0,
    "permc_spec": "NATURAL",
    "diag_pivot_thresh": 0.0,
}

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


def _steady_state_gmres_ilu(matrix: sparse.csr_matrix, tolerance: float) -> np.ndarray:
    """Incomplete-LU preconditioned GMRES on the constrained balance equations."""
    system, rhs = constrained_balance_system(matrix)
    try:
        preconditioner = sparse_linalg.spilu(system, **ILU_OPTIONS)
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
