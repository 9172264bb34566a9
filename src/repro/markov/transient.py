"""Transient analysis of CTMCs by uniformization (Jensen's method).

Uniformization converts the CTMC with generator ``Q`` into a DTMC with
transition matrix ``P = I + Q / Λ`` (``Λ ≥ max_i |q_ii|``) subordinated to a
Poisson process of rate ``Λ``.  The state distribution at time ``t`` is then

    π(t) = Σ_k PoissonPMF(k; Λt) · π(0) P^k

truncated once the Poisson tail mass drops below :data:`TOLERANCE`.

:func:`transient_reward_block` is the package's one transient kernel:
uniformization vectorized over a whole ``(S, n)`` scenario block that shares
one state-space structure and differs only in edge rates (the shape produced
by the scenario-batch engine).  Scenarios are grouped into *rate regimes*
(uniformization rates within a bounded factor of each other) so each group
shares a single uniformization rate, one Poisson-weight table and one
truncation point; the group's DTMC step is **one** sparse mat-vec on a
block-diagonal matrix (every scenario advances simultaneously at C level)
and the reward projection of each step is one ``(G, n) @ (n, m)`` GEMM.
Point values *and* interval (time-averaged) values come out of the same
power iteration:

    E[r(X_t)]            = Σ_k PoissonPMF(k; Λt)        · π₀ Pᵏ r
    (1/t)∫₀ᵗ E[r(X_u)]du = (1/t) Σ_k P(N_Λt ≥ k+1)/Λ    · π₀ Pᵏ r

(the second identity is Jensen's method applied to the expected sojourn of
the subordinating Poisson process in state ``k``).  The Poisson weights and
the truncation point come from ``scipy.special``'s incomplete-gamma
functions, term for term the evaluation of scipy's ``poisson`` distribution,
without loading scipy's statistics package (Fox & Glynn, "Computing Poisson
probabilities", CACM 1988, for the truncation bound).
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable

import numpy as np
from scipy import sparse

from repro.exceptions import AnalysisError

#: Poisson tail mass left out of every truncated uniformization series.
TOLERANCE = 1e-12


def _poisson_truncation_point(rate_time: float) -> int:
    """Smallest k such that the Poisson(rate_time) tail beyond k is < TOLERANCE.

    The quantile is inverted through the regularized incomplete gamma
    function (``pdtrik``, corrected by one ``pdtr`` step, as scipy's
    ``poisson.isf`` does), which works in log space: the naive
    ``pmf *= rate_time / k`` recurrence starts from ``exp(-rate_time)``,
    which underflows to zero beyond ``rate_time ≈ 745`` and silently
    inflated the truncation point ~4x for long mission windows.
    """
    if rate_time <= 0.0:
        return 0
    # Imported here, like every scipy submodule no grid run executes.
    from scipy import special

    mean = np.float64(rate_time)
    level = 1.0 - np.float64(TOLERANCE)
    point = np.ceil(special.pdtrik(level, mean))
    below = np.maximum(point - 1.0, 0.0)
    if special.pdtr(below, mean) >= level:
        point = below
    if not math.isfinite(point):  # pragma: no cover - degenerate quantile
        point = rate_time + 10.0 * math.sqrt(rate_time) + 20.0
    # The quantile is the smallest k with sf(k) <= TOLERANCE; one extra term
    # keeps the bound conservative at the discrete boundary.
    return int(point) + 1


def _poisson_weights(mu: np.ndarray, truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """``(T, K)`` Poisson pmf and survival-function tables for ``k <= truncation``.

    ``exp(xlogy(k, μ) − gammaln(k + 1) − μ)`` and ``pdtrc(k, μ)``, clipped
    to ``[0, 1]``: the pmf and sf that scipy's ``poisson`` evaluates, term
    for term.
    """
    from scipy import special

    k = np.arange(truncation + 1)[None, :]
    mu = mu[:, None]
    log_pmf = special.xlogy(k, mu) - special.gammaln(k + 1) - mu
    return np.clip(np.exp(log_pmf), 0.0, 1.0), np.clip(special.pdtrc(k, mu), 0.0, 1.0)


#: Scenarios whose uniformization rates differ by more than this factor are
#: placed in different regimes (a shared rate would inflate the slow
#: scenarios' truncation point by the same factor).
DEFAULT_REGIME_FACTOR = 4.0

#: Upper bound on the non-zeros of one block-diagonal group matrix; groups
#: are split beyond it so arbitrarily large batches run in bounded memory.
#: The same bound caps a group's ``(T, K)`` Poisson weight tables: a window
#: that needs more entries is refused instead of exhausting memory.
MAX_GROUP_ENTRIES = 8_000_000


def _validated_initial(pi0, n: int) -> np.ndarray:
    pi0 = np.asarray(pi0, dtype=float).ravel()
    if pi0.shape != (n,):
        raise AnalysisError(
            f"initial distribution has shape {pi0.shape}, expected ({n},)"
        )
    if abs(pi0.sum() - 1.0) > 1e-8 or np.any(pi0 < -1e-12):
        raise AnalysisError("initial distribution must be a probability vector")
    return pi0


def _rate_regime_groups(
    lambdas: np.ndarray,
    entries_per_scenario: int,
    factor: float,
    entry_bound: int,
) -> list[np.ndarray]:
    """Scenario index groups sharing one uniformization rate each.

    Scenarios are sorted by their individual uniformization rate and split
    greedily whenever the spread inside a group would exceed
    ``factor`` (bounding the truncation-point inflation of sharing the
    group maximum) or the group's block-diagonal matrix would exceed
    ``entry_bound`` non-zeros (bounding memory).
    """
    order = np.argsort(lambdas, kind="stable")
    max_size = max(1, entry_bound // max(1, entries_per_scenario))
    groups: list[np.ndarray] = []
    start = 0
    for i in range(1, len(order) + 1):
        if (
            i == len(order)
            or lambdas[order[i]] > factor * max(lambdas[order[start]], 1e-300)
            or i - start >= max_size
        ):
            groups.append(order[start:i])
            start = i
    return groups


def transient_reward_block(
    edge_sources: np.ndarray,
    edge_targets: np.ndarray,
    number_of_states: int,
    edge_rate_block: np.ndarray,
    initial_distribution,
    times,
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    measure_count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched point + interval rewards over a shared-structure scenario block.

    Args:
        edge_sources / edge_targets: shared ``(E,)`` edge index arrays
            (self-loop-free, as stored by the tangible reachability graph).
        number_of_states: ``n`` of the shared state space.
        edge_rate_block: ``(S, E)`` per-scenario edge rates.
        initial_distribution: shared ``(n,)`` probability vector at time 0.
        times: ``(T,)`` non-negative evaluation times.
        evaluate: callback mapping a ``(G, n)`` distribution block and the
            ``(G,)`` scenario indices it belongs to onto ``(G, m)`` measure
            values (the engine passes ``RewardMatrix.evaluate`` with the
            per-scenario rate rows, so throughput columns scale correctly).
        measure_count: ``m``, the number of measure columns.

    Returns:
        ``(point, interval, seconds)`` — ``(S, T, m)`` instantaneous values,
        ``(S, T, m)`` interval (time-averaged over ``[0, t]``) values and
        ``(S,)`` per-scenario compute seconds.  At ``t = 0`` the interval
        value is defined as the point value (its limit).

    Raises:
        AnalysisError: on malformed inputs, and when the fastest regime's
            ``(T, K)`` Poisson weight tables would exceed
            :data:`MAX_GROUP_ENTRIES` entries (checked before any group
            runs, so an over-long window is refused in bounded memory).
    """
    n = int(number_of_states)
    edge_sources = np.asarray(edge_sources, dtype=np.int64)
    edge_targets = np.asarray(edge_targets, dtype=np.int64)
    edge_rate_block = np.atleast_2d(np.asarray(edge_rate_block, dtype=np.float64))
    scenarios, edges = edge_rate_block.shape
    if edges != edge_sources.size:
        raise AnalysisError(
            f"edge-rate block has {edges} columns, expected {edge_sources.size}"
        )
    if np.any(edge_rate_block < 0.0):
        raise AnalysisError("edge rates must be non-negative")
    pi0 = _validated_initial(initial_distribution, n)
    times = np.asarray(times, dtype=np.float64).ravel()
    if times.size == 0:
        raise AnalysisError("at least one evaluation time is required")
    if np.any(times < 0.0):
        raise AnalysisError("evaluation times must be non-negative")

    # Per-scenario exit rates (S, n) in one sparse product, then the
    # individual uniformization rates (with 2% headroom).
    if edges:
        source_incidence = sparse.csr_matrix(
            (np.ones(edges), (np.arange(edges), edge_sources)),
            shape=(edges, n),
        )
        exit_block = edge_rate_block @ source_incidence
    else:
        exit_block = np.zeros((scenarios, n))
    lambdas = 1.02 * exit_block.max(axis=1)

    # The fastest regime needs the longest series: refuse its tables up
    # front rather than after the slower groups have run.
    fastest = float(lambdas.max(initial=0.0))
    terms = _poisson_truncation_point(float((fastest * times).max())) + 1
    if times.size * terms > MAX_GROUP_ENTRIES:
        raise AnalysisError(
            f"a transient window of {float(times.max()):g} at uniformization "
            f"rate Λ = {fastest:.6g} needs {terms:,} Poisson terms: "
            f"{times.size} time point(s) x {terms:,} terms exceed the bound of "
            f"{MAX_GROUP_ENTRIES:,} weight-table entries"
        )

    point = np.zeros((scenarios, times.size, measure_count))
    interval = np.zeros_like(point)
    seconds = np.zeros(scenarios)

    for group in _rate_regime_groups(
        lambdas, edges + n, DEFAULT_REGIME_FACTOR, MAX_GROUP_ENTRIES
    ):
        started = perf_counter()
        group = np.asarray(group, dtype=np.int64)
        g = group.size
        rate = float(lambdas[group].max())
        if rate <= 0.0:
            # No transitions can fire: the distribution is constant.
            values = evaluate(np.tile(pi0, (g, 1)), group)
            point[group] = values[:, None, :]
            interval[group] = values[:, None, :]
            seconds[group] = (perf_counter() - started) / g
            continue

        # Shared Poisson weights: pmf for point values, survival function
        # (tail mass, i.e. expected sojourn x rate) for interval values.
        mu = rate * times
        truncation = _poisson_truncation_point(float(mu.max()))
        pmf, tail = _poisson_weights(mu, truncation)
        # Normalise away the truncated tail so the weights of every time
        # point sum to 1 (point) and to t (interval; the division below
        # folds the 1/t of the time average in directly).
        pmf_total = pmf.sum(axis=1)
        point_weights = pmf / np.where(pmf_total > 0.0, pmf_total, 1.0)[:, None]
        tail_total = tail.sum(axis=1)
        positive = tail_total > 0.0
        interval_weights = np.where(
            positive[:, None], tail / np.where(positive, tail_total, 1.0)[:, None],
            point_weights,
        )

        # Transposed block-diagonal uniformized DTMC matrix: one sparse
        # mat-vec advances every scenario of the group simultaneously.
        offsets = np.arange(g)[:, None] * n
        rows = np.concatenate(
            [
                (edge_targets[None, :] + offsets).ravel(),
                (np.arange(n)[None, :] + offsets).ravel(),
            ]
        )
        cols = np.concatenate(
            [
                (edge_sources[None, :] + offsets).ravel(),
                (np.arange(n)[None, :] + offsets).ravel(),
            ]
        )
        data = np.concatenate(
            [
                (edge_rate_block[group] / rate).ravel(),
                (1.0 - exit_block[group] / rate).ravel(),
            ]
        )
        step = sparse.coo_matrix((data, (rows, cols)), shape=(g * n, g * n)).tocsr()

        term = np.tile(pi0, g)
        group_point = np.zeros((g, times.size, measure_count))
        group_interval = np.zeros_like(group_point)
        for k in range(truncation + 1):
            values = evaluate(term.reshape(g, n), group)
            group_point += values[:, None, :] * point_weights[None, :, k, None]
            group_interval += values[:, None, :] * interval_weights[None, :, k, None]
            if k < truncation:
                term = step.dot(term)
        point[group] = group_point
        interval[group] = group_interval
        seconds[group] = (perf_counter() - started) / g
    return point, interval, seconds

