"""Scenario-batch evaluation engine.

``ScenarioBatchEngine`` solves a *family* of scenarios that share one
tangible reachability graph and differ only in timed transition rates (the
shape of the paper's Figure 7 sweep and Table VII baselines, and of any
sensitivity or capacity sweep).  It takes the graph ready-made — the grid
orchestrator (:mod:`repro.engine.grid`) or
:func:`repro.engine.cache.load_or_generate` obtains it — and then:

* each scenario re-rates the graph with one vectorized sparse mat-vec over
  the stacked coefficient matrices (:mod:`repro.spn.parametric`);
* the constrained balance system is assembled **symbolically once**
  (:class:`~repro.engine.system.ConstrainedSystemTemplate`) and only its
  numeric values are re-filled per scenario;
* above the GTH cutoff one incomplete-LU preconditioner is reused across
  scenarios and each solve warm-starts from the previous solution —
  neighbouring sweep points have nearly identical stationary vectors;
* scenarios whose resolved rate vectors are bit-identical are solved once
  and share the stationary vector;
* how the solves run is one static rule, never a setting: the requested
  worker count is clamped to the effective CPU cores, and the solves fan
  out over the zero-copy shared-memory scheduler of
  :mod:`repro.engine.parallel` (each worker process takes a *contiguous*
  chunk of sweep points) only when every worker gets at least
  :data:`MIN_SCENARIOS_PER_WORKER` of them; otherwise they run serially,
  chaining solver state across the whole sweep — on a single effective
  core always, so ``--jobs 8`` can never make a sweep slower than
  ``--jobs 1``;
* the reward measures of a whole batch are evaluated with one
  ``(S, n) @ (n, m)`` GEMM (:mod:`repro.engine.measures`) instead of
  ``S × m`` Python-level dot products, however the solves ran;
* :meth:`ScenarioBatchEngine.run_transient` runs the same scenario block
  through batched uniformization (:func:`repro.markov.transient.
  transient_reward_block`), returning point and interval (mission-window)
  measure values over a time grid.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.engine import dispatch
from repro.engine.krylov import MatrixFreeSolver, ReusableSolver
from repro.engine.measures import RewardMatrix
from repro.engine.parallel import SharedMemoryUnavailable, SweepScheduler
from repro.markov.transient import transient_reward_block
from repro.engine.system import ConstrainedSystemTemplate
from repro.exceptions import AnalysisError
from repro.markov import solvers
from repro.spn.analysis import SteadyStateSolution
from repro.spn.ctmc_export import generator_matrix
from repro.spn.parametric import delays_to_rates, rate_vector_with_overrides
from repro.spn.reachability import TangibleReachabilityGraph
from repro.spn.rewards import Measure, validate_measures
from repro.statespace.chunked import ChunkedGraph

GraphLike = Union[TangibleReachabilityGraph, ChunkedGraph]

#: Fewest solves each worker process must take before a batch fans out.
#: Every worker of a fan-out pays its own factorisation, plus pool start-up
#: and shared-segment packing, and only a run of warm re-solves pays that
#: back: at 3,048 states, with one BLAS thread, a cold
#: (factorising) solve measured 18 ms and a warm re-solve 3.8 ms on average
#: over a 105-case Figure 7 chain, its factor refreshes included.  With 8,
#: the 210-case Figure 7 sweep fans out over two workers, while the 2-case
#: mesh groups and the 8-case two-data-center groups of the benchmark stay
#: serial.
MIN_SCENARIOS_PER_WORKER = 8

#: Upper bound on the stacked ``(S, n)`` solution block a single dispatch may
#: allocate (2 GiB).  Larger batches are evaluated as consecutive sub-batches
#: of contiguous sweep order, so arbitrarily long sweeps run in bounded
#: memory instead of materialising one enormous block.
MAX_SOLUTION_BLOCK_BYTES = 2 << 30


@dataclass(frozen=True)
class ScenarioSpec:
    """One point of a batch: named rate/delay overrides on the shared structure.

    ``delays`` are mean times (the paper's MTTF/MTTR/MTT convention) and are
    inverted into rates; explicit ``rates`` take precedence when both mention
    the same transition.
    """

    name: str
    rates: Mapping[str, float] = field(default_factory=dict)
    delays: Mapping[str, float] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def resolved_rates(self) -> dict[str, float]:
        resolved = delays_to_rates(self.delays)
        resolved.update({name: float(value) for name, value in self.rates.items()})
        return resolved


@dataclass
class ScenarioResult:
    """Measures of one evaluated scenario plus solve bookkeeping.

    ``solve_source`` records how the stationary vector was obtained:
    ``"solved"`` (a real solve ran) or ``"deduped"`` (shared bitwise with an
    earlier rate-identical scenario of the same batch).  Measure values are
    computed per scenario on every path.
    """

    spec: ScenarioSpec
    measures: dict[str, float]
    number_of_states: int
    solve_seconds: float
    solution: Optional[SteadyStateSolution] = None
    solve_source: str = "solved"

    @property
    def name(self) -> str:
        return self.spec.name

    def value(self, measure_name: str) -> float:
        return self.measures[measure_name]


@dataclass(frozen=True)
class DedupeStats:
    """Outcome of one batch's rate-vector dedupe pass.

    ``cases`` scenarios came in, ``solved`` linear systems actually ran and
    ``deduped`` scenarios shared an earlier scenario's stationary vector
    (their resolved rate vectors were bit-identical).
    """

    cases: int
    solved: int
    deduped: int


def rate_digest(rate_vector: np.ndarray) -> bytes:
    """Canonical digest of one resolved float64 rate vector.

    Two scenarios whose full rate assignments hash equal re-rate the shared
    graph into bit-identical linear systems, so one stationary solve serves
    both.  The digest is over the raw float64 bytes — conservatively exact
    (``-0.0`` and ``0.0`` hash apart), never approximate.
    """
    return hashlib.sha256(
        np.ascontiguousarray(rate_vector, dtype=np.float64).tobytes()
    ).digest()


@dataclass
class TransientScenarioResult:
    """Transient measure curves of one scenario over a shared time grid.

    Attributes:
        spec: the evaluated scenario.
        times: the ``(T,)`` evaluation times (hours, like every rate).
        point: per measure, the ``(T,)`` instantaneous expected values
            ``E[r(X_t)]`` (point availability for a 0/1 availability
            measure).
        interval: per measure, the ``(T,)`` interval values
            ``(1/t) ∫₀ᵗ E[r(X_u)] du`` (interval availability over the
            mission window ``[0, t]``); at ``t = 0`` the point value.
    """

    spec: ScenarioSpec
    times: np.ndarray
    point: dict[str, np.ndarray]
    interval: dict[str, np.ndarray]
    number_of_states: int
    solve_seconds: float

    @property
    def name(self) -> str:
        return self.spec.name


class ScenarioBatchEngine:
    """Shared-structure batch evaluator over one tangible state space.

    Args:
        graph: the reachability graph every scenario re-rates — in RAM, or
            on-disk CSR chunks (solved by
            :class:`~repro.engine.krylov.MatrixFreeSolver`).
        solve_deadline_seconds: watchdog deadline for one wave of
            worker-process solve chunks; ``None`` disables it.

    The solver policy has no settings: GTH up to
    :data:`~repro.markov.solvers.GTH_MAX_STATES` states, above it GMRES
    preconditioned by an incomplete LU reused across scenarios
    (:class:`~repro.engine.krylov.ReusableSolver`), which on chunked graphs
    :class:`~repro.engine.krylov.MatrixFreeSolver` runs without the direct
    fallback.
    """

    def __init__(
        self,
        graph: GraphLike,
        *,
        solve_deadline_seconds: Optional[float] = None,
    ) -> None:
        if not isinstance(graph, (TangibleReachabilityGraph, ChunkedGraph)):
            raise TypeError(
                f"ScenarioBatchEngine takes a TangibleReachabilityGraph or a "
                f"ChunkedGraph, not {type(graph).__name__}; obtain one with "
                f"repro.engine.cache.load_or_generate"
            )
        #: Watchdog deadline for one wave of worker-process solve chunks
        #: (forwarded to :class:`~repro.engine.parallel.SweepScheduler`);
        #: ``None`` disables it.
        self.solve_deadline_seconds = solve_deadline_seconds
        #: Solve path (``"serial"`` or ``"process"``) of the most recent
        #: :meth:`run` call (``None`` until the first batch).
        self.last_run_backend: Optional[str] = None
        #: Dedupe bookkeeping of the most recent :meth:`run` call
        #: (``None`` until the first batch).
        self.last_run_dedupe: Optional[DedupeStats] = None
        self._graph = graph
        self._template: Optional[ConstrainedSystemTemplate] = None
        #: Serial solver state (filled system / factors / warm start),
        #: chained across every scenario this engine solves in-process.
        self._solver: Optional[ReusableSolver] = None
        self._matrix_free: Optional[MatrixFreeSolver] = None
        self._setup_lock = threading.Lock()

    # --- shared structure -------------------------------------------------

    def graph(self) -> GraphLike:
        """The shared tangible reachability graph."""
        return self._graph

    def template(self) -> ConstrainedSystemTemplate:
        """Build (once) the symbolic constrained-balance-system structure."""
        if self._template is None:
            graph = self.graph()
            if isinstance(graph, ChunkedGraph):
                raise AnalysisError(
                    "chunked graphs are solved by MatrixFreeSolver, which "
                    "assembles its own constrained-system template"
                )
            with self._setup_lock:
                if self._template is None:
                    self._template = ConstrainedSystemTemplate(
                        graph.edge_sources, graph.edge_targets, graph.number_of_states
                    )
        return self._template

    @property
    def number_of_states(self) -> int:
        return self.graph().number_of_states

    # --- solving ----------------------------------------------------------

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        measures: Sequence[Measure],
        max_workers: Optional[int] = None,
        keep_solutions: bool = False,
        rate_key: Optional[Callable[[np.ndarray], bytes]] = None,
    ) -> list[ScenarioResult]:
        """Evaluate a whole batch; results come back in the order of ``specs``.

        Every scenario's resolved rate vector is hashed (:func:`rate_digest`):
        scenarios whose vectors are bit-identical re-rate the graph into the
        same linear system, so only the first of each class is solved and
        the later ones share its stationary vector (``solve_source=
        "deduped"``, ``solve_seconds=0``).  Measures are still evaluated per
        scenario, so rate-identical cases with *different* measures
        (expression-only ablations such as the k-threshold) stay per-case.
        The counts are reported in :attr:`last_run_dedupe`.

        ``rate_key`` replaces :func:`rate_digest` as the per-scenario digest
        — e.g. a symmetry-aware key that canonicalizes exchangeable
        transition blocks before hashing, so rate vectors that differ only
        by a block permutation share one solve.  The caller owns its
        exactness: two vectors may share a key only if they re-rate the
        graph into chains with identical values for **every** measure of
        this batch.

        ``max_workers`` is clamped to the effective CPU cores (a warning
        names the clamp).  The solves fan out over ``min(workers, solves //
        MIN_SCENARIOS_PER_WORKER)`` worker processes, each taking a
        contiguous chunk of sweep points, when that is at least two and the
        chain is above the GTH cutoff; otherwise, and whenever shared memory
        is unavailable, they run serially in sweep order, chaining warm
        starts.  :attr:`last_run_backend` records which path ran.
        """
        specs = list(specs)
        validate_measures(measures)
        if not specs:
            self.last_run_backend = "serial"
            self.last_run_dedupe = DedupeStats(0, 0, 0)
            return []
        requested = int(max_workers) if max_workers is not None else 1
        workers = (
            dispatch.resolve_worker_count(requested, stacklevel=3)
            if requested > 1
            else max(1, requested)
        )
        block_rows = self._max_block_rows(workers)
        if len(specs) > block_rows and not keep_solutions:
            # Bounded-memory dispatch: consecutive contiguous sub-batches
            # (order preserved, so per-worker warm-start locality survives).
            # Dedupe applies within each sub-batch: a representative's
            # solution block must still be alive when its duplicates are
            # filled, and sub-batches are exactly the windows whose blocks
            # coexist in memory.
            results: list[ScenarioResult] = []
            cases = solved = deduped = 0
            for start in range(0, len(specs), block_rows):
                results.extend(
                    self.run(
                        specs[start : start + block_rows],
                        measures,
                        max_workers=workers,
                        rate_key=rate_key,
                    )
                )
                cases += self.last_run_dedupe.cases
                solved += self.last_run_dedupe.solved
                deduped += self.last_run_dedupe.deduped
            self.last_run_dedupe = DedupeStats(cases, solved, deduped)
            return results

        rate_matrix = self.rate_matrix(specs)
        digest = rate_key if rate_key is not None else rate_digest
        first: dict[bytes, int] = {}
        # The index of the first scenario with each scenario's digest.
        representative = np.array(
            [
                first.setdefault(digest(row), index)
                for index, row in enumerate(rate_matrix)
            ]
        )
        is_solved = representative == np.arange(len(specs))
        solve_indices = np.flatnonzero(is_solved)
        solutions, seconds, self.last_run_backend = self._solve(
            specs, rate_matrix, solve_indices, workers
        )
        self.last_run_dedupe = DedupeStats(
            cases=len(specs),
            solved=len(solve_indices),
            deduped=len(specs) - len(solve_indices),
        )
        if len(solve_indices) < len(specs):
            # Spread the solved rows over the batch: each scenario takes its
            # representative's row of the solved block.
            row = np.searchsorted(solve_indices, representative)
            solutions = solutions[row]
            seconds = np.where(is_solved, seconds[row], 0.0)
        results = self._assemble_results(
            specs, measures, rate_matrix, solutions, seconds, keep_solutions
        )
        for result, solved_here in zip(results, is_solved):
            if not solved_here:
                result.solve_source = "deduped"
        return results

    def _fan_out(self, workers: int, solves: int) -> tuple[str, int]:
        """``(path, workers)`` of the static rule that runs ``solves`` solves.

        The process workers run the Krylov reuse path only, so a chain at
        or below the GTH cutoff always runs serially.
        """
        fan_out = min(workers, solves // MIN_SCENARIOS_PER_WORKER)
        if fan_out >= 2 and self.number_of_states > solvers.GTH_MAX_STATES:
            return "process", fan_out
        return "serial", 1

    def _solve(
        self,
        specs: Sequence[ScenarioSpec],
        rate_matrix: np.ndarray,
        indices: np.ndarray,
        workers: int,
    ) -> tuple[np.ndarray, np.ndarray, str]:
        """Stationary vectors and solve seconds of the scenarios at ``indices``.

        Returns the ``(len(indices), n)`` solution block, the seconds and
        the path that solved them (``"process"`` or ``"serial"``).
        """
        path, fan_out = self._fan_out(workers, len(indices))
        if path == "process":
            graph = self.graph()
            try:
                outcome = SweepScheduler(
                    graph,
                    None if isinstance(graph, ChunkedGraph) else self.template(),
                    max_workers=fan_out,
                    deadline_seconds=self.solve_deadline_seconds,
                ).run(rate_matrix[indices])
                return outcome.solutions, outcome.solve_seconds, "process"
            except SharedMemoryUnavailable:
                pass
        solutions = np.empty((len(indices), self.number_of_states))
        seconds = np.empty(len(indices))
        for position, index in enumerate(indices):
            started = time.perf_counter()
            solutions[position] = self._solve_vector(
                self._scenario_graph(specs[index], rate_matrix[index]),
                remaining=len(indices) - position,
            )
            seconds[position] = time.perf_counter() - started
        return solutions, seconds, "serial"

    def run_transient(
        self,
        specs: Sequence[ScenarioSpec],
        measures: Sequence[Measure],
        times: Sequence[float],
    ) -> list[TransientScenarioResult]:
        """Batched transient (uniformization) evaluation of the scenario block.

        For every scenario the instantaneous expected value ``E[r(X_t)]``
        and the interval value ``(1/t) ∫₀ᵗ E[r(X_u)] du`` of every measure
        are computed on the grid ``times``, starting from the net's initial
        marking distribution.  The whole batch shares one state space; the
        uniformization power iteration is vectorized over scenario groups of
        similar rate regime (one block-diagonal sparse mat-vec per Poisson
        term, measure projection through the :class:`RewardMatrix` GEMM —
        see :func:`repro.markov.transient.transient_reward_block`).  The
        kernel runs in-process: there is no per-scenario factorisation for
        worker processes to replicate.  A window whose Poisson weight tables
        exceed the kernel's entry bound raises :class:`AnalysisError`.
        """
        specs = list(specs)
        validate_measures(measures)
        times = np.asarray(times, dtype=np.float64).ravel()
        if not specs:
            self.last_run_backend = "serial"
            return []
        graph = self.graph()
        if isinstance(graph, ChunkedGraph):
            raise AnalysisError(
                "transient batches need the in-RAM backend (the chunked "
                "backend never assembles the global edge arrays the "
                "uniformization kernel iterates over); rerun with "
                "representation='in_ram' or a higher memory budget"
            )
        reward = RewardMatrix.from_measures(graph, measures)
        rate_matrix = self.rate_matrix(specs)
        edge_block = np.asarray(
            graph.edge_coefficient_matrix.T.dot(rate_matrix.T)
        ).T
        n = self.number_of_states

        def evaluate(block: np.ndarray, local: np.ndarray) -> np.ndarray:
            return reward.evaluate(block, rate_matrix[local])

        point, interval, seconds = transient_reward_block(
            graph.edge_sources,
            graph.edge_targets,
            n,
            edge_block,
            self.initial_vector(),
            times,
            evaluate,
            reward.number_of_measures,
        )
        self.last_run_backend = "serial"
        return [
            TransientScenarioResult(
                spec=spec,
                times=times.copy(),
                point={
                    name: point[index, :, column].copy()
                    for column, name in enumerate(reward.names)
                },
                interval={
                    name: interval[index, :, column].copy()
                    for column, name in enumerate(reward.names)
                },
                number_of_states=n,
                solve_seconds=float(seconds[index]),
            )
            for index, spec in enumerate(specs)
        ]

    def initial_vector(self) -> np.ndarray:
        """Dense initial tangible-marking distribution of the shared graph."""
        graph = self.graph()
        vector = np.zeros(self.number_of_states)
        for state, probability in graph.initial_distribution.items():
            vector[int(state)] = float(probability)
        return vector

    def _max_block_rows(self, workers: int) -> int:
        """Scenarios per dispatch under the solution-block memory bound."""
        bytes_per_row = max(1, self.number_of_states * 8)
        return max(workers, MAX_SOLUTION_BLOCK_BYTES // bytes_per_row)

    # --- shared post-processing -------------------------------------------

    def rate_matrix(self, specs: Sequence[ScenarioSpec]) -> np.ndarray:
        """Stacked ``(S, T)`` rate vectors of the batch (validated)."""
        graph = self.graph()
        matrix = np.empty((len(specs), graph.rate_vector.size))
        for index, spec in enumerate(specs):
            overrides = spec.resolved_rates()
            matrix[index] = (
                rate_vector_with_overrides(graph, overrides)
                if overrides
                else graph.rate_vector
            )
        return matrix

    def _scenario_graph(self, spec: ScenarioSpec, rates: np.ndarray) -> GraphLike:
        """The shared graph re-rated to ``rates``, the spec's row of
        :meth:`rate_matrix` (the graph itself for a spec without overrides)."""
        graph = self.graph()
        return graph.with_rate_vector(rates) if spec.resolved_rates() else graph

    def _assemble_results(
        self,
        specs: Sequence[ScenarioSpec],
        measures: Sequence[Measure],
        rate_matrix: np.ndarray,
        solutions: np.ndarray,
        solve_seconds: np.ndarray,
        keep_solutions: bool,
    ) -> list[ScenarioResult]:
        """Batched (GEMM) measure evaluation and result packaging.

        Both solve paths meet here, so a batch's measure values are computed
        by identical floating-point operations regardless of how its
        stationary vectors were produced.
        """
        graph = self.graph()
        kept: list[Optional[SteadyStateSolution]] = [None] * len(specs)
        if keep_solutions:
            for index, spec in enumerate(specs):
                kept[index] = SteadyStateSolution(
                    graph=self._scenario_graph(spec, rate_matrix[index]),
                    probabilities=solutions[index],
                )
        reward_matrix = RewardMatrix.from_measures(graph, measures)
        measure_rows = reward_matrix.as_dicts(
            reward_matrix.evaluate(solutions, rate_matrix)
        )
        return [
            ScenarioResult(
                spec=spec,
                measures=measure_rows[index],
                number_of_states=graph.number_of_states,
                solve_seconds=float(solve_seconds[index]),
                solution=kept[index],
            )
            for index, spec in enumerate(specs)
        ]

    # --- internal solver --------------------------------------------------

    def _solve_vector(self, graph: GraphLike, remaining: int) -> np.ndarray:
        """Stationary vector of ``graph``; ``remaining`` solves left in the chain."""
        n = graph.number_of_states
        if n == 1:
            return np.array([1.0])
        if isinstance(graph, ChunkedGraph):
            if self._matrix_free is None:
                self._matrix_free = MatrixFreeSolver(self.graph())
            return self._matrix_free.solve(graph.rate_vector, remaining=remaining)
        if n <= solvers.GTH_MAX_STATES:
            return solvers.steady_state(generator_matrix(graph), method="gth")

        if self._solver is None:
            self._solver = ReusableSolver(self.template())
        return self._solver.solve(
            graph.edge_rates, lambda: generator_matrix(graph), remaining=remaining
        )
