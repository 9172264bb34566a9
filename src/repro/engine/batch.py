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
* batches run on one of two backends (``backend="serial"|"process"``):
  the serial path chains solver state across the whole sweep, and the
  process path runs the zero-copy shared-memory scheduler of
  :mod:`repro.engine.parallel`, which hands each worker process a
  *contiguous* chunk of sweep points;
* ``backend="auto"`` applies one static rule: the requested worker count is
  clamped to the effective CPU cores, and the batch fans out only when every
  worker gets at least :data:`MIN_SCENARIOS_PER_WORKER` scenarios — on a
  single effective core that is always the serial path, so ``--jobs 8`` can
  no longer make a sweep slower than ``--jobs 1``;
* the reward measures of a whole batch are evaluated with one
  ``(S, n) @ (n, m)`` GEMM (:mod:`repro.engine.measures`) instead of
  ``S × m`` Python-level dot products, on every backend;
* :meth:`ScenarioBatchEngine.run_transient` runs the same scenario block
  through batched uniformization (:func:`repro.markov.transient.
  transient_reward_block`), returning point and interval (mission-window)
  measure values over a time grid.
"""

from __future__ import annotations

import hashlib
import threading
import time
import warnings
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

#: Recognised values of the ``backend`` argument of :meth:`ScenarioBatchEngine.run`.
BACKENDS = ("auto", "serial", "process")

#: Fewest scenarios each worker process must take before ``backend="auto"``
#: fans a batch out.  Every worker of a fan-out pays its own factorisation,
#: plus pool start-up and shared-segment packing, and only a run of warm
#: re-solves pays that back: at 3,048 states, with one BLAS thread, a cold
#: (factorising) solve measured 33 ms and a warm re-solve 3.8 ms on average
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
            process-backend solve chunks; ``None`` disables it.

    The solver policy has no settings: GTH up to
    :data:`~repro.markov.solvers.GTH_MAX_STATES` states, above it GMRES
    preconditioned by an incomplete LU reused across scenarios
    (:class:`~repro.engine.krylov.ReusableSolver`), and on chunked graphs
    the block-Jacobi Krylov ladder of
    :class:`~repro.engine.krylov.MatrixFreeSolver`.
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
        #: Watchdog deadline for one wave of process-backend solve chunks
        #: (forwarded to :class:`~repro.engine.parallel.SweepScheduler`);
        #: ``None`` disables it.
        self.solve_deadline_seconds = solve_deadline_seconds
        #: Backend actually used by the most recent :meth:`run` call
        #: (``None`` until the first batch).
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

    def _rated_graph(self, overrides: Mapping[str, float]) -> GraphLike:
        """The shared graph re-rated under ``overrides`` (itself when empty)."""
        graph = self.graph()
        if overrides:
            graph = graph.with_rate_vector(
                rate_vector_with_overrides(graph, overrides)
            )
        return graph

    def run(
        self,
        specs: Sequence[ScenarioSpec],
        measures: Sequence[Measure],
        max_workers: Optional[int] = None,
        keep_solutions: bool = False,
        backend: str = "auto",
        dedupe: bool = False,
        rate_key: Optional[Callable[[np.ndarray], bytes]] = None,
    ) -> list[ScenarioResult]:
        """Evaluate a whole batch over the selected backend.

        Results are returned in the order of ``specs``.  The serial backend
        chains warm starts from scenario to scenario; the process backend
        hands every worker a *contiguous* chunk of sweep points so per-worker
        warm starts and preconditioners see neighbouring points.

        ``max_workers`` is always clamped to the effective CPU cores
        (container-aware affinity; a warning names the clamp), so more
        workers than cores can never be dispatched.  ``backend="auto"`` (the
        default) fans out over ``min(workers, scenarios //
        MIN_SCENARIOS_PER_WORKER)`` processes when that is at least two and
        the process backend can serve the batch, and runs serially
        otherwise.  An explicit ``"process"`` is honoured, degrading to the
        serial path with a warning when shared memory is unavailable or the
        batch is outside the process backend's regime.  The backend actually
        used is recorded in :attr:`last_run_backend`.

        ``dedupe=True`` hashes every scenario's resolved rate vector
        (:func:`rate_digest`): scenarios whose vectors are bit-identical
        re-rate the graph into the same linear system, so only the first of
        each class is solved and the later ones share its stationary vector
        (``solve_source="deduped"``, ``solve_seconds=0``).  Measures are
        still evaluated per scenario, so rate-identical cases with
        *different* measures (expression-only ablations such as the
        k-threshold) stay per-case.  The counts are reported in
        :attr:`last_run_dedupe`.

        ``rate_key`` (used with ``dedupe``) replaces :func:`rate_digest`
        as the per-scenario rate-vector digest — e.g. a symmetry-aware key
        that canonicalizes exchangeable transition blocks before hashing,
        so rate vectors that differ only by a block permutation dedupe to
        one solve.  The caller owns its exactness: two vectors may share a
        key only if they re-rate the graph into chains with identical
        values for **every** measure of this batch.
        """
        specs = list(specs)
        validate_measures(measures)
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
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
                        max_workers=max_workers,
                        keep_solutions=False,
                        backend=backend,
                        dedupe=dedupe,
                        rate_key=rate_key,
                    )
                )
                cases += self.last_run_dedupe.cases
                solved += self.last_run_dedupe.solved
                deduped += self.last_run_dedupe.deduped
            self.last_run_dedupe = DedupeStats(cases, solved, deduped)
            return results

        n = self.number_of_states
        duplicate_of = (
            self._duplicate_map(specs, rate_key)
            if dedupe and len(specs) > 1
            else {}
        )
        solve_indices = [
            index for index in range(len(specs)) if index not in duplicate_of
        ]
        self.last_run_dedupe = DedupeStats(
            cases=len(specs),
            solved=len(solve_indices),
            deduped=len(duplicate_of),
        )
        sources = ["solved"] * len(specs)

        if not duplicate_of:
            solutions = np.empty((len(specs), n))
            seconds = np.empty(len(specs))
            choice = self._dispatch_solves(specs, workers, backend, solutions, seconds)
        else:
            solutions = np.empty((len(specs), n))
            seconds = np.zeros(len(specs))
            sub_solutions = np.empty((len(solve_indices), n))
            sub_seconds = np.empty(len(solve_indices))
            choice = self._dispatch_solves(
                [specs[index] for index in solve_indices],
                workers,
                backend,
                sub_solutions,
                sub_seconds,
            )
            solutions[solve_indices] = sub_solutions
            seconds[solve_indices] = sub_seconds
            # Representatives (first occurrence of each digest) are always
            # solved, so the copy below never reads an empty row.
            for index, representative in duplicate_of.items():
                solutions[index] = solutions[representative]
                sources[index] = "deduped"
        self.last_run_backend = choice
        results = self._assemble_results(
            specs, measures, solutions, seconds, keep_solutions
        )
        for result, source in zip(results, sources):
            result.solve_source = source
        return results

    def _duplicate_map(
        self,
        specs: Sequence[ScenarioSpec],
        rate_key: Optional[Callable[[np.ndarray], bytes]] = None,
    ) -> dict[int, int]:
        """Map each rate-equivalent later scenario to its first occurrence.

        Equivalence is :func:`rate_digest` (bit-identical vectors) unless
        the caller supplied a coarser ``rate_key``.
        """
        digest = rate_key if rate_key is not None else rate_digest
        first: dict[bytes, int] = {}
        duplicate_of: dict[int, int] = {}
        for index, row in enumerate(self.rate_matrix(specs)):
            representative = first.setdefault(digest(row), index)
            if representative != index:
                duplicate_of[index] = representative
        return duplicate_of

    def _dispatch_solves(
        self,
        specs: Sequence[ScenarioSpec],
        workers: int,
        backend: str,
        solutions: np.ndarray,
        seconds: np.ndarray,
    ) -> str:
        """Solve every spec into the given blocks; returns the backend used."""
        specs = list(specs)
        choice, workers = self._resolve_backend(backend, workers, len(specs))
        if choice == "process":
            try:
                solutions[:], seconds[:] = self._solve_process(
                    self.rate_matrix(specs), workers
                )
                return "process"
            except SharedMemoryUnavailable as error:
                if backend == "process":
                    warnings.warn(
                        f"process backend unavailable ({error}); falling back "
                        f"to the serial backend",
                        stacklevel=3,
                    )
        self._solve_serial(specs, solutions, seconds)
        return "serial"

    def _resolve_backend(
        self, backend: str, workers: int, scenarios: int
    ) -> tuple[str, int]:
        """``(backend, workers)`` that will solve ``scenarios`` specs."""
        if backend == "serial":
            return "serial", 1
        if backend == "process":
            if not self._process_backend_supported():
                warnings.warn(
                    "the process backend needs a coefficient-carrying graph "
                    "and a state space above the GTH cutoff; using the "
                    "serial backend instead",
                    stacklevel=4,
                )
                return "serial", 1
            return "process", workers
        fan_out = min(workers, scenarios // MIN_SCENARIOS_PER_WORKER)
        if fan_out >= 2 and self._process_backend_supported():
            return "process", fan_out
        return "serial", 1

    def run_transient(
        self,
        specs: Sequence[ScenarioSpec],
        measures: Sequence[Measure],
        times: Sequence[float],
        tolerance: float = 1e-12,
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
        worker processes to replicate.
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
            tolerance=tolerance,
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

    def _process_backend_supported(self) -> bool:
        """Whether the multiprocess scheduler can reproduce this batch.

        The process workers run the Krylov reuse path exclusively, so the
        batch must be in the regime the serial path would also solve that
        way: above the GTH cutoff.
        """
        return self.graph().number_of_states > solvers.GTH_MAX_STATES

    # --- backend drivers --------------------------------------------------

    def _solve_serial(
        self,
        specs: Sequence[ScenarioSpec],
        solutions: np.ndarray,
        seconds: np.ndarray,
    ) -> None:
        """Solve ``specs`` in order, chaining this engine's solver state."""
        for index, spec in enumerate(specs):
            started = time.perf_counter()
            solutions[index] = self._solve_vector(
                self._rated_graph(spec.resolved_rates()),
                remaining=len(specs) - index,
            )
            seconds[index] = time.perf_counter() - started

    def _solve_process(
        self, rate_matrix: np.ndarray, workers: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Zero-copy multiprocess fan-out (see :mod:`repro.engine.parallel`)."""
        graph = self.graph()
        scheduler = SweepScheduler(
            graph,
            None if isinstance(graph, ChunkedGraph) else self.template(),
            max_workers=workers,
            deadline_seconds=self.solve_deadline_seconds,
        )
        outcome = scheduler.run(rate_matrix)
        return outcome.solutions, outcome.solve_seconds

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

    def _assemble_results(
        self,
        specs: Sequence[ScenarioSpec],
        measures: Sequence[Measure],
        solutions: np.ndarray,
        solve_seconds: np.ndarray,
        keep_solutions: bool,
    ) -> list[ScenarioResult]:
        """Batched (GEMM) measure evaluation and result packaging.

        All backends meet here, so a batch's measure values are computed by
        identical floating-point operations regardless of how its stationary
        vectors were produced.
        """
        graph = self.graph()
        rate_matrix = self.rate_matrix(specs)
        kept: list[Optional[SteadyStateSolution]] = [None] * len(specs)
        if keep_solutions:
            for index, spec in enumerate(specs):
                scenario_graph = (
                    graph.with_rate_vector(rate_matrix[index])
                    if spec.resolved_rates()
                    else graph
                )
                kept[index] = SteadyStateSolution(
                    graph=scenario_graph, probabilities=solutions[index]
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
