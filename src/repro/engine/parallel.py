"""Zero-copy multiprocess sweep scheduler.

``SweepScheduler`` fans a rate-parameter sweep out over worker *processes*
without copying the shared state space: the tangible reachability graph's
edge arrays, the stacked CSR coefficient matrix, the symbolic structure of
the constrained balance system and the per-scenario rate vectors are packed
into **one** :mod:`multiprocessing.shared_memory` segment that every worker
attaches read-only (zero-copy); the stationary vectors are written straight
into a shared ``(S, n)`` output block of the same segment, so the parent can
evaluate every reward measure of the whole batch with a single
``(S, n) @ (n, m)`` GEMM (:mod:`repro.engine.measures`).

Scenarios are scheduled in **contiguous sweep-order chunks** — one chunk per
worker — so each worker chains warm starts and reuses its incomplete-LU
preconditioner across neighbouring sweep points, restoring the locality the
sequential path was designed around (an interleaved assignment would hand
every worker a stride of unrelated points and forfeit the reuse).

Workers cap their BLAS pools at one thread (pinning ``OMP_NUM_THREADS=1``
and friends, and calling the ``set_num_threads`` entry points of
already-loaded BLAS libraries, which a forked child inherits pre-sized) so
``max_workers`` solver processes do not oversubscribe the machine with
nested thread pools, and rebuild their solver state lazily from the shared
arrays on first touch.

The worker pool itself is **persistent**: one module-level pool survives
across :meth:`SweepScheduler.run` calls (growing when a later batch asks for
more workers), so repeated sweeps — sensitivity studies, ablation suites,
back-to-back Figure 7 runs — amortise the fork/spawn cost instead of paying
it per batch.  Each task carries the segment manifest; the worker attaches
for exactly the duration of its chunk (holding the mapping between batches
would pin the unlinked segment's memory in idle workers).  The pool is shut
down at interpreter exit (or explicitly via :func:`shutdown_shared_pool`).

The segment is unlinked by the parent as soon as the batch completes (or
fails); a run leaves no ``/dev/shm`` entries behind.
"""

from __future__ import annotations

import atexit
import os
import secrets
import signal as signal_module
import threading
import weakref
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from repro.engine import faults
from repro.engine.krylov import MatrixFreeSolver, ReusableSolver
from repro.engine.system import ConstrainedSystemTemplate
from repro.spn.reachability import TangibleReachabilityGraph
from repro.statespace.chunked import ChunkedGraph

try:  # pragma: no cover - exercised indirectly via availability checks
    from multiprocessing import get_context, shared_memory
except ImportError:  # pragma: no cover - platforms without _multiprocessing
    shared_memory = None  # type: ignore[assignment]
    get_context = None  # type: ignore[assignment]

#: Prefix of every shared-memory segment created by the scheduler; tests and
#: the benchmark use it to prove no segment outlives its batch.
SEGMENT_PREFIX = "repro_sweep_"

#: Environment variables pinned to ``1`` in every worker so that
#: ``max_workers`` solver processes do not multiply into ``max_workers × B``
#: BLAS threads.
BLAS_PIN_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

#: Worker status codes recorded per scenario in the shared status block.
STATUS_PENDING = 0
STATUS_SOLVED = 1
STATUS_FALLBACK = 2

#: Live :class:`SweepPlan` instances of this process — what the
#: signal-aware cleanup destroys so an interrupt never leaks ``/dev/shm``
#: segments.  Weak: a collected plan needs no cleanup (destroy is
#: idempotent and the parent normally unlinks in its ``with`` block).
_LIVE_PLANS: "weakref.WeakSet[SweepPlan]" = weakref.WeakSet()


class SharedMemoryUnavailable(RuntimeError):
    """Shared-memory segments cannot be created on this platform/sandbox."""


def shared_memory_available() -> bool:
    """Whether a shared-memory segment can actually be created right now.

    Probes with a one-page segment: importability of the module does not
    guarantee ``shm_open`` works (locked-down sandboxes, full ``/dev/shm``).
    """
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=1)
    except OSError:
        return False
    probe.close()
    probe.unlink()
    return True


def leaked_segments() -> set[str]:
    """Names of scheduler-created segments currently present in ``/dev/shm``.

    Empty on platforms without a ``/dev/shm``.  Tests and the benchmark
    compare snapshots of this around a batch to prove the parent unlinked
    its segment.
    """
    directory = "/dev/shm"
    if not os.path.isdir(directory):
        return set()
    return {
        name for name in os.listdir(directory) if name.startswith(SEGMENT_PREFIX)
    }


def contiguous_chunks(count: int, workers: int) -> list[tuple[int, ...]]:
    """Split ``range(count)`` into at most ``workers`` contiguous runs.

    Neighbouring sweep points have nearly identical stationary vectors, so
    each worker must receive an unbroken run of them (warm starts and stale
    factorisations are only useful between neighbours).  Sizes differ by at
    most one.
    """
    if count <= 0:
        return []
    return [
        tuple(int(i) for i in chunk)
        for chunk in np.array_split(np.arange(count), max(1, min(workers, count)))
        if chunk.size
    ]


def _align(offset: int, boundary: int = 64) -> int:
    return (offset + boundary - 1) // boundary * boundary


@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside the shared segment."""

    offset: int
    dtype: str
    shape: tuple[int, ...]


class SweepPlan:
    """Parent-side owner of the one shared segment backing a sweep.

    Packs the read-only inputs (graph arrays, template structure, rate
    matrix) and the writable outputs (solution block, per-scenario times and
    status) into a single named segment, and exposes a picklable
    ``manifest`` from which workers attach views.  The parent must call
    :meth:`destroy` (or use the plan as a context manager) so the segment is
    unlinked even when the batch fails.
    """

    def __init__(
        self,
        graph: TangibleReachabilityGraph,
        template: Optional[ConstrainedSystemTemplate],
        rate_matrix: np.ndarray,
    ) -> None:
        if shared_memory is None:
            raise SharedMemoryUnavailable(
                "multiprocessing.shared_memory is not importable on this platform"
            )
        rate_matrix = np.ascontiguousarray(rate_matrix, dtype=np.float64)
        scenarios = rate_matrix.shape[0]
        n = graph.number_of_states
        chunked = isinstance(graph, ChunkedGraph)
        if chunked:
            # Out-of-core groups ship no graph arrays at all: the chunk
            # manifest on disk *is* the shared structure (workers open it
            # read-only), so the segment holds only the per-scenario rates
            # and the output blocks.
            self.chunk_directory: Optional[str] = str(graph.directory)
            inputs: dict[str, np.ndarray] = {"rates": rate_matrix}
            coefficients = None
        else:
            self.chunk_directory = None
            coefficients = graph.edge_coefficient_matrix.tocsr()
            template_arrays = template.shared_arrays()
            inputs = {
                "edge_sources": np.ascontiguousarray(graph.edge_sources),
                "edge_targets": np.ascontiguousarray(graph.edge_targets),
                "coeff_data": np.ascontiguousarray(coefficients.data, dtype=np.float64),
                "coeff_indices": np.ascontiguousarray(coefficients.indices),
                "coeff_indptr": np.ascontiguousarray(coefficients.indptr),
                "tpl_edge_sources": np.ascontiguousarray(template_arrays["edge_sources"]),
                "tpl_edge_mask": np.ascontiguousarray(template_arrays["edge_mask"]),
                "tpl_positions": np.ascontiguousarray(template_arrays["positions"]),
                "tpl_csc_indices": np.ascontiguousarray(template_arrays["csc_indices"]),
                "tpl_csc_indptr": np.ascontiguousarray(template_arrays["csc_indptr"]),
                "rates": rate_matrix,
            }
        outputs: dict[str, tuple[tuple[int, ...], np.dtype]] = {
            "solutions": ((scenarios, n), np.dtype(np.float64)),
            "times": ((scenarios,), np.dtype(np.float64)),
            "status": ((scenarios,), np.dtype(np.int8)),
        }

        specs: dict[str, _ArraySpec] = {}
        offset = 0
        for name, array in inputs.items():
            offset = _align(offset)
            specs[name] = _ArraySpec(offset, array.dtype.str, array.shape)
            offset += array.nbytes
        for name, (shape, dtype) in outputs.items():
            offset = _align(offset)
            specs[name] = _ArraySpec(offset, dtype.str, shape)
            offset += int(np.prod(shape)) * dtype.itemsize

        name = f"{SEGMENT_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        try:
            self._segment = shared_memory.SharedMemory(
                create=True, size=max(1, offset), name=name
            )
        except OSError as error:
            raise SharedMemoryUnavailable(
                f"could not create a {offset}-byte shared-memory segment: {error}"
            ) from error
        # Registered before the fill, so a signal landing while the segment
        # is being written still unlinks it.
        _LIVE_PLANS.add(self)
        install_signal_cleanup()
        self._specs = specs
        self.coefficient_shape = (
            tuple(coefficients.shape) if coefficients is not None else None
        )
        self.number_of_states = n
        self.scenarios = scenarios
        try:
            for name, array in inputs.items():
                self._view(name)[...] = array
            self.solutions = self._view("solutions")
            self.solutions.fill(0.0)
            self.times = self._view("times")
            self.times.fill(0.0)
            self.status = self._view("status")
            self.status.fill(STATUS_PENDING)
        except BaseException:
            self.destroy()
            raise

    def _view(self, name: str) -> np.ndarray:
        spec = self._specs[name]
        return np.ndarray(
            spec.shape,
            dtype=np.dtype(spec.dtype),
            buffer=self._segment.buf,
            offset=spec.offset,
        )

    @property
    def segment_name(self) -> str:
        return self._segment.name

    def manifest(self) -> dict:
        """Everything a worker needs to attach: segment name and layout."""
        return {
            "segment": self._segment.name,
            "specs": self._specs,
            "coefficient_shape": self.coefficient_shape,
            "number_of_states": self.number_of_states,
            "chunk_directory": self.chunk_directory,
        }

    def destroy(self) -> None:
        """Release and unlink the segment (idempotent).

        The writable views (``solutions``/``times``/``status``) die with the
        segment — read them (or copy what you need) beforehand, as
        :meth:`SweepScheduler.run` does inside its ``with`` block.
        """
        segment, self._segment = self._segment, None
        _LIVE_PLANS.discard(self)
        if segment is None:
            return
        # Views into the buffer must be dropped before close() or the
        # exported-pointer check in BufferWrapper raises.
        for attribute in ("solutions", "times", "status"):
            if hasattr(self, attribute):
                setattr(self, attribute, None)
        try:
            segment.close()
        finally:
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SweepPlan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy()


# --- worker side ----------------------------------------------------------


def _attach_untracked(name: str):
    """Attach to the parent's segment without resource-tracker registration.

    On Python ≤ 3.12 merely attaching registers the segment with a resource
    tracker, which then wrongly unlinks it (or warns about "leaks") when a
    worker exits while the parent and its siblings still use it.  Ownership
    stays with the parent, which unlinks exactly once in
    :meth:`SweepPlan.destroy`; workers therefore attach with registration
    suppressed (the standard workaround until the ``track=False`` parameter
    of Python 3.13).
    """
    try:  # pragma: no cover - tracker internals vary by version
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
    except Exception:
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class _WorkerContext:
    """Per-process solver state rebuilt lazily from the shared segment."""

    def __init__(self, manifest: dict) -> None:
        self.segment = _attach_untracked(manifest["segment"])
        self.n = int(manifest["number_of_states"])
        arrays: dict[str, np.ndarray] = {}
        for name, spec in manifest["specs"].items():
            view = np.ndarray(
                spec.shape,
                dtype=np.dtype(spec.dtype),
                buffer=self.segment.buf,
                offset=spec.offset,
            )
            if name not in ("solutions", "times", "status"):
                view.flags.writeable = False
            arrays[name] = view
        self.rates = arrays["rates"]
        self.solutions = arrays["solutions"]
        self.times = arrays["times"]
        self.status = arrays["status"]
        self._arrays = arrays
        chunk_directory = manifest.get("chunk_directory")
        if chunk_directory is not None:
            # Out-of-core batch: the structure lives in the chunk files, not
            # the segment; every worker reads the same read-only manifest and
            # builds its own system template from the chunks.
            self.edge_sources = self.edge_targets = None
            self.coefficients_T = None
            self.solver = None
            self.matrix_free: Optional[MatrixFreeSolver] = MatrixFreeSolver(
                ChunkedGraph.open(chunk_directory)
            )
            return
        self.matrix_free = None
        self.edge_sources = arrays["edge_sources"]
        self.edge_targets = arrays["edge_targets"]
        # C.T as a CSC matrix, built once: edge_rates(θ) = Cᵀ · rate_vector(θ).
        self.coefficients_T = sparse.csr_matrix(
            (arrays["coeff_data"], arrays["coeff_indices"], arrays["coeff_indptr"]),
            shape=manifest["coefficient_shape"],
        ).T
        template = ConstrainedSystemTemplate.from_shared_arrays(
            {
                "edge_sources": arrays["tpl_edge_sources"],
                "edge_mask": arrays["tpl_edge_mask"],
                "positions": arrays["tpl_positions"],
                "csc_indices": arrays["tpl_csc_indices"],
                "csc_indptr": arrays["tpl_csc_indptr"],
            },
            self.n,
        )
        self.solver = ReusableSolver(template)

    def close(self) -> None:
        """Drop every view into the segment and detach from it.

        Called when a later task arrives with a *different* segment (the
        previous batch's plan is gone; its segment was already unlinked by
        the parent, so this close releases the last mapping).
        """
        self.solver = None
        self.matrix_free = None
        self.coefficients_T = None
        self.edge_sources = self.edge_targets = self.rates = None
        self.solutions = self.times = self.status = None
        self._arrays = None
        segment, self.segment = self.segment, None
        if segment is not None:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - lingering view; freed at exit
                pass

    def _fallback_generator(self, edge_rates: np.ndarray) -> sparse.csr_matrix:
        """Fresh CTMC generator for the rare reuse-failure fallback path.

        Mirrors :func:`repro.spn.ctmc_export.generator_matrix` from the
        shared edge arrays (the worker holds no graph object).
        """
        diagonal = np.arange(self.n, dtype=np.int64)
        exit_rates = np.bincount(
            self.edge_sources, weights=edge_rates, minlength=self.n
        )
        rows = np.concatenate([self.edge_sources, diagonal])
        cols = np.concatenate([self.edge_targets, diagonal])
        data = np.concatenate([edge_rates, -exit_rates])
        return sparse.coo_matrix(
            (data, (rows, cols)), shape=(self.n, self.n)
        ).tocsr()

    def run_chunk(self, indices: Sequence[int]) -> None:
        """Solve ``indices`` in order as one chain (the serial path's chain)."""
        if self.matrix_free is not None:
            for position, index in enumerate(indices):
                started = perf_counter()
                self.solutions[index, :] = self.matrix_free.solve(
                    self.rates[index],
                    scenario_index=index,
                    remaining=len(indices) - position,
                )
                self.times[index] = perf_counter() - started
                self.status[index] = STATUS_SOLVED
            return
        for position, index in enumerate(indices):
            started = perf_counter()
            edge_rates = np.asarray(
                self.coefficients_T.dot(self.rates[index]), dtype=np.float64
            ).ravel()
            probabilities = self.solver.solve(
                edge_rates,
                lambda: self._fallback_generator(edge_rates),
                scenario_index=index,
                remaining=len(indices) - position,
            )
            self.solutions[index, :] = probabilities
            self.times[index] = perf_counter() - started
            self.status[index] = (
                STATUS_FALLBACK if self.solver.last_solve_used_fallback else STATUS_SOLVED
            )


#: ``set_num_threads``-style entry points probed on loaded BLAS libraries
#: (stock OpenBLAS, the renamed scipy/numpy wheel builds, MKL, BLIS).
_BLAS_LIMIT_SYMBOLS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
    "MKL_Set_Num_Threads",
    "bli_thread_set_num_threads",
)


def _limit_blas_threads() -> None:
    """Cap every loaded BLAS pool at one thread in this worker.

    Environment pinning alone is not enough under the default ``fork``
    start method: the child inherits a parent whose OpenBLAS/MKL pools were
    already sized when the library loaded, and ``OMP_NUM_THREADS`` is only
    read at load time.  So, mirroring what ``threadpoolctl`` does (used
    when installed), the worker walks its memory map for loaded BLAS
    libraries and calls their ``set_num_threads`` entry points directly.
    Best-effort: an exotic BLAS without a recognised entry point merely
    keeps its inherited pool.
    """
    try:  # pragma: no cover - optional dependency
        import threadpoolctl

        threadpoolctl.threadpool_limits(1)
        return
    except Exception:
        pass
    try:
        import ctypes

        libraries = []
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(" ", 5)
                path = fields[-1].strip() if len(fields) >= 6 else ""
                basename = os.path.basename(path).lower()
                if not path.startswith("/"):
                    continue
                if any(k in basename for k in ("openblas", "mkl_rt", "blis")):
                    if path not in libraries:
                        libraries.append(path)
        for path in libraries:
            try:
                library = ctypes.CDLL(path)  # dlopen of a loaded path: same handle
            except OSError:
                continue
            for symbol in _BLAS_LIMIT_SYMBOLS:
                entry_point = getattr(library, symbol, None)
                if entry_point is not None:
                    try:
                        entry_point(1)
                    except Exception:
                        pass
    except Exception:  # pragma: no cover - /proc-less platforms
        pass


def _worker_initializer() -> None:
    # The environment pins cover libraries loaded after this point (and the
    # whole process under "spawn"); the runtime cap covers pools the worker
    # inherited from an already-initialised parent under "fork".  The worker
    # always pins to ONE BLAS thread: the scheduler never runs more workers
    # than effective cores (clamped upstream via repro.engine.dispatch), so
    # per-worker BLAS pools would only multiply into oversubscription.
    for variable in BLAS_PIN_VARIABLES:
        os.environ[variable] = "1"
    _limit_blas_threads()
    # Under "fork" the worker inherits the parent's signal-cleanup handler,
    # which must never run here: it would terminate the parent's pool from
    # inside a worker (SIGKILLing its own siblings) and stall the executor's
    # broken-pool teardown, which SIGTERMs workers and joins them.  Workers
    # die on the default dispositions; the parent owns all cleanup.
    try:
        signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread embed
        pass


def _worker_run_chunk(manifest: dict, indices: tuple[int, ...]) -> tuple[int, ...]:
    """Solve one contiguous chunk of the manifested segment.

    The manifest travels with every task (it is a few hundred bytes) so the
    worker can outlive the batch that created it.  The context — segment
    mapping, rebuilt template, solver state — lives exactly as long as the
    chunk: attaching to a segment costs microseconds, whereas holding the
    mapping after the parent unlinks the segment would pin the whole
    (S, n) block's physical memory in an idle worker indefinitely.
    """
    context = _WorkerContext(manifest)
    try:
        context.run_chunk(indices)
    finally:
        context.close()
    return indices


# --- scheduler ------------------------------------------------------------


def _pool_context():
    """The multiprocessing start method used for worker pools.

    ``fork`` where the platform offers it (workers attach in microseconds),
    else ``spawn``.  Either way the state space travels through the shared
    segment, never through pickles.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return get_context("fork" if "fork" in methods else "spawn")


class PersistentWorkerPool:
    """A process pool kept alive across sweep batches.

    Fork/spawn cost is paid once per session instead of once per batch:
    repeated sweeps (sensitivity, ablations, consecutive Figure 7 runs)
    reuse the same worker processes, which merely re-attach to each batch's
    fresh shared segment.  The pool grows (is replaced) when a batch asks
    for more workers than it holds and is torn down at interpreter exit.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        #: How many times this pool was rebuilt after abrupt worker deaths
        #: (grid provenance reads deltas of this across a run).
        self.rebuilds = 0

    def is_broken(self) -> bool:
        """Whether the current executor has marked itself broken."""
        return self._pool is not None and bool(getattr(self._pool, "_broken", False))

    def submit(self, kind: str, workers: int, fn, /, *args, **kwargs) -> Future:
        """Submit one tagged task, growing the pool to at least ``workers``.

        The pool runs a *mix* of task types — structure-graph ``"generate"``
        tasks interleave with ``"solve"`` chunks of the sweep scheduler on
        the same workers.  The tag ``kind`` is the site an installed fault
        plan matches.

        A pool whose workers died since the last submission self-heals: the
        broken executor is replaced (counted in :attr:`rebuilds`) and the
        task lands on the fresh one.  An installed fault plan is consulted
        here — the parent-side decision point, so injection schedules stay
        deterministic — and a doomed task is wrapped in
        :func:`repro.engine.faults.faulted_call`.
        """
        plan = faults.active()
        if plan is not None:
            spec = (
                plan.fire(faults.WORKER_KILL, kind)
                or plan.fire(faults.TASK_EXCEPTION, kind)
                or plan.fire(faults.SLOW_TASK, kind)
            )
            if spec is not None:
                args = (spec.kind, spec.delay_seconds, fn) + args
                fn = faults.faulted_call
        try:
            return self.executor(workers).submit(fn, *args, **kwargs)
        except BrokenProcessPool:
            # The pool broke between the health check and the submission
            # (a worker died mid-call): rebuild once and resubmit.
            self.rebuild()
            return self.executor(workers).submit(fn, *args, **kwargs)

    def executor(self, workers: int) -> ProcessPoolExecutor:
        """The shared executor, (re)built to hold at least ``workers`` workers.

        A pool that is too small is *retired*, not killed: its
        already-submitted chunks run to completion and its workers exit
        afterwards, so a concurrent batch on the old pool is never cancelled
        by a bigger batch arriving.

        A pool marked broken (workers died abruptly) is replaced first, so
        callers always receive a usable executor.
        """
        install_signal_cleanup()
        if self._pool is not None and getattr(self._pool, "_broken", False):
            self.rebuild()
        if self._pool is None or self._workers < workers:
            retired, self._pool = self._pool, None
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_worker_initializer,
            )
            self._workers = workers
            if retired is not None:
                retired.shutdown(wait=False, cancel_futures=False)
        return self._pool

    def rebuild(self) -> None:
        """Replace a (presumed) broken pool with a fresh one on next use.

        Counted in :attr:`rebuilds` — the grid orchestrator compares that
        counter against its :class:`~repro.engine.faults.RetryPolicy` restart
        budget and records the delta in the run's provenance.
        """
        self.rebuilds += 1
        self.shutdown()

    def kill_workers(self) -> int:
        """SIGKILL every live worker of the current pool; returns the count.

        The watchdog's hammer: a hung worker cannot be cancelled through the
        executor API, so the watchdog kills the processes outright, lets the
        pending futures fail with ``BrokenProcessPool`` and relies on the
        normal rebuild-and-retry path to re-run their tasks.
        """
        pool = self._pool
        if pool is None:
            return 0
        killed = 0
        for process in list(getattr(pool, "_processes", {}).values()):
            try:
                process.kill()
                killed += 1
            except Exception:  # pragma: no cover - process already reaped
                pass
        return killed

    def shutdown(self) -> None:
        """Terminate the pooled workers (idempotent)."""
        pool, self._pool = self._pool, None
        self._workers = 0
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def terminate(self) -> None:
        """Hard-stop the pool without waiting (signal-handler safe).

        Unlike :meth:`shutdown` this never blocks on live tasks: workers are
        SIGKILLed first, then the executor is dismantled with
        ``wait=False``.  Used by the signal-aware cleanup so an interrupt
        cannot hang on a wedged worker.
        """
        self.kill_workers()
        pool, self._pool = self._pool, None
        self._workers = 0
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


#: The module-level pool shared by every :class:`SweepScheduler`.
shared_pool = PersistentWorkerPool()


def shutdown_shared_pool() -> None:
    """Shut down the persistent worker pool (it restarts on next use)."""
    shared_pool.shutdown()


atexit.register(shutdown_shared_pool)


# --- signal-aware cleanup ---------------------------------------------------

_previous_handlers: dict[int, object] = {}

#: Process that installed the handlers; a forked child re-raising through an
#: inherited handler must not run the parent's cleanup (see
#: :func:`_signal_handler`).
_install_pid: Optional[int] = None


def cleanup_shared_resources() -> None:
    """Best-effort release of every shared OS resource this process holds.

    Destroys (unlinks) all live sweep segments and hard-stops the persistent
    worker pool.  Idempotent and exception-free: safe to call from a signal
    handler, atexit, or test teardown.
    """
    for plan in list(_LIVE_PLANS):
        try:
            plan.destroy()
        except Exception:  # pragma: no cover - destroy is already lenient
            pass
    try:
        shared_pool.terminate()
    except Exception:  # pragma: no cover - executor internals mid-teardown
        pass


def _signal_handler(signum: int, frame) -> None:  # pragma: no cover - exercised
    # in a subprocess test: coverage of handlers inside dying processes does
    # not report.
    if _install_pid is not None and os.getpid() != _install_pid:
        # Forked child that inherited the handler before its initializer ran:
        # the shared resources belong to the parent, so just die with the
        # default disposition.
        signal_module.signal(signum, signal_module.SIG_DFL)
        signal_module.raise_signal(signum)
        return
    cleanup_shared_resources()
    previous = _previous_handlers.get(signum)
    if callable(previous):
        previous(signum, frame)
        return
    signal_module.signal(signum, signal_module.SIG_DFL)
    signal_module.raise_signal(signum)


def install_signal_cleanup() -> None:
    """Route SIGINT/SIGTERM through :func:`cleanup_shared_resources`.

    Installed lazily the first time this process creates a sweep segment or
    touches the persistent pool, so an interrupted run never leaves
    ``/dev/shm`` segments or orphaned workers behind.  Idempotent; previous
    handlers are chained (or the default disposition re-raised, so exit
    codes still reflect the signal).  Only the main thread may install
    handlers — calls from worker threads are no-ops.
    """
    global _install_pid
    if threading.current_thread() is not threading.main_thread():
        return
    _install_pid = os.getpid()
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        if signum in _previous_handlers:
            continue
        try:
            current = signal_module.getsignal(signum)
            if current is _signal_handler:
                continue
            _previous_handlers[signum] = current
            signal_module.signal(signum, _signal_handler)
        except (ValueError, OSError):  # pragma: no cover - exotic embeddings
            _previous_handlers.pop(signum, None)


@dataclass
class SweepOutcome:
    """Raw per-scenario outputs of one scheduled sweep."""

    solutions: np.ndarray  # (S, n) stationary vectors
    solve_seconds: np.ndarray  # (S,) per-scenario solve time
    status: np.ndarray  # (S,) STATUS_* codes


class SweepScheduler:
    """Process-based executor of one rate sweep over one shared state space.

    Args:
        graph: the shared tangible reachability graph.
        template: the symbolic constrained-system structure of ``graph``
            (``None`` for a chunked graph: each worker builds its own).
        max_workers: number of worker processes.
        deadline_seconds: watchdog deadline for one wave of chunks on the
            persistent pool.  A wave still unfinished after the deadline has
            its workers SIGKILLed; the broken-pool retry of :meth:`run` then
            rebuilds the pool and re-runs the batch (with a doubled
            deadline), so a hung worker cannot stall the sweep forever.
            ``None`` (the default) disables the watchdog.
    """

    def __init__(
        self,
        graph: TangibleReachabilityGraph,
        template: Optional[ConstrainedSystemTemplate],
        max_workers: int,
        deadline_seconds: Optional[float] = None,
    ) -> None:
        if template is None and not isinstance(graph, ChunkedGraph):
            raise ValueError(
                "only chunked graphs may be scheduled without a system template"
            )
        if not shared_memory_available():
            raise SharedMemoryUnavailable(
                "shared-memory segments cannot be created in this environment"
            )
        plan = faults.active()
        if plan is not None and plan.fire(faults.SHM_ATTACH_FAILURE, "sweep.plan"):
            raise SharedMemoryUnavailable("injected shared-memory attach failure")
        self.graph = graph
        self.template = template
        self.max_workers = max(1, int(max_workers))
        self.deadline_seconds = deadline_seconds

    def _await(self, futures: Sequence[Future]) -> None:
        """Drain one wave of chunk futures, enforcing the deadline if set."""
        if self.deadline_seconds is not None:
            _, not_done = wait(futures, timeout=self.deadline_seconds)
            if not_done:
                # A wave past its deadline means at least one hung worker.
                # Kill them all: the stuck futures fail with
                # BrokenProcessPool below, and run()'s retry path rebuilds.
                shared_pool.kill_workers()
        for future in futures:
            future.result()

    def _submit_chunks(self, manifest: dict, chunks) -> None:
        """Run every chunk to completion on the persistent pool."""
        self._await(
            [
                shared_pool.submit(
                    "solve", len(chunks), _worker_run_chunk, manifest, chunk
                )
                for chunk in chunks
            ]
        )

    def run(self, rate_matrix: np.ndarray) -> SweepOutcome:
        """Solve every row of the ``(S, T)`` rate matrix; returns all outputs.

        Rows are split into contiguous chunks, one per worker; the solution
        block is copied out of the shared segment before it is unlinked.
        A persistent pool whose workers died (e.g. OOM-killed) is rebuilt
        once and the batch retried before the failure propagates.
        """
        rate_matrix = np.ascontiguousarray(rate_matrix, dtype=np.float64)
        scenarios = rate_matrix.shape[0]
        chunks = contiguous_chunks(scenarios, self.max_workers)
        if not chunks:
            n = self.graph.number_of_states
            return SweepOutcome(
                solutions=np.zeros((0, n)),
                solve_seconds=np.zeros(0),
                status=np.zeros(0, dtype=np.int8),
            )
        with SweepPlan(self.graph, self.template, rate_matrix) as plan:
            manifest = plan.manifest()
            try:
                self._submit_chunks(manifest, chunks)
            except BrokenProcessPool:
                shared_pool.rebuild()
                if self.deadline_seconds is not None:
                    # The death may have been the watchdog's own kill of a
                    # slow-but-healthy wave; give the retry more room.
                    self.deadline_seconds *= 2
                self._submit_chunks(manifest, chunks)
            solutions = np.array(plan.solutions)
            solve_seconds = np.array(plan.times)
            status = np.array(plan.status)
        if np.any(status == STATUS_PENDING):
            unsolved = np.flatnonzero(status == STATUS_PENDING)
            raise RuntimeError(
                f"{unsolved.size} scenario(s) came back unsolved from the "
                f"worker pool (first: {int(unsolved[0])})"
            )
        return SweepOutcome(
            solutions=solutions, solve_seconds=solve_seconds, status=status
        )
