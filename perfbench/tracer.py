"""Span tracer for the benchmark's traced runs.

The benchmark wraps the public functions and methods of every layer from its
own files; nothing under ``src/`` changes.  Each wrapped call becomes a span
(name, start, end, enclosing span on the same thread), and counters are read
off the calls' arguments, return values and public attributes.  ``install``
lists every wrapped call and the span it opens.

Pool workers fork after the wrappers are installed, so they record spans
too.  A worker spools its spans to a file when it exits; the parent merges
the files after the run has shut its pool down.

Attribution (``attribute``): every instant of the traced call is charged to
the spans running at that instant that have no running child span, split
evenly when several run at once (threads of the grid pipeline, pool
workers).  Without concurrency this is each span's self time, its duration
minus the time its child spans cover.  Either way the shares add up to the
traced wall clock; the root span's own share is ``grid.unattributed_s``.
A span with nothing open on its own thread (a pipeline solve thread, a pool
worker) is a child of the span that dispatched it (``DISPATCHERS``).
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util as mp_util
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Name of the span around the benchmark's own ``evaluate_grid`` call.
ROOT = "grid.unattributed"

#: Every span name; each one's share is reported as ``<name>_s``.
SPANS = (
    "casestudy.build",
    "spn.compile",
    "spn.generate",
    "cache.load",
    "cache.store",
    "statespace.solve",
    "system.assemble",
    "krylov.factor",
    "krylov.gmres",
    "measures.compile",
    "measures.eval",
    "batch.run",
    "parallel.fanout",
    "grid.run",
    "trace.check",
    ROOT,
)

#: Source key of the spans the calling process records itself.
MAIN = "main"

#: Spans that dispatch work to other threads or processes, and which of them
#: dispatched a span that starts with nothing open on its own thread, most
#: specific first: generation runs on the grid's pool and pipeline solves on
#: the grid's threads; solver spans run under a sweep fan-out or a batch.
DEFAULT_DISPATCHERS = ("parallel.fanout", "batch.run", "grid.run")
DISPATCHERS = {
    name: ("grid.run",)
    for name in ("batch.run", "spn.compile", "spn.generate", "cache.load", "cache.store")
}


class Tracer:
    """Spans and counters of one process; forked workers start empty."""

    def __init__(self, spool_directory: os.PathLike) -> None:
        self.spool_directory = Path(spool_directory)
        self._reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index, thread_id]`` per span.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _after_fork(self) -> None:
        # Runs in a multiprocessing child after its finalizer registry was
        # cleared, so this finalizer survives until the worker exits.
        self._reset()
        mp_util.Finalize(None, self.spool, exitpriority=100)

    # --- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        start = time.monotonic_ns()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, start, start, parent, threading.get_ident()])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.monotonic_ns()
        self._stack().pop()

    def current(self) -> str | None:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return self.spans[stack[-1]][0] if stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima.get(name, value), value)

    def note_solve(self) -> None:
        """Count one ReusableSolver solve on this thread (probe accounting)."""
        self._local.solves = self.thread_solves() + 1

    def thread_solves(self) -> int:
        return getattr(self._local, "solves", 0)

    # --- worker hand-off --------------------------------------------------

    def spool(self) -> None:
        """Write this worker's spans and counters for the parent to merge."""
        if not self.spans and not self.counts:
            return
        self.spool_directory.mkdir(parents=True, exist_ok=True)
        name = f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
        payload = {"spans": self.spans, "counts": self.counts, "maxima": self.maxima}
        (self.spool_directory / name).write_text(json.dumps(payload))

    def collect(self) -> tuple[dict, dict, dict]:
        """Spans keyed ``(source, index)``, summed counts and maxima of this
        process and every spooled worker (call after the pool shut down)."""
        spans = {(MAIN, index): record for index, record in enumerate(self.spans)}
        counts = defaultdict(float, self.counts)
        maxima = dict(self.maxima)
        for path in sorted(self.spool_directory.glob("worker-*.json")):
            payload = json.loads(path.read_text())
            for index, record in enumerate(payload["spans"]):
                spans[(path.stem, index)] = record
            for name, value in payload["counts"].items():
                counts[name] += value
            for name, value in payload["maxima"].items():
                maxima[name] = max(maxima.get(name, value), value)
        return spans, counts, maxima


def logical_parents(spans: dict, root_key) -> dict:
    """Parent of every span: the enclosing span on its own thread, else the
    latest-started open dispatcher of the calling process, else the root."""
    dispatchers = [
        (key, record)
        for key, record in spans.items()
        if key[0] == MAIN and record[0] in DEFAULT_DISPATCHERS
    ]
    parents = {}
    for key, (name, start, _, parent, _) in spans.items():
        if key == root_key:
            parents[key] = None
        elif parent >= 0:
            parents[key] = (key[0], parent)
        else:
            parents[key] = root_key
            for wanted in DISPATCHERS.get(name, DEFAULT_DISPATCHERS):
                open_then = [
                    (record[1], candidate)
                    for candidate, record in dispatchers
                    if record[0] == wanted and record[1] <= start < record[2]
                ]
                if open_then:
                    parents[key] = max(open_then)[1]
                    break
    return parents


def attribute(spans: dict, parents: dict, root_key) -> dict[str, float]:
    """Seconds of the root span's interval charged to each span name."""
    low, high = spans[root_key][1], spans[root_key][2]
    events = []
    for key, (_, start, end, _, _) in spans.items():
        start, end = max(start, low), min(end, high)
        if end > start or key == root_key:
            events.append((start, 1, key))
            events.append((end, 0, key))
    # At equal times closes sort first, so a finished span never looks busy.
    events.sort(key=lambda event: (event[0], event[1]))
    active: set = set()
    running_children: dict = defaultdict(int)
    charged: dict[str, float] = defaultdict(float)
    previous = low
    for moment, opening, key in events:
        if moment > previous and active:
            leaves = [span for span in active if running_children[span] == 0]
            share = (moment - previous) / len(leaves)
            for leaf in leaves:
                charged[spans[leaf][0]] += share
        previous = max(previous, moment)
        parent = parents[key]
        if opening:
            active.add(key)
            if parent is not None:
                running_children[parent] += 1
        else:
            active.discard(key)
            if parent is not None:
                running_children[parent] -= 1
    return {name: nanoseconds / 1e9 for name, nanoseconds in charged.items()}


def total_duration(spans: dict, name: str) -> float:
    """Summed duration in seconds of every span called ``name``."""
    return sum(
        (record[2] - record[1]) / 1e9 for record in spans.values() if record[0] == name
    )


# --- residuals --------------------------------------------------------------


def constrained_system_residual(solver, edge_rates, probabilities) -> float:
    """‖πQ‖∞ over the largest exit rate, from a ReusableSolver's system.

    The filled system's rows above the last are rows of ``Qᵀ``, so
    ``(Aπ)_j = (πQ)_j`` there; the last entry of ``πQ`` is minus their sum
    because the rows of ``Q`` sum to zero.
    """
    pi = np.asarray(probabilities, dtype=np.float64)
    head = (solver.system @ pi)[:-1]
    exit_rates = np.bincount(
        solver.template.edge_sources, weights=edge_rates, minlength=pi.size
    )
    worst = max(float(np.abs(head).max(initial=0.0)), abs(float(head.sum())))
    return worst / float(exit_rates.max())


def chunked_residual(graph, rate_vector, probabilities) -> float:
    """‖πQ‖∞ over the largest exit rate, streamed over a chunked graph."""
    pi = np.asarray(probabilities, dtype=np.float64)
    n = graph.number_of_states
    flow = np.zeros(n)
    exit_rates = np.zeros(n)
    for _, sources, targets, rates in graph.edge_chunks(rate_vector):
        flow += np.bincount(targets, weights=rates * pi[sources], minlength=n)
        exit_rates += np.bincount(sources, weights=rates, minlength=n)
    flow -= exit_rates * pi
    return float(np.abs(flow).max()) / float(exit_rates.max())


# --- wrappers --------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, function, after=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _patch_method(cls, name: str, make) -> None:
    original = cls.__dict__[name]
    if isinstance(original, classmethod):
        setattr(cls, name, classmethod(make(original.__func__)))
    else:
        setattr(cls, name, make(original))


def _patch_everywhere(original, wrapper) -> None:
    """Replace the function ``original`` at every ``repro`` import site."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


class _CountingFactor:
    """A splu/spilu factor whose ``solve`` counts preconditioner applications."""

    def __init__(self, factor, tracer: Tracer) -> None:
        self._factor = factor
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        self._tracer.count("krylov.precond_applies")
        return self._factor.solve(rhs, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._factor, name)


class _TracedLinalg:
    """``scipy.sparse.linalg`` as ``repro.engine.krylov`` sees it when traced."""

    def __init__(self, linalg, tracer: Tracer) -> None:
        self._linalg = linalg
        self.gmres = _spanned(tracer, "krylov.gmres", linalg.gmres)
        self.splu = self._factorization(linalg.splu, tracer)
        self.spilu = self._factorization(linalg.spilu, tracer)

    @staticmethod
    def _factorization(function, tracer: Tracer):
        @functools.wraps(function)
        def factorize(matrix, *args, **kwargs):
            index = tracer.open("krylov.factor")
            try:
                factor = function(matrix, *args, **kwargs)
            finally:
                tracer.close(index)
            tracer.count("krylov.factorizations")
            tracer.count("krylov.factor_nnz", factor.nnz)
            tracer.count("krylov.matrix_nnz", matrix.nnz)
            return _CountingFactor(factor, tracer)

        return factorize

    def __getattr__(self, name):
        return getattr(self._linalg, name)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (call before the traced run)."""
    from scipy.sparse import linalg as sparse_linalg

    import repro.casestudy.grid as casestudy_grid
    import repro.engine.batch as batch
    import repro.engine.cache as cache
    import repro.engine.grid as engine_grid
    import repro.engine.krylov as krylov
    import repro.engine.measures as measures
    import repro.engine.parallel as parallel
    import repro.engine.system as system
    import repro.spn.enabling as enabling
    import repro.spn.reachability as reachability
    import repro.statespace.chunked as chunked

    def spanned_method(name, after=None):
        return lambda function: _spanned(tracer, name, function, after)

    # casestudy + core: scenario -> model -> net.
    _patch_everywhere(
        casestudy_grid.scenario_case,
        _spanned(
            tracer,
            "casestudy.build",
            casestudy_grid.scenario_case,
            lambda args, case: tracer.count("casestudy.cases"),
        ),
    )

    # spn: compilation and generation, in RAM or streamed to chunks.
    _patch_method(enabling.CompiledNet, "__init__", spanned_method("spn.compile"))

    def generated(args, graph):
        tracer.count("spn.states", graph.number_of_states)
        tracer.count("spn.edges", graph.number_of_transitions)

    for function in (
        reachability.generate_tangible_reachability_graph,
        chunked.write_chunked_graph,
    ):
        _patch_everywhere(
            function, _spanned(tracer, "spn.generate", function, generated)
        )

    # engine.cache: loads (hit or miss) and stores.
    def loaded(args, graph):
        tracer.count("cache.hits" if graph is not None else "cache.misses")

    for method in ("load", "load_chunked"):
        _patch_method(cache.TRGCache, method, spanned_method("cache.load", loaded))
    for method in ("store", "generate_chunked"):
        _patch_method(cache.TRGCache, method, spanned_method("cache.store"))

    # statespace: chunk reads and matrix-free solves.
    def chunk_read(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            array = function(*args, **kwargs)
            if tracer.current() != "trace.check":
                tracer.count("statespace.read_bytes", array.nbytes)
            return array

        return wrapper

    _patch_method(chunked.ChunkedGraph, "chunk_array", chunk_read)

    def matrix_free(function):
        @functools.wraps(function)
        def wrapper(self, rate_vector=None, *args, **kwargs):
            index = tracer.open("statespace.solve")
            try:
                result = function(self, rate_vector, *args, **kwargs)
            finally:
                tracer.close(index)
            index = tracer.open("trace.check")
            try:
                rates = self.graph.rate_vector if rate_vector is None else rate_vector
                residual = chunked_residual(self.graph, rates, result)
            finally:
                tracer.close(index)
            tracer.maximum("krylov.residual_max", residual)
            return result

        return wrapper

    _patch_method(krylov.MatrixFreeSolver, "solve", matrix_free)

    # engine.system: symbolic assembly and per-scenario refills.
    for method in ("__init__", "refill", "from_shared_arrays"):
        _patch_method(
            system.ConstrainedSystemTemplate, method, spanned_method("system.assemble")
        )
    _patch_method(
        system.ConstrainedSystemTemplate,
        "fresh_system",
        spanned_method(
            "system.assemble",
            lambda args, matrix: tracer.maximum("system.nnz", matrix.nnz),
        ),
    )

    # engine.krylov: factorizations, GMRES and the solves around them.
    krylov.sparse_linalg = _TracedLinalg(sparse_linalg, tracer)

    def reusable(function):
        @functools.wraps(function)
        def wrapper(self, edge_rates, *args, **kwargs):
            result = function(self, edge_rates, *args, **kwargs)
            tracer.count("krylov.solves")
            tracer.note_solve()
            if self.last_solve_used_fallback:
                tracer.count("krylov.fallbacks")
            index = tracer.open("trace.check")
            try:
                residual = constrained_system_residual(self, edge_rates, result)
            finally:
                tracer.close(index)
            tracer.maximum("krylov.residual_max", residual)
            return result

        return wrapper

    _patch_method(krylov.ReusableSolver, "solve", reusable)

    # engine.measures: reward compilation and the measure GEMM.
    _patch_method(
        measures.RewardMatrix, "from_measures", spanned_method("measures.compile")
    )
    _patch_method(measures.RewardMatrix, "evaluate", spanned_method("measures.eval"))

    # engine.batch and engine.dispatch: batch runs, and the probe solves an
    # auto dispatch runs on the calling thread before fanning out.
    def batch_run(function):
        @functools.wraps(function)
        def wrapper(self, *args, **kwargs):
            outermost = tracer.current() != "batch.run"
            solves_before = tracer.thread_solves()
            index = tracer.open("batch.run")
            try:
                result = function(self, *args, **kwargs)
            finally:
                tracer.close(index)
            if outermost and self.last_run_backend == "process":
                tracer.count(
                    "parallel.probe_solves", tracer.thread_solves() - solves_before
                )
            return result

        return wrapper

    _patch_method(batch.ScenarioBatchEngine, "run", batch_run)

    # engine.parallel: the process fan-out of one sweep.
    _patch_method(
        parallel.SweepScheduler,
        "run",
        spanned_method(
            "parallel.fanout",
            lambda args, outcome: tracer.maximum("parallel.workers", args[0].max_workers),
        ),
    )

    # engine.grid: the orchestrated run.
    _patch_method(engine_grid.ScenarioGridOrchestrator, "run", spanned_method("grid.run"))
