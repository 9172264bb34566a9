"""Structure-grouped scenario-grid orchestrator.

:class:`ScenarioBatchEngine` (PRs 1–4) evaluates many scenarios that share
**one** tangible reachability graph.  Real workloads — the paper's Table VII
mixes single-site baselines with 1/2/4 machines, two-data-center deployments
and backup ablations — are *grids* of scenarios with heterogeneous net
structures.  ``ScenarioGridOrchestrator`` turns such a grid into one
workload:

* every case's net is compiled and keyed by its **rate-independent
  structure** (:func:`repro.engine.cache.cache_key`: places, arcs, guards
  and immediate race data, plus the exploration limit and the identity of
  the case's :class:`~repro.symmetry.spec.SymmetrySpec`); cases with equal
  keys share one tangible reachability graph up to a re-rating and form one
  *structure group*, stored as one cache entry;
* the distinct graphs are obtained through a work-stealing pipeline:
  :class:`~repro.engine.cache.TRGCache` hits skip generation outright, and
  the misses are generated on the persistent process pool of
  :mod:`repro.engine.parallel` (each worker writes its graph into the cache,
  which doubles as the zero-pickle transport back to the parent) — or in
  the parent when only one generation can run at a time;
* each group is solved the moment its graph lands, through a
  :class:`~repro.engine.batch.ScenarioBatchEngine` (re-rate + warm-started
  re-solves, one solve per distinct rate vector, measures in one GEMM, and
  the engine's static fan-out rule picking serial or process per group);
* everything merges into one unified result frame — input order preserved,
  with per-group provenance (states, solve path, cache hit, generate and
  solve seconds) — optionally streamed to JSONL shards while later groups
  are still solving, so arbitrarily large grids never hold all rows in one
  report consumer.

A case's lumping is its frozen, picklable ``SymmetrySpec``: the parent
groups, validates and caches by it, and the generation workers receive it
as it is.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import threading
import time
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from pickle import PicklingError
from typing import Callable, Mapping, Optional, Sequence

from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro.engine import dispatch, faults
from repro.engine.atomicio import fsync_file, replace_durably, write_text_durably
from repro.engine.batch import ScenarioBatchEngine, ScenarioSpec
from repro.engine.cache import TRGCache, cache_key, load_or_generate
from repro.engine.dispatch import BackendPlan, plan_representation
from repro.engine.faults import FailureRecord, RetryPolicy
from repro.engine.parallel import install_signal_cleanup, shared_pool
from repro.spn.enabling import CompiledNet
from repro.spn.model import StochasticPetriNet
from repro.spn.reachability import DEFAULT_MAX_TANGIBLE_MARKINGS
from repro.spn.rewards import Measure, validate_measures
from repro.symmetry.canonicalize import rate_vector_key
from repro.symmetry.spec import SymmetrySpec
from repro.symmetry.validate import (
    measure_is_symmetric,
    validate_measure_symmetry,
    validate_rate_symmetry,
    validate_spec_for_net,
)

#: Rows per streamed JSONL shard (see ``shard_directory``).
DEFAULT_SHARD_SIZE = 256


@dataclass(frozen=True)
class GridCase:
    """One cell of a scenario grid.

    Attributes:
        name: unique row label of the case in the result frame.
        net: the declarative net of this scenario's structure (each case may
            have its own structure; equal rate-independent structures are
            grouped).  Cases of one structure may share one net object,
            whose own timed rates then belong to one of them; grouping and
            compilation are memoized per net object.
        measures: reward measures to evaluate for this case (cases of one
            group may differ; the orchestrator evaluates the union).
        rates: rates by transition name, overriding the net's own.  The
            orchestrator always re-rates a group's shared graph with the
            case's **full** rate assignment (the net's rates overlaid with
            these), so grouping never changes a case's numbers.  The
            case-study builders give every timed transition's rate here.
        metadata: free-form, JSON-able annotations carried into the result
            frame and the streamed shards.
        symmetry: optional :class:`~repro.symmetry.spec.SymmetrySpec` the
            case's graph is lumped under; its ``cache_id`` is part of the
            structure key.
        rate_symmetry: optional *structural* ``SymmetrySpec`` declaring
            which timed-transition blocks of this case's structure are
            exchangeable **up to a rate permutation**.  Unlike ``symmetry``
            (which requires the case's own rates to be symmetric), this
            spec only claims structural exchangeability: the orchestrator
            uses it to give the batch engine's dedupe a symmetry-aware rate
            digest, so cases of one group whose rate vectors differ only by
            a permutation of exchangeable blocks share one stationary
            solve.  It never changes the graph and is only honoured when
            every measure of the group is invariant under the spec's group
            (checked per run, silent fallback to the bit-exact digest
            otherwise).
    """

    name: str
    net: StochasticPetriNet
    measures: tuple[Measure, ...]
    rates: Mapping[str, float] = field(default_factory=dict)
    metadata: Mapping[str, object] = field(default_factory=dict)
    symmetry: Optional[SymmetrySpec] = None
    rate_symmetry: Optional[SymmetrySpec] = None

    def full_rates(self) -> dict[str, float]:
        """The complete timed-rate assignment of this case."""
        rates = {
            transition.name: float(transition.rate)
            for transition in self.net.transitions
            if not transition.immediate
        }
        rates.update({name: float(value) for name, value in self.rates.items()})
        return rates

    def graph(self, cache: Optional[TRGCache] = None):
        """``(graph, source)`` of this case's structure, outside a grid run.

        :func:`~repro.engine.cache.load_or_generate` on the case's net and
        symmetry spec; the graph carries the net's own rates, so solve it
        with :meth:`full_rates` when ``rates`` overrides any.
        """
        return load_or_generate(CompiledNet(self.net), cache, symmetry=self.symmetry)


@dataclass
class GridCaseResult:
    """One row of the unified grid result frame.

    ``solve_source`` tells how the row's stationary vector was obtained:
    ``"solved"``, ``"deduped"`` (shared with an earlier rate-identical case
    of the same group; see :meth:`ScenarioBatchEngine.run`) or
    ``"checkpoint"`` (restored from a previous run's shards by a resumed
    run instead of being re-solved).  ``grid_index`` is the case's position
    in the input grid (``-1`` on rows built outside a grid run).
    """

    name: str
    measures: dict[str, float]
    number_of_states: int
    group: str
    backend: str
    graph_source: str
    solve_seconds: float
    metadata: Mapping[str, object] = field(default_factory=dict)
    solve_source: str = "solved"
    grid_index: int = -1

    def value(self, measure_name: str) -> float:
        return self.measures[measure_name]

    def as_record(self, index: int) -> dict:
        """JSON-able representation (used by the streamed shards)."""
        return {
            "index": index,
            "name": self.name,
            "group": self.group,
            "measures": dict(self.measures),
            "number_of_states": self.number_of_states,
            "backend": self.backend,
            "graph_source": self.graph_source,
            "solve_seconds": self.solve_seconds,
            "solve_source": self.solve_source,
            "metadata": dict(self.metadata),
        }


@dataclass
class GridGroupReport:
    """Provenance of one structure group of a grid run.

    The ``*_at`` fields are offsets in seconds from the start of the
    orchestrated run, so a consumer (the benchmark JSON) can reconstruct the
    per-group timeline and *verify* that the pipeline overlapped stages —
    group A's ``solve_started_at`` falling before group B's
    ``generate_finished_at`` is overlap, not assertion.
    ``queue_wait_seconds`` is how long the group sat ready-to-solve before
    a solve slot picked it up (the work-stealing queue's latency).

    The ``symmetry*`` fields are the group's **lumping provenance**: with a
    :class:`~repro.symmetry.spec.SymmetrySpec`, ``symmetry`` names the
    lumping kind (``"pm"``, ``"dc+pm"``), ``symmetry_group_order`` is the
    declared group's order ``|G|``, each of the ``number_of_states``
    tangible states is one orbit, and ``states_before_estimate`` is the
    ``number_of_states × |G|`` upper bound on the unlumped tangible count
    (exact only when every orbit is free; boundary orbits — e.g. markings
    with identical machine blocks — are smaller, so the true unlumped count
    is ≤ the estimate).
    """

    key: str
    cases: int
    number_of_states: int
    graph_source: str  # "cache" | "generated" | "generated:pool"
    backend: str
    generate_seconds: float
    solve_seconds: float
    generate_finished_at: float = 0.0
    solve_started_at: float = 0.0
    queue_wait_seconds: float = 0.0
    deduped_cases: int = 0
    #: How many times the group's graph generation ran (1 on the happy
    #: path; more after injected or real worker failures and retries).
    generate_attempts: int = 1
    #: How many times the group's batch solve ran (1 on the happy path).
    solve_attempts: int = 1
    #: Lumping provenance (``None``/1/``None`` when the group ran unlumped).
    symmetry: Optional[str] = None
    symmetry_group_order: int = 1
    states_before_estimate: Optional[int] = None
    #: State-space representation the memory planner routed this group to
    #: (``"in_ram"`` or ``"chunked"``) and why.
    representation: str = "in_ram"
    planner_reason: Optional[str] = None
    #: Planner inputs: estimated peak bytes of the chosen representation
    #: and the budget it was compared against (``None`` = unbounded).
    estimated_peak_bytes: Optional[int] = None
    memory_budget_bytes: Optional[int] = None
    #: Process-wide peak RSS (self + reaped children) sampled when the
    #: group's solve finished — monotone within a process, so this is an
    #: upper bound attributable to work up to and including this group.
    peak_rss_bytes: Optional[int] = None

    @property
    def cache_hit(self) -> bool:
        return self.graph_source == "cache"

    @property
    def lumped(self) -> bool:
        """Whether this group's graph was built under a symmetry spec."""
        return self.symmetry is not None

    def lumping(self) -> dict:
        """JSON-able lumping provenance (recorded by the benchmarks)."""
        return {
            "symmetry": self.symmetry,
            "group_order": self.symmetry_group_order,
            "orbits": self.number_of_states,
            "states_before_estimate": self.states_before_estimate,
        }

    def timeline(self) -> dict:
        """JSON-able per-group timeline (recorded by the benchmarks)."""
        return {
            "generate_finished_at": round(self.generate_finished_at, 4),
            "solve_started_at": round(self.solve_started_at, 4),
            "queue_wait_seconds": round(self.queue_wait_seconds, 4),
            "generate_seconds": round(self.generate_seconds, 4),
            "solve_seconds": round(self.solve_seconds, 4),
        }


@dataclass
class GridOutcome:
    """Unified result frame of one orchestrated grid.

    ``results`` preserves the input case order; ``groups`` report the
    distinct structures in first-appearance order.  ``deduped_cases`` counts
    the grid rows that shared an earlier rate-identical row's stationary
    vector instead of solving.

    A run that quarantined tasks is **partial**: the unsolvable cases are
    missing from ``results`` and accounted for — stage, attempt count,
    final error — in ``failures``.  ``pool_rebuilds``/``watchdog_kills``
    record the self-healing activity of the run (worker-pool replacements
    after abrupt deaths, hung workers killed past their deadline), and
    ``restored_cases`` how many rows a resumed run recovered from a
    previous run's checkpoint shards instead of re-solving.

    ``interrupted`` marks a run stopped early through the orchestrator's
    ``cancel_event``: in-flight group solves were allowed to finish (and
    were checkpointed), but no new work was dispatched, so some cases are
    missing from ``results`` without being failures — a later resumed run
    against the same shard directory picks up exactly where this one
    stopped.
    """

    results: list[GridCaseResult]
    groups: list[GridGroupReport]
    total_seconds: float
    shard_paths: list[Path] = field(default_factory=list)
    deduped_cases: int = 0
    failures: list[FailureRecord] = field(default_factory=list)
    pool_rebuilds: int = 0
    watchdog_kills: int = 0
    restored_cases: int = 0
    interrupted: bool = False

    @property
    def partial(self) -> bool:
        """Whether any case was quarantined instead of solved."""
        return bool(self.failures)

    def failed_cases(self) -> list[str]:
        """Names of every quarantined case, in failure order."""
        return [name for record in self.failures for name in record.cases]

    def result(self, name: str) -> GridCaseResult:
        for row in self.results:
            if row.name == name:
                return row
        raise KeyError(f"no grid case named {name!r}")

    def as_records(self) -> list[dict]:
        return [
            row.as_record(row.grid_index if row.grid_index >= 0 else position)
            for position, row in enumerate(self.results)
        ]


@dataclass
class _Group:
    """Internal bookkeeping of one structure group during a run."""

    key: str
    representative: GridCase
    compiled: CompiledNet
    symmetry: Optional[SymmetrySpec]
    case_indices: list[int] = field(default_factory=list)
    graph: object = None
    graph_source: str = ""
    generate_seconds: float = 0.0
    #: Offset (seconds from run start) at which the graph became available.
    generate_finished_at: float = 0.0
    #: Workers granted to this group's solve by the pipeline budget.
    solve_grant: int = 1
    #: Generation / solve attempts so far (retries increment these).
    generate_attempts: int = 0
    solve_attempts: int = 0
    #: Earliest ``perf_counter`` time a requeued generation may redispatch
    #: (exponential backoff between retries).
    not_before: float = 0.0
    #: Memory-planner routing of this group (filled before generation).
    plan: Optional[BackendPlan] = None

    @property
    def representation(self) -> str:
        return self.plan.representation if self.plan is not None else "in_ram"


def _generate_into_cache(
    net: StochasticPetriNet,
    max_states: int,
    cache_directory: str,
    symmetry: Optional[SymmetrySpec],
    representation: str = "in_ram",
) -> float:
    """Worker-side TRG generation; the cache entry is the transport back.

    Module-level (and argument-picklable) so the persistent process pool of
    :mod:`repro.engine.parallel` can run it; returns the generation seconds.
    ``representation="chunked"`` streams the graph to an on-disk chunk entry
    instead of materialising it (the worker's own footprint stays bounded).
    """
    started = time.perf_counter()
    load_or_generate(
        CompiledNet(net),
        TRGCache(cache_directory),
        max_states=max_states,
        symmetry=symmetry,
        representation=representation,
    )
    return time.perf_counter() - started


def load_checkpoint(directory: Path) -> dict[str, dict]:
    """Completed case records of a directory's checkpoint shards, by name.

    Reads every ``grid-shard-*.jsonl`` of ``directory`` leniently: an
    unreadable shard, a torn trailing line (a writer killed mid-``write``
    before the atomic-rename writer landed) or a non-record document is
    skipped, never fatal — a resumed run simply re-solves whatever it cannot
    restore.  Later shards win on duplicate names.
    """
    records: dict[str, dict] = {}
    for path in sorted(Path(directory).glob("grid-shard-*.jsonl")):
        try:
            text = path.read_text()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and isinstance(record.get("name"), str):
                if isinstance(record.get("measures"), dict):
                    records[record["name"]] = record
    return records


class _ShardWriter:
    """Streams result records to fixed-size JSONL shards as groups finish.

    Thread-safe: the pipelined orchestrator appends from concurrent group
    solves (records always carry their original grid ``index``, so shard
    order is group-completion order on every path).

    The shard files double as the run's **checkpoint**: each shard is
    written to a temporary file and atomically renamed into place, so a
    killed run leaves only whole shards behind and
    :func:`load_checkpoint` can trust every line it parses.  In ``resume``
    mode existing shards are kept (they hold the completed cases a resumed
    run restores) and new shards continue the numbering after them.
    """

    def __init__(self, directory: Path, shard_size: int, resume: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        existing = sorted(self.directory.glob("grid-shard-*.jsonl"))
        if resume:
            numbers = []
            for path in existing:
                try:
                    numbers.append(int(path.stem.rsplit("-", 1)[-1]))
                except ValueError:
                    continue
            self._next_shard = max(numbers) + 1 if numbers else 0
        else:
            # Shards are numbered from zero each fresh run; stale shards
            # from a previous (larger) run must not survive next to the
            # fresh ones, or a consumer globbing grid-shard-*.jsonl would
            # mix the two grids.
            for stale in existing:
                stale.unlink()
            self._next_shard = 0
        self.shard_size = max(1, int(shard_size))
        #: Shards written by *this* run (a resumed run's outcome does not
        #: re-claim the previous run's files).
        self.paths: list[Path] = []
        self._pending: list[dict] = []
        self._lock = threading.Lock()

    def append(self, record: dict) -> None:
        with self._lock:
            self._pending.append(record)
            if len(self._pending) >= self.shard_size:
                self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._pending:
            return
        path = self.directory / f"grid-shard-{self._next_shard:04d}.jsonl"
        descriptor, temporary = tempfile.mkstemp(
            dir=self.directory, prefix=".shard-", suffix=".tmp"
        )
        try:
            with open(descriptor, "w") as handle:
                for record in self._pending:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
                # fsync before the rename: the atomic replace alone only
                # survives process death — after a power loss an unflushed
                # shard (or the rename itself) may simply be gone, and a
                # "checkpoint" that evaporates is no checkpoint.
                handle.flush()
                fsync_file(handle.fileno())
            replace_durably(temporary, path)
        except BaseException:
            Path(temporary).unlink(missing_ok=True)
            raise
        self._next_shard += 1
        self.paths.append(path)
        self._pending = []


class ScenarioGridOrchestrator:
    """Evaluates a grid of heterogeneous scenarios as one workload.

    Each structure group is solved by one
    :class:`~repro.engine.batch.ScenarioBatchEngine` under its fixed solver
    policy and fan-out rule; the orchestrator chooses representations and
    each group's worker budget, never the solver or how it fans out.  Cases
    of one group whose rate vectors are identical (or, under a declared
    :attr:`GridCase.rate_symmetry`, identical up to a permutation of
    exchangeable blocks) share one stationary solve, surfaced per group in
    :attr:`GridGroupReport.deduped_cases` and grid-wide in
    :attr:`GridOutcome.deduped_cases`; measures stay per case.

    Args:
        cache: optional persistent :class:`TRGCache`; hits skip generation
            and generated graphs are stored for the next run.  Without a
            cache a throwaway directory is still used as the transport
            between generation workers and the parent.
        max_states: tangible state-space limit of every generation (part of
            the grouping fingerprint).
        jobs: total worker budget the pipeline splits between generation
            and group solves (defaults to the effective CPU cores); each
            group's share is forwarded to :meth:`ScenarioBatchEngine.run`.
        generation_workers: process-pool width of the generation stage;
            defaults to the worker budget, clamped to the number of distinct
            structures that actually need generating.  At width one the
            graphs are generated in the parent, one at a time, while
            already-generated groups solve.
        shard_directory: when set, result rows are streamed to JSONL shards
            (``grid-shard-0000.jsonl``…) in group-completion order while the
            remaining groups are still solving; each record carries its
            original grid ``index`` for reassembly.  The directory holds
            exactly one grid's shards: any ``grid-shard-*.jsonl`` files from
            a previous run are removed when the run starts.
        shard_size: rows per shard file.
        memory_budget: peak-memory budget in bytes for the per-group
            representation planner (:func:`~repro.engine.dispatch.
            plan_representation`).  ``None`` resolves the default chain —
            the ``REPRO_MEMORY_BUDGET`` environment variable, else half the
            machine's available RAM.  Each structure group's estimated
            in-RAM footprint is compared against the budget before any
            generation: groups that fit run on the in-RAM backend, groups
            that do not are routed to the out-of-core chunked backend
            (on-disk CSR chunks, solved by :class:`~repro.engine.krylov.
            MatrixFreeSolver`), and groups too large
            even for chunked are **refused** — quarantined with a sizing
            message instead of thrashing the machine.
        retry: self-healing policy (:class:`~repro.engine.faults.
            RetryPolicy`): per-task retries with exponential backoff,
            per-kind deadlines, the pool restart budget.  A task still
            failing after its retries is **quarantined** — its cases land in
            :attr:`GridOutcome.failures` as a structured
            :class:`~repro.engine.faults.FailureRecord` instead of aborting
            the run.  Defaults to ``RetryPolicy()``.
        resume: restore completed cases from the checkpoint shards already
            present in ``shard_directory`` (matched by case name, marked
            ``solve_source="checkpoint"``) and dispatch only the missing
            ones.  Requires ``shard_directory``.
        cancel_event: optional :class:`threading.Event`; once set, the run
            stops dispatching new work at the next group boundary, lets the
            in-flight group solves finish (checkpointing them), flushes the
            shards and returns with :attr:`GridOutcome.interrupted` set.
            The cooperative cancellation hook of the availability service —
            a cancelled or drained job leaves a clean checkpoint a resumed
            run completes bit-identically.
        log_callback: optional one-string-argument callable receiving live
            progress lines (groups generated/solving/done, dedupe hits);
            ``None`` keeps the run silent.
    """

    def __init__(
        self,
        *,
        cache: Optional[TRGCache] = None,
        max_states: int = DEFAULT_MAX_TANGIBLE_MARKINGS,
        jobs: Optional[int] = None,
        generation_workers: Optional[int] = None,
        shard_directory: Optional[Path] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        memory_budget: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        resume: bool = False,
        cancel_event: Optional[threading.Event] = None,
        log_callback: Optional[Callable[[str], None]] = None,
    ) -> None:
        if resume and shard_directory is None:
            raise ValueError("resume=True needs a shard_directory to resume from")
        self.cache = cache
        self.max_states = max_states
        self.jobs = jobs
        self.generation_workers = generation_workers
        self.shard_directory = shard_directory
        self.shard_size = shard_size
        self.memory_budget = memory_budget
        self.retry = retry if retry is not None else RetryPolicy()
        self.resume = resume
        self.cancel_event = cancel_event
        self.log_callback = log_callback

    @classmethod
    def attach(cls, directory: Path, **kwargs) -> "ScenarioGridOrchestrator":
        """Resume-by-directory entry point.

        Builds an orchestrator that checkpoints into ``directory`` and
        restores whatever completed cases its shards already hold — the
        one-liner a crash-recovering caller (the availability service, a
        ``repro grid --resume`` equivalent) uses to re-attach to a run that
        was killed mid-grid.  Any other constructor keyword passes through.
        """
        kwargs.pop("shard_directory", None)
        kwargs.pop("resume", None)
        return cls(shard_directory=Path(directory), resume=True, **kwargs)

    def _cancelled(self) -> bool:
        return self.cancel_event is not None and self.cancel_event.is_set()

    def _log(self, message: str) -> None:
        if self.log_callback is not None:
            try:
                self.log_callback(message)
            except Exception:  # noqa: BLE001 - progress must never fail a run
                pass

    def _worker_budget(self) -> int:
        """Total worker budget the pipeline splits between its stages.

        An explicit ``jobs`` is honoured as given (even above the effective
        cores — useful for exercising the pipeline on small machines; the
        per-batch engine still clamps its own workers); without it the
        budget is the effective core count.
        """
        if self.jobs is not None:
            return max(1, int(self.jobs))
        return dispatch.effective_cpu_count()

    # --- grouping ---------------------------------------------------------

    def group_key(
        self, compiled: CompiledNet, symmetry: Optional[SymmetrySpec]
    ) -> str:
        """Structure-group key of one compiled net: its cache key's prefix.

        Rates and the net name are excluded — scenarios differing only in
        timed rates (different α, disaster mean times, city distances…)
        share a group; anything structural (places, arcs, guards, immediate
        race data, the exploration limit, the symmetry spec) splits them.
        """
        return cache_key(compiled, self.max_states, symmetry)[:16]

    def _grouped(
        self, cases: Sequence[GridCase], skip: frozenset[int] = frozenset()
    ) -> dict[str, _Group]:
        """Group cases by structure; ``skip`` holds restored case indices."""
        groups: dict[str, _Group] = {}
        # Rate-only grids pass the same net object many times (e.g. an
        # ablation's reference structure); memoize the compilation per net
        # object and the group key per net object and spec identity, so
        # grouping is O(distinct structures).
        compiled_by_net: dict[int, CompiledNet] = {}
        key_by_structure: dict[tuple[int, Optional[str]], str] = {}
        measures_validated: set[tuple[int, str]] = set()
        for index, case in enumerate(cases):
            if index in skip:
                continue
            validate_measures(case.measures)
            compiled = compiled_by_net.get(id(case.net))
            if compiled is None:
                compiled = compiled_by_net[id(case.net)] = CompiledNet(case.net)
            spec = case.symmetry
            lumping = spec.cache_id if spec is not None else None
            if spec is not None:
                # Fail fast, before any graph is generated: a lumped chain
                # is exact only if the spec fits the net, the case's rates
                # are constant on the declared orbits and every requested
                # measure is invariant under the group.  (The measure probe
                # is memoized per measure tuple × spec — rate-only grids
                # reuse both.)
                validate_spec_for_net(
                    spec, len(compiled.place_names), compiled.name
                )
                validate_rate_symmetry(
                    case.full_rates(), spec, context=case.name
                )
                probe_key = (id(case.measures), lumping)
                if probe_key not in measures_validated:
                    validate_measure_symmetry(
                        case.measures,
                        spec,
                        compiled.place_names,
                        context=case.name,
                    )
                    measures_validated.add(probe_key)
            structure = (id(case.net), lumping)
            key = key_by_structure.get(structure)
            if key is None:
                key = key_by_structure[structure] = self.group_key(compiled, spec)
            group = groups.get(key)
            if group is None:
                group = _Group(
                    key=key,
                    representative=case,
                    compiled=compiled,
                    symmetry=spec,
                )
                groups[key] = group
            group.case_indices.append(index)
        return groups

    # --- memory planning ---------------------------------------------------

    def _plan_groups(
        self,
        groups: dict[str, _Group],
        cases: Sequence[GridCase],
        failures: list[FailureRecord],
    ) -> None:
        """Route every group to a representation before anything generates.

        Groups the planner refuses (too large even for the chunked backend
        under the resolved budget) are quarantined into ``failures`` with
        the planner's sizing message and removed from ``groups`` — a refusal
        is a structured partial result, never an OOM kill mid-run.
        """
        budget = dispatch.memory_budget_bytes(self.memory_budget)
        self._budget_bytes = budget
        refused: list[str] = []
        for key, group in groups.items():
            group.plan = plan_representation(
                group.compiled, self.max_states, budget_bytes=budget
            )
            if group.plan.representation == "refused":
                refused.append(key)
                failures.append(
                    FailureRecord(
                        stage="plan",
                        group=group.key,
                        cases=tuple(
                            cases[index].name for index in group.case_indices
                        ),
                        case_indices=tuple(group.case_indices),
                        attempts=1,
                        error=group.plan.reason,
                        error_type="MemoryBudgetExceeded",
                        metadata=group.plan.as_dict(),
                    )
                )
                self._log(
                    f"[grid] group {group.key} refused by the memory "
                    f"planner: {group.plan.reason}"
                )
            elif group.plan.representation == "chunked":
                self._log(
                    f"[grid] group {group.key} routed to the chunked "
                    f"backend ({group.plan.reason})"
                )
        for key in refused:
            del groups[key]

    def _load_graph(self, group: _Group, transport: TRGCache):
        """Representation-aware cache probe for one group's graph."""
        load = (
            transport.load_chunked
            if group.representation == "chunked"
            else transport.load
        )
        return load(group.compiled, self.max_states, group.symmetry)

    # --- generation -------------------------------------------------------

    def _generation_failure(
        self, group: _Group, cases: Sequence[GridCase], error: BaseException
    ) -> FailureRecord:
        return FailureRecord(
            stage="generate",
            group=group.key,
            cases=tuple(cases[index].name for index in group.case_indices),
            case_indices=tuple(group.case_indices),
            attempts=max(1, group.generate_attempts),
            error=str(error),
            error_type=type(error).__name__,
            metadata={"max_states": self.max_states},
        )

    def _generate_in_process_final(
        self,
        group: _Group,
        cases: Sequence[GridCase],
        transport: TRGCache,
        started: float,
        failures: list[FailureRecord],
    ) -> bool:
        """In-process generation with the policy's remaining retries.

        Generates at width one and is the pipeline's last line of defence
        when the pool fails: runs the BFS in the parent, retrying with
        backoff while the policy allows (but at least once, even when pool
        attempts already consumed the retry budget), and quarantines the group into ``failures`` when every
        attempt failed.  Returns whether the group now holds a graph.
        """
        total = max(
            group.generate_attempts + 1, 1 + max(0, self.retry.max_retries)
        )
        error: Optional[BaseException] = None
        while group.generate_attempts < total:
            group.generate_attempts += 1
            try:
                # Persist only into a real cache: with cache=None the
                # transport is a throwaway scratch directory that exists
                # purely to carry graphs back from pool workers, and the
                # in-process path already holds the graph in memory.
                self._generate_in_process(
                    group, transport, persist=self.cache is not None
                )
            except Exception as raised:  # noqa: BLE001 - quarantine, not abort
                error = raised
                if group.generate_attempts < total:
                    time.sleep(self.retry.backoff(group.generate_attempts))
                continue
            group.generate_finished_at = time.perf_counter() - started
            return True
        if error is None:
            error = RuntimeError("generation retries exhausted on the worker pool")
        failures.append(self._generation_failure(group, cases, error))
        self._log(
            f"[grid] group {group.key} quarantined after "
            f"{group.generate_attempts} generation attempt(s): {error}"
        )
        return False

    def _generate_in_process(
        self, group: _Group, transport: TRGCache, persist: bool = True
    ) -> None:
        started = time.perf_counter()
        faults.perturb("generate.inprocess")
        # A chunk entry *is* the graph's storage, so it always lands in the
        # transport directory (a throwaway transport keeps it alive exactly
        # as long as the run needs it); an in-RAM graph is stored only when
        # ``persist`` asks for it.
        store = (
            transport if persist or group.representation == "chunked" else None
        )
        group.graph, group.graph_source = load_or_generate(
            group.compiled,
            store,
            max_states=self.max_states,
            symmetry=group.symmetry,
            representation=group.representation,
        )
        group.generate_seconds = time.perf_counter() - started

    # --- measures ---------------------------------------------------------

    @staticmethod
    def _merged_measures(
        group_cases: Sequence[GridCase],
    ) -> tuple[list[Measure], list[dict[str, str]]]:
        """Union of the group's measures under collision-free internal names.

        Cases of one group may define different measures — or worse, the
        *same* name with different expressions (e.g. two availability
        thresholds).  Every distinct measure gets an internal name and is
        evaluated once for the whole batch (extra GEMM columns are nearly
        free); the per-case mapping restores the original names.
        """
        merged: list[Measure] = []
        identities: dict[tuple, str] = {}
        mappings: list[dict[str, str]] = []
        for case in group_cases:
            mapping: dict[str, str] = {}
            for measure in case.measures:
                identity = (type(measure).__name__,) + tuple(
                    (field_name, repr(value))
                    for field_name, value in sorted(vars(measure).items())
                    if field_name != "name"
                )
                internal = identities.get(identity)
                if internal is None:
                    internal = f"m{len(merged)}"
                    identities[identity] = internal
                    merged.append(replace(measure, name=internal))
                mapping[measure.name] = internal
            mappings.append(mapping)
        return merged, mappings

    # --- run --------------------------------------------------------------

    # --- checkpoint/resume --------------------------------------------------

    def _restore_checkpoint(
        self, cases: Sequence[GridCase]
    ) -> dict[int, GridCaseResult]:
        """Rows restored from a previous run's shards, by grid index."""
        checkpoint = load_checkpoint(self.shard_directory)
        if not checkpoint:
            return {}
        self._check_manifest(cases)
        restored: dict[int, GridCaseResult] = {}
        for index, case in enumerate(cases):
            record = checkpoint.get(case.name)
            if record is None:
                continue
            try:
                restored[index] = GridCaseResult(
                    name=case.name,
                    measures={
                        str(name): float(value)
                        for name, value in record["measures"].items()
                    },
                    number_of_states=int(record.get("number_of_states", 0)),
                    group=str(record.get("group", "")),
                    backend=str(record.get("backend", "")),
                    graph_source=str(record.get("graph_source", "")),
                    solve_seconds=float(record.get("solve_seconds", 0.0)),
                    metadata=dict(record.get("metadata", {})),
                    solve_source="checkpoint",
                    grid_index=index,
                )
            except (TypeError, ValueError, KeyError):
                continue  # malformed record: re-solve the case instead
        if restored:
            self._log(
                f"[grid] resumed: {len(restored)}/{len(cases)} case(s) "
                f"restored from checkpoint shards"
            )
        return restored

    def _manifest_path(self) -> Path:
        return Path(self.shard_directory) / "grid-manifest.json"

    def _names_digest(self, cases: Sequence[GridCase]) -> str:
        return hashlib.sha256(
            "\n".join(case.name for case in cases).encode()
        ).hexdigest()

    def _write_manifest(self, cases: Sequence[GridCase]) -> None:
        payload = {
            "format": 1,
            "cases": len(cases),
            "names_sha256": self._names_digest(cases),
        }
        # Durable (fsync-before-rename) like the shards: the manifest is
        # what lets a resumed run detect a different grid, so it must not
        # vanish in a power loss either.
        write_text_durably(
            self._manifest_path(), json.dumps(payload, sort_keys=True) + "\n"
        )

    def _check_manifest(self, cases: Sequence[GridCase]) -> None:
        path = self._manifest_path()
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return  # no/unreadable manifest: name matching carries resume
        if not isinstance(payload, dict):
            return  # a non-object manifest is torn too: resume by name
        if payload.get("names_sha256") != self._names_digest(cases):
            warnings.warn(
                f"the checkpoint in {self.shard_directory} was written by a "
                f"different grid ({payload.get('cases')} case(s)); resuming "
                f"by case name — only identically-named cases are restored",
                stacklevel=4,
            )

    # --- execution ----------------------------------------------------------

    def run(self, cases: Sequence[GridCase]) -> GridOutcome:
        """Evaluate the whole grid; results come back in input order."""
        cases = list(cases)
        started = time.perf_counter()
        if not cases:
            if self.shard_directory is not None and not self.resume:
                # Honour the one-grid-per-directory contract even for an
                # empty grid: stale shards from a previous run must go.
                _ShardWriter(self.shard_directory, self.shard_size)
            return GridOutcome(results=[], groups=[], total_seconds=0.0)
        names = [case.name for case in cases]
        if len(set(names)) != len(names):
            raise ValueError("grid case names must be unique")
        restored: dict[int, GridCaseResult] = {}
        if self.resume:
            restored = self._restore_checkpoint(cases)
        groups = self._grouped(cases, skip=frozenset(restored))
        # The transport must outlive *solving*, not just generation: the
        # pipeline overlaps the two, so a scratch transport is only torn
        # down once the whole grid is done.
        if self.cache is not None:
            return self._execute(cases, groups, started, self.cache, restored)
        with tempfile.TemporaryDirectory(prefix="repro-grid-") as scratch:
            return self._execute(cases, groups, started, TRGCache(scratch), restored)

    def _execute(
        self,
        cases: list[GridCase],
        groups: dict[str, _Group],
        started: float,
        transport: TRGCache,
        restored: dict[int, GridCaseResult],
    ) -> GridOutcome:
        """Run all non-restored groups and assemble the outcome."""
        results: list[Optional[GridCaseResult]] = [None] * len(cases)
        for index, row in restored.items():
            results[index] = row
        shards: Optional[_ShardWriter] = (
            _ShardWriter(self.shard_directory, self.shard_size, resume=self.resume)
            if self.shard_directory is not None
            else None
        )
        if shards is not None and self.resume:
            self._rotate_failures()
        failures: list[FailureRecord] = []
        self._interrupted = False
        self._plan_groups(groups, cases, failures)
        rebuilds_before = shared_pool.rebuilds
        reports, watchdog_kills = self._run_pipeline(
            cases, groups, started, transport, results, shards, failures
        )
        if shards is not None:
            shards.flush()
            self._write_manifest(cases)
            self._write_failures(failures)
        return GridOutcome(
            results=[row for row in results if row is not None],
            groups=reports,
            total_seconds=time.perf_counter() - started,
            shard_paths=shards.paths if shards is not None else [],
            deduped_cases=sum(report.deduped_cases for report in reports),
            failures=failures,
            pool_rebuilds=shared_pool.rebuilds - rebuilds_before,
            watchdog_kills=watchdog_kills,
            restored_cases=len(restored),
            interrupted=self._interrupted,
        )

    def _rotate_failures(self) -> None:
        """Move a previous run's ``grid-failures.jsonl`` aside on resume.

        A resumed run re-dispatches the previously failed cases, so the old
        quarantine records are stale the moment the run starts: leaving them
        in place would double-count cases that fail again (and report cases
        that now succeed).  The old file is kept for post-mortems as
        ``grid-failures.<n>.jsonl`` with ``n`` growing per resume.
        """
        path = Path(self.shard_directory) / "grid-failures.jsonl"
        if not path.exists():
            return
        rotation = 1
        while (Path(self.shard_directory) / f"grid-failures.{rotation}.jsonl").exists():
            rotation += 1
        try:
            path.replace(
                Path(self.shard_directory) / f"grid-failures.{rotation}.jsonl"
            )
        except OSError:  # pragma: no cover - unwritable checkpoint directory
            path.unlink(missing_ok=True)

    def _write_failures(self, failures: list[FailureRecord]) -> None:
        """Persist quarantine records next to the checkpoint shards.

        Failed cases are *not* checkpointed (their shard rows do not
        exist), so a later ``--resume`` automatically re-dispatches exactly
        them; the JSONL file is for post-mortem inspection.  The active file
        only ever describes *this* run (a resumed run rotates its
        predecessor's file aside first), and one case never appears twice.
        """
        path = Path(self.shard_directory) / "grid-failures.jsonl"
        if not failures:
            path.unlink(missing_ok=True)
            return
        seen: set[str] = set()
        lines: list[str] = []
        for record in failures:
            if any(name in seen for name in record.cases):
                continue  # defensive: a case is quarantined at most once
            seen.update(record.cases)
            lines.append(json.dumps(record.as_record(), sort_keys=True) + "\n")
        write_text_durably(path, "".join(lines))

    def _solve_group(
        self,
        group: _Group,
        cases: list[GridCase],
        started: float,
        max_workers: Optional[int],
    ) -> tuple[list[tuple[int, GridCaseResult]], GridGroupReport]:
        """Solve one structure group.

        Returns the group's result rows tagged with their original grid
        indices plus the filled-in :class:`GridGroupReport` (timeline
        offsets are stamped against the run's ``started`` origin).
        """
        faults.perturb("solve.group")
        group_cases = [cases[index] for index in group.case_indices]
        measures, mappings = self._merged_measures(group_cases)
        engine = ScenarioBatchEngine(
            group.graph,
            solve_deadline_seconds=self.retry.solve_deadline_seconds,
        )
        specs = [
            ScenarioSpec(name=case.name, rates=case.full_rates())
            for case in group_cases
        ]
        rate_key = self._group_rate_key(group, group_cases, measures)
        solve_started = time.perf_counter()
        solve_started_at = solve_started - started
        batch = engine.run(
            specs, measures, max_workers=max_workers, rate_key=rate_key
        )
        solve_seconds = time.perf_counter() - solve_started
        backend = engine.last_run_backend or "serial"
        stats = engine.last_run_dedupe
        rows: list[tuple[int, GridCaseResult]] = []
        for case_index, case, mapping, result in zip(
            group.case_indices, group_cases, mappings, batch
        ):
            rows.append(
                (
                    case_index,
                    GridCaseResult(
                        name=case.name,
                        measures={
                            original: result.measures[internal]
                            for original, internal in mapping.items()
                        },
                        number_of_states=result.number_of_states,
                        group=group.key,
                        backend=backend,
                        graph_source=group.graph_source,
                        solve_seconds=result.solve_seconds,
                        metadata=dict(case.metadata),
                        solve_source=result.solve_source,
                        grid_index=case_index,
                    ),
                )
            )
        lumping = group.symmetry
        group_order = lumping.group_order if lumping is not None else 1
        plan = group.plan
        estimated_peak = None
        if plan is not None:
            estimated_peak = (
                plan.chunked_estimated_bytes
                if plan.representation == "chunked"
                else plan.estimated_bytes
            )
        report = GridGroupReport(
            key=group.key,
            cases=len(group.case_indices),
            number_of_states=group.graph.number_of_states,
            graph_source=group.graph_source,
            backend=backend,
            generate_seconds=group.generate_seconds,
            solve_seconds=solve_seconds,
            generate_finished_at=group.generate_finished_at,
            solve_started_at=solve_started_at,
            queue_wait_seconds=max(
                0.0, solve_started_at - group.generate_finished_at
            ),
            deduped_cases=stats.deduped if stats is not None else 0,
            generate_attempts=max(1, group.generate_attempts),
            solve_attempts=max(1, group.solve_attempts),
            symmetry=lumping.kind if lumping is not None else None,
            symmetry_group_order=group_order,
            states_before_estimate=(
                group.graph.number_of_states * group_order
                if lumping is not None
                else None
            ),
            representation=group.representation,
            planner_reason=plan.reason if plan is not None else None,
            estimated_peak_bytes=estimated_peak,
            memory_budget_bytes=plan.budget_bytes if plan is not None else None,
            peak_rss_bytes=dispatch.peak_rss_bytes(),
        )
        return rows, report

    def _group_rate_key(
        self,
        group: _Group,
        group_cases: list[GridCase],
        measures: Sequence[Measure],
    ):
        """Symmetry-aware rate digest for the group's dedupe, if safe.

        Cases of one group that declare the same structural
        :attr:`GridCase.rate_symmetry` spec get their rate vectors
        canonicalized along the spec's exchangeable blocks before hashing,
        so two cases differing only by a permutation of those blocks share
        one stationary solve.  The permuted chain is the relabelled
        original, so this is exact **only if** every measure evaluated for
        the group is invariant under the spec's group — any non-invariant
        (or unrecognised) measure, a spec mismatch between cases, or a spec
        that does not fit the graph silently falls back to the bit-exact
        :func:`~repro.engine.batch.rate_digest` (returns ``None``).
        """
        from repro.spn.rewards import (
            ExpectedTokensMeasure,
            ProbabilityMeasure,
            ThroughputMeasure,
        )

        spec = group_cases[0].rate_symmetry
        if spec is None or not spec.rate_groups:
            return None
        if any(case.rate_symmetry != spec for case in group_cases[1:]):
            return None
        if spec.place_count != len(group.compiled.place_names):
            return None
        orbit_transitions = {
            name
            for rate_group in spec.rate_groups
            for name in rate_group.labels()
        }
        place_index = {
            name: position
            for position, name in enumerate(group.compiled.place_names)
        }
        for measure in measures:
            if isinstance(measure, ThroughputMeasure):
                if measure.transition in orbit_transitions:
                    return None
                continue
            if not isinstance(
                measure, (ProbabilityMeasure, ExpectedTokensMeasure)
            ):
                return None
            if not measure_is_symmetric(measure.compiled(place_index), spec):
                return None
        return rate_vector_key(spec, group.graph.transition_names)

    def _solve_group_with_retry(
        self,
        group: _Group,
        cases: list[GridCase],
        started: float,
        max_workers: Optional[int],
    ) -> tuple:
        """Run :meth:`_solve_group` under the retry policy.

        Returns ``("ok", rows, report)`` or — after ``1 + max_retries``
        failed attempts — ``("failed", record, None)`` with the structured
        :class:`~repro.engine.faults.FailureRecord` of the quarantined
        group.  Backoff sleeps happen in the calling thread, a solver-pool
        thread, not the coordinator.
        """
        total = 1 + max(0, self.retry.max_retries)
        last_error: Optional[BaseException] = None
        for attempt in range(1, total + 1):
            group.solve_attempts = attempt
            try:
                rows, report = self._solve_group(group, cases, started, max_workers)
            except Exception as error:  # noqa: BLE001 - quarantine, not abort
                last_error = error
                if attempt < total:
                    time.sleep(self.retry.backoff(attempt))
                continue
            return ("ok", rows, report)
        record = FailureRecord(
            stage="solve",
            group=group.key,
            cases=tuple(cases[index].name for index in group.case_indices),
            case_indices=tuple(group.case_indices),
            attempts=group.solve_attempts,
            error=str(last_error),
            error_type=type(last_error).__name__,
        )
        self._log(
            f"[grid] group {group.key} quarantined after "
            f"{group.solve_attempts} solve attempt(s): {last_error}"
        )
        return ("failed", record, None)

    # --- work-stealing generate→solve pipeline -----------------------------

    def _run_pipeline(
        self,
        cases: list[GridCase],
        groups: dict[str, _Group],
        started: float,
        transport: TRGCache,
        results: list[Optional[GridCaseResult]],
        shards: Optional[_ShardWriter],
        failures: list[FailureRecord],
    ) -> tuple[list[GridGroupReport], int]:
        """Overlap structure-graph generation with per-group solving.

        One coordinator loop owns two future sets over one worker budget
        (:class:`~repro.engine.dispatch.PipelineBudget`):

        * *generation* tasks run on the persistent process pool
          (:data:`~repro.engine.parallel.shared_pool`, tagged
          ``"generate"``), big structures first
          (:func:`~repro.engine.dispatch.estimate_generation_cost`) so the
          longest BFS — the critical path — starts earliest;
        * *solve* tasks run on a parent thread pool (the batch engine
          underneath picks serial or process for the granted workers) and
          are submitted the moment a group's graph lands — solves preempt
          idle workers instead of waiting for a generation barrier.

        At generation width one (one cache miss, ``generation_workers=1``
        or a one-worker budget) the coordinator generates the misses itself,
        one per loop iteration, so no pool worker is forked and no graph
        makes a round trip through the cache.

        Failures self-heal, never deadlock: a failed generation requeues
        with exponential backoff while the retry policy allows, then runs
        in-process, then quarantines; a broken pool is rebuilt (within the
        policy's restart budget — beyond it the remaining misses generate
        in-process) while queued solves keep draining; a
        :class:`~repro.engine.dispatch.TaskWatchdog` kills workers whose
        generation exceeds ``generate_deadline_seconds``, so one hung
        worker cannot stall the coordinator.  Returns the group reports and
        the number of watchdog kills.
        """
        # Solves fanned out from a pipeline thread cannot install the
        # shared-memory cleanup handlers themselves (only the main thread
        # may); install them here so SIGTERM/SIGINT still unlink segments.
        install_signal_cleanup()
        policy = self.retry
        order = list(groups.values())
        reports_by_key: dict[str, GridGroupReport] = {}
        watchdog = dispatch.TaskWatchdog(
            {"generate": policy.generate_deadline_seconds}
        )
        watchdog_kills = 0
        rebuilds_origin = shared_pool.rebuilds
        budget = dispatch.PipelineBudget(self._worker_budget())
        # Never hand a group solve more workers than the machine has, even
        # when an explicit oversized ``jobs`` inflates the budget (the
        # budget then only governs stage interleaving).
        solve_cap = max(1, dispatch.effective_cpu_count())

        ready: deque[_Group] = deque()
        pending: deque[_Group] = deque()
        for group in order:
            probe_started = time.perf_counter()
            graph = self._load_graph(group, transport)
            if graph is not None:
                group.graph = graph
                group.graph_source = "cache"
                group.generate_seconds = time.perf_counter() - probe_started
                group.generate_finished_at = time.perf_counter() - started
                ready.append(group)
            else:
                pending.append(group)
        pending = deque(
            sorted(
                pending,
                key=lambda g: dispatch.estimate_generation_cost(g.compiled),
                reverse=True,
            )
        )
        requested_width = (
            self.generation_workers
            if self.generation_workers is not None
            else budget.total
        )
        pool_width = max(1, min(int(requested_width), max(1, len(pending))))
        directory = str(transport.directory)
        generate_futures: dict[object, _Group] = {}
        solve_futures: dict[object, _Group] = {}
        in_process = pool_width == 1
        done_groups = 0
        dedupe_hits = 0

        def progress() -> None:
            self._log(
                f"[grid] {done_groups}/{len(order)} groups done · "
                f"{len(generate_futures)} generating · "
                f"{len(solve_futures)} solving · {dedupe_hits} dedupe hit(s)"
            )

        cancelled = False
        with ThreadPoolExecutor(
            max_workers=budget.total, thread_name_prefix="grid-solve"
        ) as solver:
            while pending or ready or generate_futures or solve_futures:
                if not cancelled and self._cancelled():
                    # Cooperative cancellation: stop dispatching, let the
                    # in-flight futures drain (finished solves are still
                    # checkpointed below), drop everything not yet started.
                    cancelled = True
                    self._interrupted = True
                    pending.clear()
                    ready.clear()
                    for future in list(generate_futures):
                        if future.cancel():
                            watchdog.forget(future)
                            budget.release_generation()
                            del generate_futures[future]
                    self._log(
                        f"[grid] cancelled: waiting for "
                        f"{len(generate_futures)} generation(s) and "
                        f"{len(solve_futures)} solve(s) in flight"
                    )
                    if not generate_futures and not solve_futures:
                        break
                # Solves first: a ready group preempts idle workers before
                # any new generation claims them.
                while ready and not cancelled:
                    group = ready.popleft()
                    granted = budget.acquire_solve()
                    group.solve_grant = granted
                    solve_futures[
                        solver.submit(
                            self._solve_group_with_retry,
                            group,
                            cases,
                            started,
                            min(granted, solve_cap),
                        )
                    ] = group
                while pending and not in_process:
                    now = time.perf_counter()
                    slot = next(
                        (
                            position
                            for position, candidate in enumerate(pending)
                            if candidate.not_before <= now
                        ),
                        None,
                    )
                    if slot is None:
                        break  # every miss is backing off; wait below
                    solve_pending = bool(solve_futures)
                    if not budget.acquire_generation(solve_pending=solve_pending):
                        break
                    group = pending[slot]
                    del pending[slot]
                    group.generate_attempts += 1
                    try:
                        future = shared_pool.submit(
                            "generate",
                            pool_width,
                            _generate_into_cache,
                            group.representative.net,
                            self.max_states,
                            directory,
                            group.symmetry,
                            group.representation,
                        )
                    except (PicklingError, TypeError, AttributeError, OSError) as error:
                        budget.release_generation()
                        pending.appendleft(group)
                        in_process = True
                        warnings.warn(
                            f"concurrent grid generation unavailable ({error}); "
                            f"generating in-process",
                            stacklevel=3,
                        )
                        break
                    watchdog.watch(future, "generate")
                    generate_futures[future] = group
                if in_process and pending and not generate_futures:
                    # In-process generation, one group per loop iteration so
                    # each generated group starts solving before the next
                    # generation begins.
                    group = pending.popleft()
                    if self._generate_in_process_final(
                        group, cases, transport, started, failures
                    ):
                        ready.append(group)
                    else:
                        done_groups += 1
                        progress()
                    continue
                if not generate_futures and not solve_futures:
                    if pending:
                        # Nothing in flight and every miss is in backoff:
                        # sleep out the shortest backoff instead of spinning.
                        now = time.perf_counter()
                        delay = min(
                            max(0.0, candidate.not_before - now)
                            for candidate in pending
                        )
                        if delay > 0:
                            time.sleep(min(delay, 1.0))
                    continue  # ready groups launch on the next iteration
                timeout = watchdog.next_poll_seconds() if generate_futures else None
                if pending and not in_process:
                    now = time.perf_counter()
                    backoffs = [
                        candidate.not_before - now
                        for candidate in pending
                        if candidate.not_before > now
                    ]
                    if backoffs:
                        soonest = max(0.0, min(backoffs))
                        timeout = (
                            soonest if timeout is None else min(timeout, soonest)
                        )
                done, _ = wait(
                    set(generate_futures) | set(solve_futures),
                    timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                for token, kind, elapsed in watchdog.overdue():
                    if token in generate_futures and not token.done():
                        hung = generate_futures[token]
                        watchdog_kills += 1
                        self._log(
                            f"[grid] watchdog: generation of group {hung.key} "
                            f"ran {elapsed:.1f}s (deadline "
                            f"{policy.generate_deadline_seconds}s); killing "
                            f"pool workers"
                        )
                        # The futures of the killed workers fail with
                        # BrokenProcessPool and take the rebuild/requeue
                        # path below.
                        shared_pool.kill_workers()
                for future in done:
                    if future in solve_futures:
                        group = solve_futures.pop(future)
                        budget.release_solve(group.solve_grant)
                        status, payload, report = future.result()
                        if status == "ok":
                            for case_index, row in payload:
                                results[case_index] = row
                                if shards is not None:
                                    shards.append(row.as_record(case_index))
                            reports_by_key[group.key] = report
                            dedupe_hits += report.deduped_cases
                        else:
                            failures.append(payload)
                        done_groups += 1
                        progress()
                        continue
                    group = generate_futures.pop(future)
                    watchdog.forget(future)
                    budget.release_generation()
                    if cancelled:
                        # The graph may have landed in the transport, but a
                        # cancelled run solves nothing new; a resumed run
                        # will find it in the cache.
                        continue
                    try:
                        seconds = future.result()
                    except BrokenProcessPool:
                        if shared_pool.is_broken():
                            shared_pool.rebuild()
                        if (
                            shared_pool.rebuilds - rebuilds_origin
                            >= policy.pool_restart_budget
                        ):
                            in_process = True
                            warnings.warn(
                                f"the worker pool died "
                                f"{shared_pool.rebuilds - rebuilds_origin} "
                                f"time(s) this run (restart budget "
                                f"{policy.pool_restart_budget}); generating "
                                f"the remaining groups in-process",
                                stacklevel=2,
                            )
                        group.not_before = time.perf_counter() + policy.backoff(
                            max(1, group.generate_attempts)
                        )
                        pending.appendleft(group)
                        continue
                    except Exception as error:  # noqa: BLE001 - isolate per group
                        if group.generate_attempts < 1 + max(0, policy.max_retries):
                            warnings.warn(
                                f"grid generation worker failed for group "
                                f"{group.key} ({error}); retrying",
                                stacklevel=2,
                            )
                            group.not_before = (
                                time.perf_counter()
                                + policy.backoff(group.generate_attempts)
                            )
                            pending.appendleft(group)
                            continue
                        warnings.warn(
                            f"grid generation worker failed for group "
                            f"{group.key} ({error}); regenerating in-process",
                            stacklevel=2,
                        )
                        if self._generate_in_process_final(
                            group, cases, transport, started, failures
                        ):
                            ready.append(group)
                        else:
                            done_groups += 1
                            progress()
                        continue
                    graph = self._load_graph(group, transport)
                    if graph is None:
                        # The worker reported success but the entry is not
                        # loadable (e.g. evicted) — regenerate in-process.
                        self._generate_in_process(
                            group, transport, persist=self.cache is not None
                        )
                    else:
                        group.graph = graph
                        group.graph_source = "generated:pool"
                        group.generate_seconds = seconds
                    group.generate_finished_at = time.perf_counter() - started
                    ready.append(group)
        reports = [
            reports_by_key[group.key]
            for group in order
            if group.key in reports_by_key
        ]
        return reports, watchdog_kills
