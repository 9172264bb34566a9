"""Worker counts, pipeline scheduling and memory planning.

* :func:`effective_cpu_count` reports the cores this process may actually
  use (`os.sched_getaffinity`, which honours container/cgroup CPU masks,
  falling back to ``os.cpu_count()``);
* :func:`resolve_worker_count` clamps a requested worker count to the
  effective cores, warning when it does;
* :class:`PipelineBudget` and :class:`TaskWatchdog` schedule the grid
  pipeline's generation and solve stages;
* :func:`plan_representation` routes each state space to the in-RAM or the
  chunked representation under a memory budget.

How a batch fans out over worker processes is a static rule of
:meth:`repro.engine.batch.ScenarioBatchEngine.run`, not a decision made
here.
"""

from __future__ import annotations

import math
import os
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Optional


def effective_cpu_count() -> int:
    """Number of CPU cores this process may actually run on.

    ``os.sched_getaffinity`` honours container / cgroup CPU masks and
    ``taskset`` restrictions; ``os.cpu_count()`` (the fallback on platforms
    without affinity support) reports the *host* core count, which inside a
    CPU-limited container can be wildly optimistic.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux platforms
        return max(1, os.cpu_count() or 1)


def resolve_worker_count(requested: int, stacklevel: int = 2) -> int:
    """Clamp a requested worker count to the effective cores (warning once).

    More solver workers than cores is never a win on this workload: each
    extra worker adds its own ILU factorisation and the workers merely
    time-share the cores (measured at 0.06–0.08x of serial with 8 workers on
    one core).  The clamp is announced so ``--jobs 8`` on a small machine is
    not silently ignored.
    """
    requested = max(1, int(requested))
    cores = effective_cpu_count()
    if requested > cores:
        warnings.warn(
            f"requested {requested} workers but only {cores} effective CPU "
            f"core(s) are available (os.sched_getaffinity); clamping "
            f"max_workers to {cores}",
            stacklevel=stacklevel,
        )
        return cores
    return requested


# --- pipelined grid execution ----------------------------------------------


def estimate_generation_cost(net) -> float:
    """Relative cost proxy of generating one net's tangible state space.

    The true state count is unknown before exploration, so the pipeline
    orders generation tasks by a structural proxy that is monotone in the
    quantities that blow the state space up in this model family: tokens in
    the initial marking (machines, VMs, spare servers) and the number of
    transitions racing over them.  The score is only ever *compared* —
    big-structures-first ordering starts the longest generation earliest so
    its solve (the grid's critical path) begins as soon as possible — and is
    never interpreted as seconds.

    ``net`` is anything exposing ``initial_marking`` and ``transitions``
    sequences (a :class:`repro.spn.enabling.CompiledNet` does).
    """
    tokens = float(sum(net.initial_marking))
    places = float(len(net.initial_marking))
    transitions = float(len(net.transitions))
    return (1.0 + tokens) * (1.0 + transitions) * (1.0 + places)


class TaskWatchdog:
    """Per-kind deadline tracking of in-flight pipeline tasks.

    The pipeline coordinator :meth:`watch`\\ es every pool future it
    submits; :meth:`overdue` reports the tokens whose kind-specific deadline
    has elapsed (so the coordinator can kill the hung workers and requeue),
    and :meth:`next_poll_seconds` bounds the coordinator's wait timeout so a
    hung worker can never stall the loop past the nearest deadline.

    Kinds without a configured deadline are simply never tracked; with no
    deadlines at all the watchdog is inert (:attr:`enabled` is ``False``).
    """

    def __init__(self, deadlines: Optional[dict] = None) -> None:
        self.deadlines: dict[str, float] = {
            kind: float(limit)
            for kind, limit in (deadlines or {}).items()
            if limit is not None and limit > 0
        }
        self._lock = threading.Lock()
        self._tasks: dict[object, tuple[str, float]] = {}

    @property
    def enabled(self) -> bool:
        return bool(self.deadlines)

    def watch(self, token: object, kind: str, now: Optional[float] = None) -> None:
        """Start the clock on one task (no-op for kinds without deadlines)."""
        if kind not in self.deadlines:
            return
        with self._lock:
            self._tasks[token] = (kind, now if now is not None else time.perf_counter())

    def forget(self, token: object) -> None:
        with self._lock:
            self._tasks.pop(token, None)

    def overdue(self, now: Optional[float] = None) -> list[tuple[object, str, float]]:
        """Tracked tasks past their deadline, as ``(token, kind, elapsed)``.

        Overdue tasks are dropped from tracking — the caller owns the
        recovery (kill + requeue) and must not be re-notified every poll.
        """
        now = now if now is not None else time.perf_counter()
        expired = []
        with self._lock:
            for token, (kind, started) in list(self._tasks.items()):
                elapsed = now - started
                if elapsed >= self.deadlines[kind]:
                    expired.append((token, kind, elapsed))
                    del self._tasks[token]
        return expired

    def next_poll_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds until the nearest tracked deadline (``None`` when idle)."""
        now = now if now is not None else time.perf_counter()
        with self._lock:
            if not self._tasks:
                return None
            return max(
                0.0,
                min(
                    self.deadlines[kind] - (now - started)
                    for kind, started in self._tasks.values()
                ),
            )


class PipelineBudget:
    """Splits one worker budget between overlapping generate and solve stages.

    The pipelined grid orchestrator runs structure-graph *generation* tasks
    (one process-pool worker each) concurrently with per-group *solve*
    batches.  Handing every worker to whichever stage asks first starves the
    other: generation of a huge structure would pin all cores while an
    already-generated group's solve — often the critical path — waits.  The
    budget therefore enforces two coarse rules:

    * a generation slot is one worker; while solve work is pending or
      running, at least one worker is held back from generation so a ready
      group can always start solving immediately;
    * a solve acquires every worker not currently generating (never less
      than one), so solves soak up idle capacity as generations drain —
      the "work-stealing" half of the pipeline.

    Thread-safe; ``acquire``/``release`` pairs are the caller's contract.
    """

    def __init__(self, total: int) -> None:
        self.total = max(1, int(total))
        self._lock = threading.Lock()
        self._generating = 0
        self._solving = 0

    def acquire_generation(self, solve_pending: bool = False) -> bool:
        """Try to claim one generation worker; ``False`` when the stage is full.

        With ``solve_pending`` (ready-to-solve groups exist, or solves are in
        flight) generation is capped at ``total - 1`` workers so the solve
        stage always has a core to land on.
        """
        with self._lock:
            cap = self.total - 1 if solve_pending else self.total
            cap = max(1, cap)
            if self._generating >= cap:
                return False
            self._generating += 1
            return True

    def release_generation(self) -> None:
        with self._lock:
            self._generating = max(0, self._generating - 1)

    def acquire_solve(self) -> int:
        """Claim workers for one group solve: everything not generating, >= 1."""
        with self._lock:
            granted = max(1, self.total - self._generating - self._solving)
            self._solving += granted
            return granted

    def release_solve(self, granted: int) -> None:
        with self._lock:
            self._solving = max(0, self._solving - max(0, int(granted)))

    def snapshot(self) -> dict[str, int]:
        """Current allocation (for logs and tests)."""
        with self._lock:
            return {
                "total": self.total,
                "generating": self._generating,
                "solving": self._solving,
            }


# --- memory-aware representation planning -----------------------------------

#: Environment variable carrying the memory budget (e.g. ``512M``, ``2G``).
MEMORY_BUDGET_ENVIRONMENT_VARIABLE = "REPRO_MEMORY_BUDGET"

#: Fraction of the currently *available* system memory the planner may
#: commit to one state space when no explicit budget is configured.
DEFAULT_MEMORY_FRACTION = 0.5

_SIZE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1024,
    "kb": 1024,
    "kib": 1024,
    "m": 1024**2,
    "mb": 1024**2,
    "mib": 1024**2,
    "g": 1024**3,
    "gb": 1024**3,
    "gib": 1024**3,
    "t": 1024**4,
    "tb": 1024**4,
    "tib": 1024**4,
}


def parse_memory_size(text) -> int:
    """Parse ``"512M"`` / ``"2GiB"`` / ``"1048576"`` into bytes.

    Accepts ints/floats (taken as bytes) and the usual binary suffixes,
    case-insensitively.  Raises ``ValueError`` on garbage, non-finite
    (``inf``, ``nan``, ``1e400``) or non-positive sizes so a typo'd
    ``--memory-budget`` fails loudly instead of silently planning against
    zero bytes.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        value = float(text)
        suffix = ""
    else:
        cleaned = str(text).strip().lower().replace(" ", "")
        digits = cleaned.rstrip("kmgtib")
        suffix = cleaned[len(digits):]
        if suffix not in _SIZE_SUFFIXES:
            raise ValueError(f"unrecognised memory size {text!r}")
        try:
            value = float(digits)
        except ValueError:
            raise ValueError(f"unrecognised memory size {text!r}") from None
        value *= _SIZE_SUFFIXES[suffix]
    if not math.isfinite(value):
        raise ValueError(f"unrecognised memory size {text!r}")
    if value <= 0:
        raise ValueError(f"memory budget must be positive, got {text!r}")
    return int(value)


def available_memory_bytes() -> Optional[int]:
    """Bytes of memory currently available (``/proc/meminfo`` MemAvailable).

    Returns ``None`` where the file is missing (non-Linux platforms) —
    callers fall back to an unconstrained plan rather than guessing.
    """
    try:
        with open("/proc/meminfo") as handle:
            fields = {}
            for line in handle:
                name, _, rest = line.partition(":")
                fields[name.strip()] = rest
        for name in ("MemAvailable", "MemFree", "MemTotal"):
            if name in fields:
                return int(fields[name].split()[0]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover - no procfs
        pass
    return None  # pragma: no cover - no usable meminfo line


def memory_budget_bytes(explicit=None) -> Optional[int]:
    """Resolve the memory budget: explicit > environment > RAM fraction.

    Precedence: an explicit value (``--memory-budget``), then the
    :data:`MEMORY_BUDGET_ENVIRONMENT_VARIABLE` variable, then
    :data:`DEFAULT_MEMORY_FRACTION` of the available system memory.
    Returns ``None`` only when nothing is configured *and* the platform
    exposes no memory information.
    """
    if explicit is not None:
        return parse_memory_size(explicit)
    configured = os.environ.get(MEMORY_BUDGET_ENVIRONMENT_VARIABLE)
    if configured:
        return parse_memory_size(configured)
    available = available_memory_bytes()
    if available is None:  # pragma: no cover - non-Linux platforms
        return None
    return int(available * DEFAULT_MEMORY_FRACTION)


def peak_rss_bytes() -> int:
    """Peak resident set size of this process and its waited-for children.

    ``ru_maxrss`` is kibibytes on Linux.  Children are included so a parent
    that farmed generation out to pool workers still reports the true
    high-water mark of the run.
    """
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (usage + children) * 1024


@dataclass(frozen=True)
class BackendPlan:
    """Outcome of one memory-aware representation choice.

    ``representation`` is ``"in_ram"``, ``"chunked"`` or ``"refused"``
    (the state space does not fit the budget under *any* representation;
    the plan's reason carries the sizing so the caller can surface it).
    """

    representation: str
    estimated_bytes: int
    chunked_estimated_bytes: int
    budget_bytes: Optional[int]
    estimated_states: int
    reason: str

    def as_dict(self) -> dict:
        return {
            "representation": self.representation,
            "estimated_bytes": self.estimated_bytes,
            "chunked_estimated_bytes": self.chunked_estimated_bytes,
            "budget_bytes": self.budget_bytes,
            "estimated_states": self.estimated_states,
            "reason": self.reason,
        }


def estimate_tangible_states(net, max_states: int) -> int:
    """Structural upper-bound proxy of the tangible state count.

    A conservative multiset bound — distributing the initial tokens over
    the places — capped at the caller's exploration limit.  Exact counts
    need generation; the planner only needs a
    figure that is large for nets that *can* blow up and small for nets
    that provably cannot.
    """
    import math

    tokens = int(sum(net.initial_marking))
    places = max(1, len(net.initial_marking))
    try:
        bound = math.comb(tokens + places - 1, places - 1)
    except (OverflowError, ValueError):  # pragma: no cover - astronomic nets
        return int(max_states)
    return int(min(int(max_states), bound))


def plan_representation(
    net,
    max_states: int,
    *,
    budget_bytes=None,
    expected_states: Optional[int] = None,
    forced: Optional[str] = None,
) -> BackendPlan:
    """Route one state space to ``in_ram``, ``chunked`` or ``refused``.

    Peak bytes are estimated from the structural proxies
    (:func:`estimate_tangible_states` ×
    :func:`repro.spn.kernel.estimate_state_bytes`) and compared against the
    resolved budget (:func:`memory_budget_bytes`).  ``expected_states``
    overrides the structural state-count proxy when the caller knows better
    (a cached entry).  ``forced`` bypasses the comparison
    but still records the sizing in the plan.
    """
    from repro.spn.enabling import CompiledNet
    from repro.spn.kernel import estimate_state_bytes

    compiled = net if isinstance(net, CompiledNet) else CompiledNet(net)
    states = (
        int(expected_states)
        if expected_states is not None
        else estimate_tangible_states(compiled, max_states)
    )
    per_in_ram, per_chunked = estimate_state_bytes(compiled)
    in_ram_bytes = states * per_in_ram
    chunked_bytes = states * per_chunked
    budget = memory_budget_bytes(budget_bytes)

    def plan(representation: str, reason: str) -> BackendPlan:
        return BackendPlan(
            representation=representation,
            estimated_bytes=in_ram_bytes,
            chunked_estimated_bytes=chunked_bytes,
            budget_bytes=budget,
            estimated_states=states,
            reason=reason,
        )

    if forced is not None:
        return plan(forced, f"representation forced to {forced!r} by caller")
    if budget is None:  # pragma: no cover - non-Linux platforms
        return plan("in_ram", "no memory budget resolvable; defaulting to in-RAM")
    if in_ram_bytes <= budget:
        return plan(
            "in_ram",
            f"estimated {in_ram_bytes / 1e6:.1f} MB in-RAM for ~{states} "
            f"states fits the {budget / 1e6:.1f} MB budget",
        )
    if chunked_bytes <= budget:
        return plan(
            "chunked",
            f"estimated {in_ram_bytes / 1e6:.1f} MB in-RAM exceeds the "
            f"{budget / 1e6:.1f} MB budget; chunked working set "
            f"~{chunked_bytes / 1e6:.1f} MB fits",
        )
    return plan(
        "refused",
        f"~{states} states need an estimated {chunked_bytes / 1e6:.1f} MB "
        f"even chunked, over the {budget / 1e6:.1f} MB budget; raise "
        f"--memory-budget/{MEMORY_BUDGET_ENVIRONMENT_VARIABLE}, lower "
        f"max_states, or enable symmetry reduction",
    )
