"""Sparse-native scenario-batch engine.

One tangible state space, many parameter points: the engine generates the
reachability graph once, re-rates it per scenario with vectorized sparse
operations, re-fills one symbolically pre-assembled linear system, reuses
ILU preconditioners / warm starts across neighbouring sweep points, fans a
batch out over the zero-copy shared-memory process scheduler
(:mod:`repro.engine.parallel`), and evaluates all reward measures of a
batch with one GEMM (:mod:`repro.engine.measures`).
"""

from repro.engine.batch import (
    MIN_SCENARIOS_PER_WORKER,
    DedupeStats,
    ScenarioBatchEngine,
    ScenarioResult,
    ScenarioSpec,
    TransientScenarioResult,
    rate_digest,
)
from repro.engine.cache import CacheEntry, TRGCache, cache_key, default_cache_directory
from repro.engine.faults import (
    FailureRecord,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    RetryPolicy,
)
from repro.engine.grid import (
    GridCase,
    GridCaseResult,
    GridGroupReport,
    GridOutcome,
    ScenarioGridOrchestrator,
    load_checkpoint,
)
from repro.engine.dispatch import (
    BackendPlan,
    PipelineBudget,
    TaskWatchdog,
    effective_cpu_count,
    estimate_generation_cost,
    memory_budget_bytes,
    parse_memory_size,
    peak_rss_bytes,
    plan_representation,
    resolve_worker_count,
)
from repro.engine.krylov import (
    KrylovConvergenceError,
    MatrixFreeSolver,
    ReusableSolver,
)
from repro.engine.measures import RewardMatrix
from repro.engine.parallel import (
    SharedMemoryUnavailable,
    SweepScheduler,
    cleanup_shared_resources,
    contiguous_chunks,
    install_signal_cleanup,
    shared_memory_available,
    shutdown_shared_pool,
)
from repro.engine.system import ConstrainedSystemTemplate

__all__ = [
    "MIN_SCENARIOS_PER_WORKER",
    "GridCase",
    "GridCaseResult",
    "GridGroupReport",
    "GridOutcome",
    "ScenarioGridOrchestrator",
    "ScenarioBatchEngine",
    "ScenarioResult",
    "ScenarioSpec",
    "TransientScenarioResult",
    "BackendPlan",
    "DedupeStats",
    "PipelineBudget",
    "effective_cpu_count",
    "estimate_generation_cost",
    "memory_budget_bytes",
    "parse_memory_size",
    "peak_rss_bytes",
    "plan_representation",
    "rate_digest",
    "resolve_worker_count",
    "shutdown_shared_pool",
    "CacheEntry",
    "TRGCache",
    "cache_key",
    "default_cache_directory",
    "ConstrainedSystemTemplate",
    "FailureRecord",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "RetryPolicy",
    "TaskWatchdog",
    "KrylovConvergenceError",
    "MatrixFreeSolver",
    "ReusableSolver",
    "RewardMatrix",
    "SharedMemoryUnavailable",
    "SweepScheduler",
    "cleanup_shared_resources",
    "contiguous_chunks",
    "install_signal_cleanup",
    "load_checkpoint",
    "shared_memory_available",
]
