"""Reliability Block Diagrams: structures, evaluation and importance analysis."""

from repro.rbd.blocks import BasicBlock, Block, Parallel, Series
from repro.rbd.builders import parallel, replicate, series
from repro.rbd.evaluation import (
    RbdResult,
    equivalent_failure_rate,
    equivalent_mttr,
    evaluate,
    mean_time_to_failure,
)
from repro.rbd.importance import ImportanceResult, importance_analysis

__all__ = [
    "BasicBlock",
    "Block",
    "Parallel",
    "Series",
    "parallel",
    "replicate",
    "series",
    "RbdResult",
    "equivalent_failure_rate",
    "equivalent_mttr",
    "evaluate",
    "mean_time_to_failure",
    "ImportanceResult",
    "importance_analysis",
]
