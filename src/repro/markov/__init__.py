"""Markov-chain numerics: stationary solvers and the batched transient kernel."""

from repro.markov.solvers import steady_state
from repro.markov.transient import transient_reward_block

__all__ = [
    "steady_state",
    "transient_reward_block",
]
