"""Markov-chain substrate: CTMC models, solvers, transient analysis, rewards."""

from repro.markov.ctmc import ContinuousTimeMarkovChain
from repro.markov.rewards import RewardReport, RewardStructure
from repro.markov.solvers import steady_state
from repro.markov.transient import (
    transient_distribution,
    transient_reward_block,
    transient_rewards,
)

__all__ = [
    "ContinuousTimeMarkovChain",
    "RewardReport",
    "RewardStructure",
    "steady_state",
    "transient_distribution",
    "transient_reward_block",
    "transient_rewards",
]
