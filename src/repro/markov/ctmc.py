"""Continuous-time Markov chain model.

The SPN engine reduces a net to a CTMC over its tangible markings; this class
is the numerical workhorse that stores the (sparse) generator matrix, solves
for stationary and transient distributions and evaluates reward measures.  It
can also be used directly to build hand-written availability models, which the
test-suite exploits to cross-validate the SPN pipeline against closed-form
two-state and birth-death results.
"""

from __future__ import annotations

import warnings
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.exceptions import AnalysisError, ModelError
from repro.markov import solvers
from repro.markov.transient import transient_distribution, transient_rewards


class ContinuousTimeMarkovChain:
    """A labelled CTMC backed by a sparse generator matrix.

    States are arbitrary hashable labels; internally each label maps to an
    index into the generator matrix.
    """

    def __init__(self, states: Sequence[Hashable]):
        states = list(states)
        if not states:
            raise ModelError("a CTMC needs at least one state")
        if len(set(states)) != len(states):
            raise ModelError("CTMC state labels must be unique")
        self._states: list[Hashable] = states
        self._index: dict[Hashable, int] = {state: i for i, state in enumerate(states)}
        self._rates: dict[tuple[int, int], float] = {}
        self._generator_cache: sparse.csr_matrix | None = None

    # --- construction -----------------------------------------------------

    @property
    def states(self) -> list[Hashable]:
        """State labels in index order."""
        return list(self._states)

    @property
    def number_of_states(self) -> int:
        return len(self._states)

    def index_of(self, state: Hashable) -> int:
        """Index of a state label."""
        try:
            return self._index[state]
        except KeyError:
            raise ModelError(f"unknown CTMC state {state!r}") from None

    def add_transition(self, source: Hashable, target: Hashable, rate: float) -> None:
        """Add (or accumulate) a transition rate between two distinct states."""
        if rate < 0.0:
            raise ModelError(f"transition rate must be non-negative, got {rate!r}")
        if rate == 0.0:
            return
        i, j = self.index_of(source), self.index_of(target)
        if i == j:
            raise ModelError(f"self-loop transitions are not allowed (state {source!r})")
        self._rates[(i, j)] = self._rates.get((i, j), 0.0) + rate
        self._generator_cache = None

    @classmethod
    def from_rate_dict(
        cls,
        rates: Mapping[tuple[Hashable, Hashable], float],
        states: Iterable[Hashable] | None = None,
    ) -> "ContinuousTimeMarkovChain":
        """Build a chain from a ``{(source, target): rate}`` mapping."""
        if states is None:
            seen: list[Hashable] = []
            for source, target in rates:
                for state in (source, target):
                    if state not in seen:
                        seen.append(state)
            states = seen
        chain = cls(list(states))
        for (source, target), rate in rates.items():
            chain.add_transition(source, target, rate)
        return chain

    # --- matrices ----------------------------------------------------------

    def generator_matrix(self) -> sparse.csr_matrix:
        """The sparse generator matrix ``Q`` (rows sum to zero)."""
        if self._generator_cache is not None:
            return self._generator_cache
        n = self.number_of_states
        if self._rates:
            rows, cols, data = zip(*((i, j, r) for (i, j), r in self._rates.items()))
        else:
            rows, cols, data = (), (), ()
        matrix = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tolil()
        exit_rates = np.asarray(matrix.sum(axis=1)).ravel()
        matrix.setdiag(-exit_rates)
        self._generator_cache = matrix.tocsr()
        return self._generator_cache

    def exit_rate(self, state: Hashable) -> float:
        """Total outgoing rate of a state."""
        i = self.index_of(state)
        return float(-self.generator_matrix().diagonal()[i])

    # --- analysis ----------------------------------------------------------

    def steady_state(self, method: str = "auto") -> dict[Hashable, float]:
        """Stationary distribution as a ``{state: probability}`` mapping."""
        pi = solvers.steady_state(self.generator_matrix(), method=method)
        return {state: float(pi[i]) for i, state in enumerate(self._states)}

    def steady_state_vector(self, method: str = "auto") -> np.ndarray:
        """Stationary distribution as a vector aligned with :attr:`states`."""
        return solvers.steady_state(self.generator_matrix(), method=method)

    def transient(
        self, time: float, initial_state: Hashable | Mapping[Hashable, float]
    ) -> dict[Hashable, float]:
        """State distribution at time ``time`` from a state or distribution."""
        pi0 = self._initial_vector(initial_state)
        pi_t = transient_distribution(self.generator_matrix(), pi0, time)
        return {state: float(pi_t[i]) for i, state in enumerate(self._states)}

    def expected_reward(
        self,
        rewards: Mapping[Hashable, float] | Callable[[Hashable], float],
        method: str = "auto",
    ) -> float:
        """Steady-state expected reward ``Σ_s π(s) · r(s)``."""
        reward_vector = self._reward_vector(rewards)
        pi = self.steady_state_vector(method=method)
        return float(pi @ reward_vector)

    def probability_of(
        self,
        predicate: Callable[[Hashable], bool],
        method: str = "auto",
    ) -> float:
        """Steady-state probability of the set of states satisfying ``predicate``."""
        pi = self.steady_state_vector(method=method)
        return float(
            sum(pi[i] for i, state in enumerate(self._states) if predicate(state))
        )

    def expected_transient_reward(
        self,
        rewards: Mapping[Hashable, float] | Callable[[Hashable], float],
        times: Sequence[float],
        initial_state: Hashable | Mapping[Hashable, float],
    ) -> np.ndarray:
        """Expected instantaneous reward at each time in ``times``."""
        reward_vector = self._reward_vector(rewards)
        pi0 = self._initial_vector(initial_state)
        return transient_rewards(self.generator_matrix(), pi0, reward_vector, times)

    def mean_time_to_absorption(
        self,
        absorbing_states: Iterable[Hashable],
        initial_state: Hashable | Mapping[Hashable, float],
    ) -> float:
        """Mean time to reach any state in ``absorbing_states``.

        Used for MTTF-style analyses: make every failure state absorbing and
        ask for the expected hitting time from the fully-working state.

        Raises:
            AnalysisError: when no absorbing state is given, or when some
                transient state cannot reach the absorbing set (the expected
                hitting time is infinite and the restricted generator is
                singular).  The unreachability is detected *before* the
                solve, so scipy's ``MatrixRankWarning`` never fires; any
                residual singular solve is converted to the same clean error
                with warnings suppressed.
        """
        absorbing = {self.index_of(state) for state in absorbing_states}
        if not absorbing:
            raise AnalysisError("at least one absorbing state is required")
        transient_states = [i for i in range(self.number_of_states) if i not in absorbing]
        if not transient_states:
            return 0.0
        stranded = self._states_not_reaching(absorbing)
        if stranded:
            labels = sorted(str(self._states[i]) for i in stranded)
            preview = ", ".join(labels[:5]) + ("…" if len(labels) > 5 else "")
            raise AnalysisError(
                f"mean time to absorption is infinite: {len(stranded)} state(s) "
                f"cannot reach any absorbing state ({preview})"
            )
        generator = self.generator_matrix().tocsc()
        sub_generator = generator[transient_states, :][:, transient_states]
        pi0 = self._initial_vector(initial_state)
        pi0_transient = pi0[transient_states]
        ones = np.ones(len(transient_states))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", sparse.linalg.MatrixRankWarning)
                expected_times = sparse.linalg.spsolve(sub_generator.tocsc(), -ones)
        except Exception as error:
            raise AnalysisError(f"mean time to absorption solve failed: {error}") from error
        if not np.all(np.isfinite(expected_times)):
            raise AnalysisError(
                "mean time to absorption is infinite (absorbing states unreachable)"
            )
        return float(pi0_transient @ expected_times)

    def _states_not_reaching(self, targets: set[int]) -> set[int]:
        """Indices of states with no directed path into ``targets``.

        One reverse breadth-first sweep over the transition structure (rates
        are irrelevant, only the adjacency matters).
        """
        predecessors: dict[int, list[int]] = {}
        for (i, j) in self._rates:
            predecessors.setdefault(j, []).append(i)
        reached = set(targets)
        frontier = list(targets)
        while frontier:
            state = frontier.pop()
            for predecessor in predecessors.get(state, ()):
                if predecessor not in reached:
                    reached.add(predecessor)
                    frontier.append(predecessor)
        return set(range(self.number_of_states)) - reached

    # --- helpers -------------------------------------------------------------

    def _reward_vector(
        self, rewards: Mapping[Hashable, float] | Callable[[Hashable], float]
    ) -> np.ndarray:
        if callable(rewards):
            return np.asarray([float(rewards(state)) for state in self._states])
        vector = np.zeros(self.number_of_states)
        for state, value in rewards.items():
            vector[self.index_of(state)] = float(value)
        return vector

    def _initial_vector(
        self, initial_state: Hashable | Mapping[Hashable, float]
    ) -> np.ndarray:
        vector = np.zeros(self.number_of_states)
        if isinstance(initial_state, Mapping):
            for state, probability in initial_state.items():
                vector[self.index_of(state)] = float(probability)
        else:
            vector[self.index_of(initial_state)] = 1.0
        if abs(vector.sum() - 1.0) > 1e-8:
            raise AnalysisError("initial distribution must sum to one")
        return vector

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContinuousTimeMarkovChain(states={self.number_of_states}, "
            f"transitions={len(self._rates)})"
        )
