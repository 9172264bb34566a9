"""Discrete-event Monte-Carlo simulation of stochastic Petri nets.

The simulator is an independent implementation of the same GSPN semantics
used by the analytic pipeline (priorities and weights for immediate
transitions, single-/infinite-server exponential timed transitions, guards).
It serves two purposes:

* cross-validation of the reachability/CTMC pipeline on small nets, and
* estimation of measures for configurations whose tangible state space is
  too large to solve exactly.

Steady-state measures are estimated by independent replications: each
replication simulates ``horizon`` time units, discards an initial ``warmup``
fraction and accumulates time-weighted averages; the replication means feed a
Student-t confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ModelError, SimulationError
from repro.spn.enabling import CompiledNet
from repro.spn.model import StochasticPetriNet
from repro.spn.rewards import (
    ExpectedTokensMeasure,
    Measure,
    ProbabilityMeasure,
    ThroughputMeasure,
    validate_measures,
)


@dataclass(frozen=True)
class MeasureEstimate:
    """Point estimate and confidence interval of one simulated measure.

    Attributes:
        name: measure name.
        mean: replication mean.
        half_width: half-width of the confidence interval (0 when only one
            replication is run).
        confidence_level: confidence level of the interval.
        replication_values: the per-replication estimates.
    """

    name: str
    mean: float
    half_width: float
    confidence_level: float
    replication_values: tuple[float, ...]

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the confidence interval."""
        return self.lower <= value <= self.upper

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} = {self.mean:.6f} ± {self.half_width:.6f}"


@dataclass(frozen=True)
class SimulationResult:
    """Result of a simulation experiment."""

    estimates: dict[str, MeasureEstimate]
    horizon: float
    replications: int
    warmup_fraction: float

    def __getitem__(self, name: str) -> MeasureEstimate:
        return self.estimates[name]

    def value(self, name: str) -> float:
        """Point estimate of one measure."""
        return self.estimates[name].mean


class _CompiledMeasure:
    """A measure bound to a compiled net for fast accumulation."""

    def __init__(self, measure: Measure, net: CompiledNet):
        self.name = measure.name
        self.transition_name: Optional[str] = None
        if isinstance(measure, ProbabilityMeasure):
            compiled = measure.compiled(net.place_index)
            self.state_value = compiled
        elif isinstance(measure, ExpectedTokensMeasure):
            compiled = measure.compiled(net.place_index)
            self.state_value = compiled
        elif isinstance(measure, ThroughputMeasure):
            if measure.transition not in net.transition_index:
                raise SimulationError(
                    f"throughput measure {measure.name!r} references unknown "
                    f"transition {measure.transition!r}"
                )
            self.transition_name = measure.transition
            self.state_value = None
        else:
            raise SimulationError(f"unsupported measure type {type(measure)!r}")


def simulate(
    net: Union[StochasticPetriNet, CompiledNet],
    measures: Sequence[Measure],
    horizon: float,
    replications: int = 10,
    warmup_fraction: float = 0.1,
    confidence_level: float = 0.95,
    seed: Optional[int] = None,
    initial_marking: Optional[Mapping[str, int]] = None,
) -> SimulationResult:
    """Estimate steady-state measures by independent replications.

    Args:
        net: the net to simulate.
        measures: measures to estimate.
        horizon: simulated time per replication (same unit as the delays).
        replications: number of independent replications (>= 1).
        warmup_fraction: fraction of each replication discarded as warm-up.
        confidence_level: level of the Student-t confidence intervals.
        seed: seed of the underlying random generator (replication ``i`` uses
            ``seed + i``), making runs reproducible.
        initial_marking: optional replacement initial marking.

    Raises:
        SimulationError: on invalid arguments or nets that cannot progress.
    """
    compiled = net if isinstance(net, CompiledNet) else CompiledNet(net)
    validate_measures(measures)
    if horizon <= 0.0:
        raise SimulationError(f"simulation horizon must be positive, got {horizon!r}")
    if replications < 1:
        raise SimulationError(f"at least one replication is required, got {replications!r}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError(
            f"warmup fraction must be in [0, 1), got {warmup_fraction!r}"
        )
    if not 0.0 < confidence_level < 1.0:
        raise SimulationError(
            f"confidence level must be in (0, 1), got {confidence_level!r}"
        )

    compiled_measures = [_CompiledMeasure(measure, compiled) for measure in measures]
    start_marking = compiled.initial_marking
    if initial_marking is not None:
        from repro.spn.marking import marking_vector

        start_marking = marking_vector(dict(initial_marking), compiled.place_index)

    per_replication: dict[str, list[float]] = {m.name: [] for m in compiled_measures}
    for replication in range(replications):
        rng = np.random.default_rng(None if seed is None else seed + replication)
        values = _run_replication(
            compiled, compiled_measures, start_marking, horizon, warmup_fraction, rng
        )
        for name, value in values.items():
            per_replication[name].append(value)

    estimates = {}
    for name, values in per_replication.items():
        estimates[name] = _summarise(name, values, confidence_level)
    return SimulationResult(
        estimates=estimates,
        horizon=horizon,
        replications=replications,
        warmup_fraction=warmup_fraction,
    )


def _summarise(
    name: str, values: Sequence[float], confidence_level: float
) -> MeasureEstimate:
    array = np.asarray(values, dtype=float)
    mean = float(array.mean())
    if len(array) < 2:
        half_width = 0.0
    else:
        # scipy.stats costs ~0.8 s to import and no analytic run needs it.
        from scipy import stats

        standard_error = float(array.std(ddof=1)) / math.sqrt(len(array))
        quantile = float(stats.t.ppf(0.5 + confidence_level / 2.0, df=len(array) - 1))
        half_width = quantile * standard_error
    return MeasureEstimate(
        name=name,
        mean=mean,
        half_width=half_width,
        confidence_level=confidence_level,
        replication_values=tuple(float(v) for v in array),
    )


def _check_marking(net: CompiledNet, kernel, marking: np.ndarray) -> None:
    """Reject negative markings, which only duplicate input arcs can produce
    (enabled by the max multiplicity, consuming the sum)."""
    if kernel.firing_can_go_negative and (marking < 0).any():
        raise ModelError(
            f"net {net.name!r}: firing a transition with duplicate input arcs "
            "made a place marking negative"
        )


def _run_replication(
    net: CompiledNet,
    measures: Sequence[_CompiledMeasure],
    start_marking: tuple[int, ...],
    horizon: float,
    warmup_fraction: float,
    rng: np.random.Generator,
    max_immediate_chain: int = 100_000,
) -> dict[str, float]:
    kernel = net.kernel()
    timed_names = tuple(t.name for t in net.timed_transitions)
    marking = np.asarray(start_marking, dtype=np.int64)
    clock = 0.0
    warmup_end = horizon * warmup_fraction
    observed_time = 0.0
    accumulators = {m.name: 0.0 for m in measures}
    firing_counts = {m.name: 0 for m in measures if m.transition_name is not None}

    while clock < horizon:
        # Resolve immediate transitions first (zero-time firings).  The
        # enabled set of each step is one vectorized pass over the incidence
        # arrays instead of a Python scan of all immediate transitions.
        chain_length = 0
        while True:
            candidates = kernel.enabled_immediate_indices(marking)
            if candidates.size == 0:
                break
            weights = kernel.immediate_weights[candidates]
            index = int(rng.choice(candidates.size, p=weights / weights.sum()))
            marking = marking + kernel.delta[kernel.immediate_indices[candidates[index]]]
            _check_marking(net, kernel, marking)
            chain_length += 1
            if chain_length > max_immediate_chain:
                raise SimulationError(
                    f"net {net.name!r}: more than {max_immediate_chain} chained "
                    "immediate firings; the net contains an immediate loop"
                )

        enabled, rates = kernel.timed_effective_rates(marking)
        if not enabled.any():
            # Absorbing tangible marking: the state persists until the horizon.
            remaining = horizon - clock
            _accumulate(measures, accumulators, marking, clock, remaining, warmup_end)
            clock = horizon
            break

        total_rate = float(rates.sum())
        if total_rate <= 0.0:
            # Zero-rate transitions take part in no race; with none left the
            # net can never advance, which is a modelling error rather than
            # an absorbing state.
            raise SimulationError(
                f"net {net.name!r}: the enabled timed transitions all have "
                "zero rate; the simulation cannot advance past marking "
                f"{tuple(int(tokens) for tokens in marking)}"
            )
        sojourn = float(rng.exponential(1.0 / total_rate))
        dwell = min(sojourn, horizon - clock)
        _accumulate(measures, accumulators, marking, clock, dwell, warmup_end)
        if clock + sojourn >= horizon:
            clock = horizon
            break
        clock += sojourn
        positive = np.nonzero(rates > 0.0)[0]
        winner = positive[
            int(rng.choice(positive.size, p=rates[positive] / total_rate))
        ]
        if clock > warmup_end:
            chosen_name = timed_names[winner]
            for measure in measures:
                if measure.transition_name == chosen_name:
                    firing_counts[measure.name] += 1
        marking = marking + kernel.delta[kernel.timed_indices[winner]]
        _check_marking(net, kernel, marking)

    observed_time = horizon - warmup_end
    if observed_time <= 0.0:
        raise SimulationError("warm-up consumed the whole simulation horizon")
    results: dict[str, float] = {}
    for measure in measures:
        if measure.transition_name is None:
            results[measure.name] = accumulators[measure.name] / observed_time
        else:
            results[measure.name] = firing_counts[measure.name] / observed_time
    return results


def _accumulate(
    measures: Sequence[_CompiledMeasure],
    accumulators: dict[str, float],
    marking: Sequence[int],
    clock: float,
    dwell: float,
    warmup_end: float,
) -> None:
    if dwell <= 0.0:
        return
    effective_start = max(clock, warmup_end)
    effective_end = clock + dwell
    effective = effective_end - effective_start
    if effective <= 0.0:
        return
    for measure in measures:
        if measure.state_value is not None:
            accumulators[measure.name] += float(measure.state_value(marking)) * effective
