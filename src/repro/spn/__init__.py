"""Stochastic Petri net engine: modelling, analysis, simulation and export."""

from repro.spn.analysis import (
    SteadyStateSolution,
    TransientSolution,
    solve_steady_state,
    solve_transient,
)
from repro.spn.compare import graph_deviation
from repro.spn.composition import merge
from repro.spn.ctmc_export import generator_matrix, initial_distribution_vector
from repro.spn.enabling import CompiledNet, CompiledTransition
from repro.spn.kernel import IncidenceKernel
from repro.spn.marking import MarkingView, marking_vector
from repro.spn.model import (
    Arc,
    ArcKind,
    Place,
    ServerSemantics,
    StochasticPetriNet,
    Transition,
)
from repro.spn.parametric import with_transition_delays, with_transition_rates
from repro.spn.reachability import (
    TangibleReachabilityGraph,
    generate_tangible_reachability_graph,
    generate_tangible_reachability_graph_scalar,
    resolve_vanishing,
)
from repro.spn.rewards import (
    ExpectedTokensMeasure,
    Measure,
    ProbabilityMeasure,
    ThroughputMeasure,
    availability_measure,
    validate_measures,
)
from repro.spn.simulation import MeasureEstimate, SimulationResult, simulate
from repro.spn.validation import Severity, ValidationIssue, validate
from repro.spn.visualization import to_dot

__all__ = [
    "SteadyStateSolution",
    "TransientSolution",
    "solve_steady_state",
    "solve_transient",
    "merge",
    "generator_matrix",
    "initial_distribution_vector",
    "CompiledNet",
    "CompiledTransition",
    "IncidenceKernel",
    "MarkingView",
    "marking_vector",
    "Arc",
    "ArcKind",
    "Place",
    "ServerSemantics",
    "StochasticPetriNet",
    "Transition",
    "with_transition_delays",
    "with_transition_rates",
    "TangibleReachabilityGraph",
    "generate_tangible_reachability_graph",
    "generate_tangible_reachability_graph_scalar",
    "graph_deviation",
    "resolve_vanishing",
    "ExpectedTokensMeasure",
    "Measure",
    "ProbabilityMeasure",
    "ThroughputMeasure",
    "availability_measure",
    "validate_measures",
    "MeasureEstimate",
    "SimulationResult",
    "simulate",
    "Severity",
    "ValidationIssue",
    "validate",
    "to_dot",
]
