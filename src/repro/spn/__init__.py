"""Stochastic Petri net engine: modelling, analysis and simulation."""

from repro.spn.analysis import SteadyStateSolution, solve_steady_state
from repro.spn.compare import graph_deviation
from repro.spn.composition import merge
from repro.spn.ctmc_export import generator_matrix
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

__all__ = [
    "SteadyStateSolution",
    "solve_steady_state",
    "merge",
    "generator_matrix",
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
]
