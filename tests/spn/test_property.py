"""Property-based tests for the SPN engine (hypothesis)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import StateSpaceError
from repro.metrics import availability_from_mttf_mttr
from repro.spn import (
    CompiledNet,
    StochasticPetriNet,
    generate_tangible_reachability_graph,
    generate_tangible_reachability_graph_scalar,
    graph_deviation,
    solve_steady_state,
)

from tests.spn.nets import machine_repair, mm1k_queue, simple_component

positive_time = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


@given(mttf=positive_time, mttr=positive_time)
@settings(max_examples=60, deadline=None)
def test_simple_component_availability_matches_closed_form(mttf, mttr):
    """P{#X_ON>0} equals MTTF/(MTTF+MTTR) for any parameter values."""
    solution = solve_steady_state(simple_component("X", mttf, mttr))
    expected = availability_from_mttf_mttr(mttf, mttr)
    assert solution.probability("#X_ON > 0") == pytest.approx(expected, rel=1e-9)


@given(
    machines=st.integers(min_value=1, max_value=6),
    mttf=positive_time,
    mttr=positive_time,
)
@settings(max_examples=40, deadline=None)
def test_machine_repair_token_conservation(machines, mttf, mttr):
    """Every tangible marking conserves the total number of machines."""
    graph = generate_tangible_reachability_graph(machine_repair(machines, mttf, mttr))
    for marking in graph.markings:
        assert sum(marking) == machines
    assert graph.number_of_states == machines + 1


@given(
    machines=st.integers(min_value=1, max_value=5),
    mttf=positive_time,
    mttr=positive_time,
)
@settings(max_examples=40, deadline=None)
def test_steady_state_probabilities_form_distribution(machines, mttf, mttr):
    """The stationary vector is a probability distribution."""
    solution = solve_steady_state(machine_repair(machines, mttf, mttr))
    assert solution.probabilities.sum() == pytest.approx(1.0)
    assert (solution.probabilities >= -1e-12).all()


@given(capacity=st.integers(min_value=1, max_value=8), arrival=positive_time, service=positive_time)
@settings(max_examples=40, deadline=None)
def test_mm1k_reachability_size_and_boundedness(capacity, arrival, service):
    """The M/M/1/k net has exactly capacity+1 tangible markings, all bounded."""
    graph = generate_tangible_reachability_graph(mm1k_queue(arrival, service, capacity))
    assert graph.number_of_states == capacity + 1
    for marking in graph.markings:
        assert max(marking) <= capacity


@given(mttf=positive_time, mttr=positive_time)
@settings(max_examples=30, deadline=None)
def test_probability_and_complement_sum_to_one(mttf, mttr):
    """P{expr} + P{NOT expr} = 1 for any marking predicate."""
    solution = solve_steady_state(simple_component("X", mttf, mttr))
    p_up = solution.probability("#X_ON > 0")
    p_down = solution.probability("NOT (#X_ON > 0)")
    assert p_up + p_down == pytest.approx(1.0)


@given(mttf=positive_time, mttr=positive_time)
@settings(max_examples=30, deadline=None)
def test_expected_tokens_matches_weighted_sum(mttf, mttr):
    """E{#p} equals the probability-weighted token count over all markings."""
    solution = solve_steady_state(simple_component("X", mttf, mttr))
    manual = sum(
        probability * marking[solution.graph.net.place_index["X_ON"]]
        for marking, probability in zip(solution.graph.markings, solution.probabilities)
    )
    assert solution.expected_tokens("#X_ON") == pytest.approx(manual)


# --- random-net equivalence of the vectorized and scalar explorers ----------


@st.composite
def random_gspn(draw):
    """A small random GSPN with inputs, outputs, inhibitors, guards and
    immediate transitions — the whole feature surface of the explorers."""
    n_places = draw(st.integers(min_value=2, max_value=4))
    net = StochasticPetriNet("RANDOM")
    for p in range(n_places):
        net.add_place(f"P{p}", initial_tokens=draw(st.integers(0, 2)))

    def attach_arcs(name, conserve_tokens=False):
        # Immediate transitions are kept token-non-increasing so that random
        # nets cannot grow markings through zero-time firings (which neither
        # explorer bounds by ``max_states``); immediate *cycles* remain
        # possible and must be reported by both explorers.
        n_inputs = draw(st.integers(1, 2))
        for place in draw(
            st.lists(
                st.integers(0, n_places - 1),
                min_size=n_inputs,
                max_size=n_inputs,
                unique=True,
            )
        ):
            net.add_input_arc(f"P{place}", name, multiplicity=draw(st.integers(1, 2)))
        n_outputs = 1 if conserve_tokens else draw(st.integers(1, 2))
        for place in draw(
            st.lists(
                st.integers(0, n_places - 1),
                min_size=n_outputs,
                max_size=n_outputs,
                unique=True,
            )
        ):
            net.add_output_arc(
                name,
                f"P{place}",
                multiplicity=1 if conserve_tokens else draw(st.integers(1, 2)),
            )
        if draw(st.booleans()):
            place = draw(st.integers(0, n_places - 1))
            net.add_inhibitor_arc(f"P{place}", name, multiplicity=draw(st.integers(1, 3)))

    def comparison():
        form = f"#P{draw(st.integers(0, n_places - 1))}"
        if draw(st.booleans()):
            form += f" + #P{draw(st.integers(0, n_places - 1))}"
        operator = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        return f"{form} {operator} {draw(st.integers(0, 3))}"

    def maybe_guard():
        # 1-3 comparisons joined by AND / OR, optionally negated: guards
        # whose atom tables hold several atoms.
        if not draw(st.booleans()):
            return None
        guard = comparison()
        for _ in range(draw(st.integers(0, 2))):
            connective = draw(st.sampled_from(["AND", "OR"]))
            guard = f"({guard}) {connective} ({comparison()})"
        if draw(st.booleans()):
            guard = f"NOT ({guard})"
        return guard

    n_timed = draw(st.integers(1, 3))
    for t in range(n_timed):
        net.add_timed_transition(
            f"T{t}",
            delay=draw(st.floats(0.1, 100.0)),
            semantics=draw(st.sampled_from(["ss", "is"])),
            guard=maybe_guard(),
        )
        attach_arcs(f"T{t}")
    n_immediate = draw(st.integers(0, 2))
    for i in range(n_immediate):
        net.add_immediate_transition(
            f"I{i}",
            weight=draw(st.floats(0.5, 4.0)),
            priority=draw(st.integers(1, 2)),
            guard=maybe_guard(),
        )
        attach_arcs(f"I{i}", conserve_tokens=True)
    return net


@given(net=random_gspn())
@settings(max_examples=120, deadline=None)
def test_vectorized_explorer_matches_scalar_reference(net):
    """Both explorers agree on markings, edges and coefficients (Δ < 1e-12)
    — or fail identically (state-space limit, immediate cycle)."""
    try:
        scalar = generate_tangible_reachability_graph_scalar(net, max_states=300)
    except StateSpaceError:
        with pytest.raises(StateSpaceError):
            generate_tangible_reachability_graph(net, max_states=300)
        return
    vectorized = generate_tangible_reachability_graph(net, max_states=300)
    assert graph_deviation(scalar, vectorized) < 1e-12
    assert sorted(scalar.markings) == sorted(vectorized.markings)
    assert scalar.transition_names == vectorized.transition_names
    np.testing.assert_array_equal(scalar.rate_vector, vectorized.rate_vector)


@given(net=random_gspn(), chunk_size=st.integers(min_value=1, max_value=7))
@settings(max_examples=40, deadline=None)
def test_vectorized_explorer_chunk_size_invariance(net, chunk_size):
    """The wave size never changes the produced graph."""
    try:
        reference = generate_tangible_reachability_graph(net, max_states=300)
    except StateSpaceError:
        return
    chunked = generate_tangible_reachability_graph(
        net, max_states=300, chunk_size=chunk_size
    )
    assert graph_deviation(reference, chunked) < 1e-12
