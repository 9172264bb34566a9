"""Property tests: the chunked backend is exact on random GSPNs.

Two invariants, checked on randomly composed nets (independent cycles,
machine-repair blocks and immediate-routing blocks — bounded, irreducible
product chains with both tangible and vanishing markings):

* **bit-identity** — writing the chunked entry and materialising it back
  reproduces the in-RAM generation exactly (same state numbering, same
  edge arrays, same rates), provided both sides use the same exploration
  chunk size (state numbering is discovery-order dependent, and discovery
  order depends on the wave batching);
* **solver agreement** — the stationary vector from the in-RAM direct
  solve, the in-RAM preconditioner-reusing Krylov solve and the
  matrix-free chunked solve agree to < 1e-12, element-wise.
"""

import numpy as np
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.engine.krylov import MatrixFreeSolver, ReusableSolver
from repro.engine.system import ConstrainedSystemTemplate
from repro.markov import solvers
from repro.spn import (
    CompiledNet,
    ServerSemantics,
    StochasticPetriNet,
    generate_tangible_reachability_graph,
)
from repro.spn.ctmc_export import generator_matrix
from repro.statespace import ChunkedGraph, write_chunked_graph

SOLVER_AGREEMENT = 1e-12

positive_delay = st.floats(min_value=0.05, max_value=500.0, allow_nan=False)


def add_cycle(net, name, draw):
    """A ring of 2–3 places with 1–2 circulating tokens."""
    length = draw(st.integers(min_value=2, max_value=3))
    tokens = draw(st.integers(min_value=1, max_value=2))
    for position in range(length):
        net.add_place(f"{name}_P{position}", initial_tokens=tokens if position == 0 else 0)
    for position in range(length):
        transition = f"{name}_T{position}"
        semantics = (
            ServerSemantics.INFINITE_SERVER
            if draw(st.booleans())
            else ServerSemantics.SINGLE_SERVER
        )
        net.add_timed_transition(
            transition, delay=draw(positive_delay), semantics=semantics
        )
        net.add_input_arc(f"{name}_P{position}", transition)
        net.add_output_arc(transition, f"{name}_P{(position + 1) % length}")


def add_repair(net, name, draw):
    """A machine-repair block with 1–3 machines."""
    machines = draw(st.integers(min_value=1, max_value=3))
    net.add_place(f"{name}_UP", initial_tokens=machines)
    net.add_place(f"{name}_DOWN", initial_tokens=0)
    net.add_timed_transition(
        f"{name}_FAIL",
        delay=draw(positive_delay),
        semantics=ServerSemantics.INFINITE_SERVER,
    )
    net.add_timed_transition(f"{name}_FIX", delay=draw(positive_delay))
    net.add_input_arc(f"{name}_UP", f"{name}_FAIL")
    net.add_output_arc(f"{name}_FAIL", f"{name}_DOWN")
    net.add_input_arc(f"{name}_DOWN", f"{name}_FIX")
    net.add_output_arc(f"{name}_FIX", f"{name}_UP")


def add_routing(net, name, draw):
    """A timed arrival raced by two immediate transitions (vanishing states)."""
    net.add_place(f"{name}_SRC", initial_tokens=1)
    net.add_place(f"{name}_CHOICE", initial_tokens=0)
    net.add_place(f"{name}_A", initial_tokens=0)
    net.add_place(f"{name}_B", initial_tokens=0)
    net.add_timed_transition(f"{name}_ARRIVE", delay=draw(positive_delay))
    net.add_immediate_transition(
        f"{name}_GO_A", weight=draw(st.floats(min_value=0.1, max_value=10.0))
    )
    net.add_immediate_transition(
        f"{name}_GO_B", weight=draw(st.floats(min_value=0.1, max_value=10.0))
    )
    net.add_timed_transition(f"{name}_DONE_A", delay=draw(positive_delay))
    net.add_timed_transition(f"{name}_DONE_B", delay=draw(positive_delay))
    net.add_input_arc(f"{name}_SRC", f"{name}_ARRIVE")
    net.add_output_arc(f"{name}_ARRIVE", f"{name}_CHOICE")
    net.add_input_arc(f"{name}_CHOICE", f"{name}_GO_A")
    net.add_output_arc(f"{name}_GO_A", f"{name}_A")
    net.add_input_arc(f"{name}_CHOICE", f"{name}_GO_B")
    net.add_output_arc(f"{name}_GO_B", f"{name}_B")
    net.add_input_arc(f"{name}_A", f"{name}_DONE_A")
    net.add_output_arc(f"{name}_DONE_A", f"{name}_SRC")
    net.add_input_arc(f"{name}_B", f"{name}_DONE_B")
    net.add_output_arc(f"{name}_DONE_B", f"{name}_SRC")


BLOCKS = {"cycle": add_cycle, "repair": add_repair, "routing": add_routing}


@st.composite
def random_gspn(draw):
    net = StochasticPetriNet("RANDOM_GSPN")
    count = draw(st.integers(min_value=1, max_value=3))
    for index in range(count):
        kind = draw(st.sampled_from(sorted(BLOCKS)))
        BLOCKS[kind](net, f"C{index}", draw)
    return net


@given(net=random_gspn())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_chunked_entry_is_bit_identical_to_in_ram(net, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunks") / "graph"
    reference = generate_tangible_reachability_graph(net, max_states=5_000)
    # Same (default) chunk size on both sides: state numbering follows
    # discovery order, and discovery order follows the wave batching.
    write_chunked_graph(net, directory, max_states=5_000)
    materialized = ChunkedGraph.open(directory, CompiledNet(net)).materialize()
    assert materialized.number_of_states == reference.number_of_states
    np.testing.assert_array_equal(materialized.edge_sources, reference.edge_sources)
    np.testing.assert_array_equal(materialized.edge_targets, reference.edge_targets)
    np.testing.assert_array_equal(materialized.edge_rates, reference.edge_rates)
    np.testing.assert_array_equal(materialized.rate_vector, reference.rate_vector)
    assert list(materialized.markings) == list(reference.markings)


@given(net=random_gspn())
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_all_three_solve_paths_agree(net, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chunks") / "graph"
    graph = generate_tangible_reachability_graph(net, max_states=5_000)
    write_chunked_graph(net, directory, max_states=5_000)
    chunked = ChunkedGraph.open(directory, CompiledNet(net))

    pi_direct = solvers.steady_state(generator_matrix(graph), method="direct")
    if graph.number_of_states > 1:
        template = ConstrainedSystemTemplate(
            graph.edge_sources, graph.edge_targets, graph.number_of_states
        )
        pi_krylov = ReusableSolver(template).solve(
            graph.edge_rates, lambda: generator_matrix(graph)
        )
    else:
        pi_krylov = np.array([1.0])
    pi_chunked = MatrixFreeSolver(chunked).solve()

    assert np.abs(pi_direct - pi_krylov).max() < SOLVER_AGREEMENT
    assert np.abs(pi_direct - pi_chunked).max() < SOLVER_AGREEMENT
    assert np.abs(pi_krylov - pi_chunked).max() < SOLVER_AGREEMENT
    assert pi_chunked.sum() == np.float64(1.0) or abs(pi_chunked.sum() - 1.0) < 1e-12
