"""Tests for the incidence-matrix kernel."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.spn import CompiledNet, StochasticPetriNet
from repro.spn.kernel import NO_INHIBITOR, IncidenceKernel

from tests.expressions.test_property import PLACES, boolean_strategy
from tests.spn.nets import guarded_failover, machine_repair, mm1k_queue


def kernel_of(net) -> IncidenceKernel:
    return CompiledNet(net).kernel()


def marking_block(net: CompiledNet, *markings) -> np.ndarray:
    return np.asarray(markings, dtype=np.int64)


class TestIncidenceArrays:
    def test_mm1k_matrices(self):
        compiled = CompiledNet(mm1k_queue(capacity=3))
        kernel = compiled.kernel()
        arrival = compiled.transition_index["ARRIVAL"]
        free = compiled.place_index["FREE"]
        queue = compiled.place_index["QUEUE"]
        assert kernel.input_requirement[arrival, free] == 1
        assert kernel.delta[arrival, free] == -1
        assert kernel.delta[arrival, queue] == 1
        assert (kernel.inhibitor_matrix == NO_INHIBITOR).all()

    def test_kernel_is_cached_on_the_compiled_net(self):
        compiled = CompiledNet(mm1k_queue())
        assert compiled.kernel() is compiled.kernel()

    def test_duplicate_input_arcs_flagged(self):
        net = StochasticPetriNet("dup")
        net.add_place("P", 5)
        net.add_timed_transition("T", delay=1.0)
        net.add_input_arc("P", "T", multiplicity=2)
        net.add_input_arc("P", "T", multiplicity=3)
        kernel = kernel_of(net)
        # Enabling needs the max multiplicity, firing consumes the sum.
        assert kernel.firing_can_go_negative
        assert kernel.input_requirement[0, 0] == 3
        assert kernel.input_total[0, 0] == 5


class TestEnabledAndDegrees:
    def test_enabled_matches_scalar_for_every_marking(self):
        compiled = CompiledNet(machine_repair(machines=3))
        kernel = compiled.kernel()
        block = marking_block(compiled, (3, 0), (2, 1), (0, 3), (1, 2))
        mask = kernel.enabled(block, np.arange(len(compiled.transitions)))
        for row, marking in enumerate(block):
            for column, transition in enumerate(compiled.transitions):
                assert mask[row, column] == transition.is_enabled(marking)

    def test_guards_respected_in_batch(self):
        compiled = CompiledNet(guarded_failover())
        kernel = compiled.kernel()
        transitions = np.arange(len(compiled.transitions))
        block = np.asarray(
            [[1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]], dtype=np.int64
        )
        mask = kernel.enabled(block, transitions)
        for row, marking in enumerate(block):
            for column, transition in enumerate(compiled.transitions):
                assert mask[row, column] == transition.is_enabled(marking)

    def test_degrees_match_scalar(self):
        compiled = CompiledNet(machine_repair(machines=5))
        kernel = compiled.kernel()
        block = marking_block(compiled, (5, 0), (3, 2), (1, 4))
        degrees = kernel.enabling_degrees(block, np.arange(len(compiled.transitions)))
        for row, marking in enumerate(block):
            for column, transition in enumerate(compiled.transitions):
                assert degrees[row, column] == transition.enabling_degree(marking)

    def test_large_block_path_matches_small_block_path(self):
        compiled = CompiledNet(guarded_failover())
        kernel = compiled.kernel()
        transitions = np.arange(len(compiled.transitions))
        rng = np.random.default_rng(1)
        big = rng.integers(0, 2, size=(3000, 4)).astype(np.int64)
        expected = np.vstack(
            [kernel.enabled(big[k : k + 1], transitions)[0] for k in range(64)]
        )
        np.testing.assert_array_equal(kernel.enabled(big, transitions)[:64], expected)


@given(
    guard=boolean_strategy,
    with_input=st.booleans(),
    rows=st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=9) for _ in PLACES]),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=150, deadline=None)
def test_block_guards_match_scalar_enabling(guard, with_input, rows):
    """Tabulated guards, and the closures of those that do not reduce
    (``*``), decide enabledness exactly like ``is_enabled`` row by row."""
    net = StochasticPetriNet("GUARD")
    for name in PLACES:
        net.add_place(name, 0)
    net.add_timed_transition("T", delay=1.0, guard=guard)
    if with_input:
        net.add_input_arc(PLACES[0], "T")
    compiled = CompiledNet(net)
    block = np.asarray(rows, dtype=np.int64).reshape(-1, len(PLACES))
    mask = compiled.kernel().enabled(block, np.arange(1))
    transition = compiled.transitions[0]
    assert mask[:, 0].tolist() == [transition.is_enabled(row) for row in rows]


class TestSingleMarkingQueries:
    def test_timed_effective_rates(self):
        compiled = CompiledNet(machine_repair(machines=4, mttf=10.0, mttr=1.0))
        kernel = compiled.kernel()
        marking = np.asarray([3, 1], dtype=np.int64)
        enabled, rates = kernel.timed_effective_rates(marking)
        assert enabled.all()
        # FAIL is infinite-server: 3 working machines race.
        fail = [i for i, t in enumerate(compiled.timed_transitions) if t.name == "FAIL"][0]
        assert rates[fail] == pytest.approx(0.3)

    def test_enabled_immediate_indices_priority(self):
        net = StochasticPetriNet("prio")
        net.add_place("A", 1)
        net.add_place("B", 0)
        net.add_place("C", 0)
        net.add_immediate_transition("LOW", priority=1)
        net.add_immediate_transition("HIGH", priority=2)
        net.add_input_arc("A", "LOW")
        net.add_output_arc("LOW", "B")
        net.add_input_arc("A", "HIGH")
        net.add_output_arc("HIGH", "C")
        compiled = CompiledNet(net)
        kernel = compiled.kernel()
        winners = kernel.enabled_immediate_indices(np.asarray([1, 0, 0], dtype=np.int64))
        names = [compiled.immediate_transitions[i].name for i in winners]
        assert names == ["HIGH"]


class TestPriorityClassCache:
    def test_classes_sorted_descending(self):
        net = StochasticPetriNet("classes")
        net.add_place("A", 1)
        for name, priority in (("P1", 1), ("P3", 3), ("P2", 2)):
            net.add_immediate_transition(name, priority=priority)
            net.add_input_arc("A", name)
        compiled = CompiledNet(net)
        priorities = [
            transitions[0].priority
            for transitions in compiled.immediate_priority_classes
        ]
        assert priorities == [3, 2, 1]

    def test_enabled_immediate_returns_top_class_only(self):
        net = StochasticPetriNet("classes")
        net.add_place("A", 1)
        net.add_place("B", 1)
        net.add_immediate_transition("LOW", priority=1)
        net.add_immediate_transition("HIGH", priority=5)
        net.add_input_arc("A", "LOW")
        net.add_input_arc("B", "HIGH")
        compiled = CompiledNet(net)
        assert [t.name for t in compiled.enabled_immediate((1, 1))] == ["HIGH"]
        # With B empty only the low class remains.
        assert [t.name for t in compiled.enabled_immediate((1, 0))] == ["LOW"]
