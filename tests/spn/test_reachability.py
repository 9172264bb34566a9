"""Tests for tangible reachability-graph generation."""

import numpy as np
import pytest

from repro.exceptions import StateSpaceError
from repro.spn import (
    CompiledNet,
    StochasticPetriNet,
    generate_tangible_reachability_graph,
    generate_tangible_reachability_graph_scalar,
    resolve_vanishing,
)

from tests.spn.nets import (
    guarded_failover,
    immediate_routing,
    machine_repair,
    mm1k_queue,
    simple_component,
)


class TestSimpleComponentGraph:
    def test_two_tangible_states(self):
        graph = generate_tangible_reachability_graph(simple_component("X"))
        assert graph.number_of_states == 2
        assert graph.number_of_transitions == 2

    def test_rates_match_parameters(self):
        graph = generate_tangible_reachability_graph(
            simple_component("X", mttf=100.0, mttr=2.0)
        )
        rates = sorted(graph.edge_rates)
        assert rates == pytest.approx([0.01, 0.5])

    def test_initial_distribution_is_on_state(self):
        graph = generate_tangible_reachability_graph(simple_component("X"))
        assert graph.initial_distribution == {0: 1.0}
        assert graph.marking_view(0)["X_ON"] == 1


class TestQueueGraphs:
    def test_mm1k_state_count(self):
        graph = generate_tangible_reachability_graph(mm1k_queue(capacity=3))
        assert graph.number_of_states == 4  # 0..3 customers

    def test_machine_repair_state_count(self):
        graph = generate_tangible_reachability_graph(machine_repair(machines=4))
        assert graph.number_of_states == 5

    def test_infinite_server_rates_in_graph(self):
        graph = generate_tangible_reachability_graph(
            machine_repair(machines=2, mttf=10.0, mttr=1.0)
        )
        # From the all-working state both machines race: aggregate rate 0.2.
        initial = next(iter(graph.initial_distribution))
        outgoing = graph.edge_rates[graph.edge_sources == initial]
        assert outgoing.tolist() == [pytest.approx(0.2)]

    def test_throughput_contributions_recorded(self):
        graph = generate_tangible_reachability_graph(mm1k_queue())
        arrivals = graph.throughput_vector("ARRIVAL")
        assert np.count_nonzero(arrivals) == 3  # not in full state


class TestVanishingResolution:
    def test_immediate_routing_probabilities(self):
        net = CompiledNet(immediate_routing(weight_a=1.0, weight_b=3.0))
        # After ARRIVE fires we land on the vanishing CHOICE marking.
        choice_marking = (0, 1, 0, 0)
        distribution = resolve_vanishing(net, choice_marking)
        assert len(distribution) == 2
        probabilities = sorted(distribution.values())
        assert probabilities == pytest.approx([0.25, 0.75])

    def test_tangible_marking_resolves_to_itself(self):
        net = CompiledNet(simple_component("X"))
        assert resolve_vanishing(net, (1, 0)) == {(1, 0): 1.0}

    def test_vanishing_initial_marking_is_redistributed(self):
        net = StochasticPetriNet("n")
        net.add_place("START", 1)
        net.add_place("LEFT", 0)
        net.add_place("RIGHT", 0)
        net.add_immediate_transition("GO_LEFT", weight=1.0)
        net.add_immediate_transition("GO_RIGHT", weight=1.0)
        net.add_timed_transition("BACK_L", delay=1.0)
        net.add_timed_transition("BACK_R", delay=1.0)
        net.add_input_arc("START", "GO_LEFT")
        net.add_output_arc("GO_LEFT", "LEFT")
        net.add_input_arc("START", "GO_RIGHT")
        net.add_output_arc("GO_RIGHT", "RIGHT")
        net.add_input_arc("LEFT", "BACK_L")
        net.add_output_arc("BACK_L", "START")
        net.add_input_arc("RIGHT", "BACK_R")
        net.add_output_arc("BACK_R", "START")
        graph = generate_tangible_reachability_graph(net)
        assert len(graph.initial_distribution) == 2
        assert sum(graph.initial_distribution.values()) == pytest.approx(1.0)

    def test_chained_immediates_resolve_through_multiple_levels(self):
        net = StochasticPetriNet("n")
        for name in ("A", "B", "C", "SINK"):
            net.add_place(name, 1 if name == "A" else 0)
        net.add_immediate_transition("AB")
        net.add_immediate_transition("BC")
        net.add_timed_transition("RESET", delay=1.0)
        net.add_input_arc("A", "AB")
        net.add_output_arc("AB", "B")
        net.add_input_arc("B", "BC")
        net.add_output_arc("BC", "C")
        net.add_input_arc("C", "RESET")
        net.add_output_arc("RESET", "SINK")
        compiled = CompiledNet(net)
        distribution = resolve_vanishing(compiled, compiled.initial_marking)
        assert list(distribution.values()) == [pytest.approx(1.0)]
        (marking,) = distribution
        assert marking[compiled.place_index["C"]] == 1

    def test_immediate_cycle_detected(self):
        net = StochasticPetriNet("trap")
        net.add_place("A", 1)
        net.add_place("B", 0)
        net.add_immediate_transition("AB")
        net.add_immediate_transition("BA")
        net.add_input_arc("A", "AB")
        net.add_output_arc("AB", "B")
        net.add_input_arc("B", "BA")
        net.add_output_arc("BA", "A")
        with pytest.raises(StateSpaceError):
            generate_tangible_reachability_graph(net)

    def test_vanishing_self_loop_with_exit_is_a_time_trap(self):
        # I1 takes and returns P1's token while #P1 <= 1, beside the exit
        # I0: the loop's mass decays geometrically, but it is still a cycle
        # of immediate transitions, reached here from a timed firing.
        net = StochasticPetriNet("loop")
        for name, tokens in (("P0", 1), ("P1", 0), ("P2", 0)):
            net.add_place(name, tokens)
        net.add_timed_transition("T0", delay=1.0)
        net.add_input_arc("P0", "T0")
        net.add_output_arc("T0", "P1")
        net.add_immediate_transition("I1", guard="#P1 <= 1")
        net.add_input_arc("P1", "I1")
        net.add_output_arc("I1", "P1")
        net.add_immediate_transition("I0")
        net.add_input_arc("P1", "I0")
        net.add_output_arc("I0", "P2")
        net.add_timed_transition("T1", delay=1.0)
        net.add_input_arc("P2", "T1")
        net.add_output_arc("T1", "P0")
        with pytest.raises(StateSpaceError, match="time trap"):
            generate_tangible_reachability_graph_scalar(net)
        with pytest.raises(StateSpaceError, match="time trap"):
            generate_tangible_reachability_graph(net)

    def test_time_trap_below_a_wide_vanishing_tree(self):
        # GO lands on a binary tree of 2,047 vanishing markings whose 1,024
        # leaves each race a self-loop against an exit: after as many
        # absorption terms as the tree has nodes the loops' mass (0.5 per
        # term) is below double precision, so only the structure shows them.
        depth = 10
        net = StochasticPetriNet("tree")
        for name in ("S", "X", "D", *(f"L{level}" for level in range(depth + 1))):
            net.add_place(name, 1 if name == "S" else 0)
        net.add_timed_transition("GO", delay=1.0)
        net.add_input_arc("S", "GO")
        net.add_output_arc("GO", "L0")
        for level in range(depth):
            for name, tokens in ((f"A{level}", 1 << level), (f"B{level}", 0)):
                net.add_immediate_transition(name)
                net.add_input_arc(f"L{level}", name)
                net.add_output_arc(name, f"L{level + 1}")
                if tokens:
                    net.add_output_arc(name, "X", multiplicity=tokens)
        net.add_immediate_transition("LOOP")
        net.add_input_arc(f"L{depth}", "LOOP")
        net.add_output_arc("LOOP", f"L{depth}")
        net.add_immediate_transition("EXIT")
        net.add_input_arc(f"L{depth}", "EXIT")
        net.add_output_arc("EXIT", "D")
        with pytest.raises(StateSpaceError, match="time trap"):
            generate_tangible_reachability_graph_scalar(net)
        with pytest.raises(StateSpaceError, match="time trap"):
            generate_tangible_reachability_graph(net)


class TestGuardsInReachability:
    def test_failover_graph_has_no_vanishing_states(self):
        graph = generate_tangible_reachability_graph(guarded_failover())
        compiled = graph.net
        for marking in graph.markings:
            assert not compiled.is_vanishing(marking)

    def test_failover_spare_follows_primary(self):
        graph = generate_tangible_reachability_graph(guarded_failover())
        for state_id in range(graph.number_of_states):
            view = graph.marking_view(state_id)
            if view["PRIMARY_ON"] == 1:
                assert view["SPARE_ACTIVE"] == 0
            else:
                assert view["SPARE_ACTIVE"] == 1


class TestStateSpaceLimit:
    def test_limit_enforced(self):
        with pytest.raises(StateSpaceError):
            generate_tangible_reachability_graph(machine_repair(machines=50), max_states=10)

    def test_unbounded_net_hits_limit(self):
        net = StochasticPetriNet("unbounded")
        net.add_place("P", 0)
        net.add_timed_transition("SOURCE", delay=1.0)
        net.add_output_arc("SOURCE", "P")
        with pytest.raises(StateSpaceError):
            generate_tangible_reachability_graph(net, max_states=100)
