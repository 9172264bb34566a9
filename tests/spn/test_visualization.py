"""Tests for Graphviz export."""

import pytest

from repro.spn import StochasticPetriNet, to_dot

from tests.spn.nets import guarded_failover, simple_component


class TestToDot:
    def test_contains_places_and_transitions(self):
        dot = to_dot(simple_component("X"))
        assert dot.startswith("digraph")
        assert '"X_ON"' in dot
        assert '"X_Failure"' in dot
        assert dot.rstrip().endswith("}")

    def test_immediate_transitions_filled(self):
        dot = to_dot(guarded_failover())
        assert "style=filled" in dot
        assert "pri=" in dot

    def test_guards_included_by_default(self):
        dot = to_dot(guarded_failover())
        assert "#PRIMARY_ON" in dot

    def test_guards_can_be_suppressed(self):
        dot = to_dot(guarded_failover(), include_guards=False)
        assert "#PRIMARY_ON" not in dot

    def test_arc_multiplicity_labelled(self):
        net = StochasticPetriNet("n")
        net.add_place("P", 4)
        net.add_place("Q", 0)
        net.add_timed_transition("T", delay=1.0)
        net.add_input_arc("P", "T", multiplicity=2)
        net.add_output_arc("T", "Q", multiplicity=3)
        net.add_inhibitor_arc("Q", "T", multiplicity=5)
        dot = to_dot(net)
        assert 'label="2"' in dot
        assert 'label="3"' in dot
        assert "odot" in dot

    def test_initial_tokens_shown(self):
        dot = to_dot(simple_component("X"))
        assert "X_ON\\n1" in dot
