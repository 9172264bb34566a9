"""Tests for net composition (union)."""

import pytest

from repro.exceptions import ModelError
from repro.spn import merge, solve_steady_state

from tests.spn.nets import simple_component


class TestMerge:
    def test_disjoint_union_keeps_everything(self):
        merged = merge("pair", [simple_component("A"), simple_component("B")])
        assert set(merged.place_names) == {"A_ON", "A_OFF", "B_ON", "B_OFF"}
        assert len(merged.transitions) == 4
        assert len(merged.arcs) == 8

    def test_merged_components_stay_independent(self):
        merged = merge(
            "pair",
            [simple_component("A", 100.0, 1.0), simple_component("B", 10.0, 1.0)],
        )
        solution = solve_steady_state(merged)
        assert solution.probability("#A_ON > 0") == pytest.approx(100.0 / 101.0)
        assert solution.probability("#B_ON > 0") == pytest.approx(10.0 / 11.0)
        both = solution.probability("#A_ON > 0 AND #B_ON > 0")
        assert both == pytest.approx((100.0 / 101.0) * (10.0 / 11.0))

    def test_shared_place_fused(self):
        from repro.spn import StochasticPetriNet

        producer = StochasticPetriNet("producer")
        producer.add_place("BUFFER", 0)
        producer.add_place("IDLE", 1)
        producer.add_timed_transition("PRODUCE", delay=1.0)
        producer.add_input_arc("IDLE", "PRODUCE")
        producer.add_output_arc("PRODUCE", "BUFFER")

        consumer = StochasticPetriNet("consumer")
        consumer.add_place("BUFFER", 0)
        consumer.add_place("DONE", 0)
        consumer.add_timed_transition("CONSUME", delay=1.0)
        consumer.add_input_arc("BUFFER", "CONSUME")
        consumer.add_output_arc("CONSUME", "DONE")

        merged = merge("line", [producer, consumer])
        assert merged.place_names.count("BUFFER") == 1
        assert set(merged.place_names) == {"BUFFER", "IDLE", "DONE"}

    def test_conflicting_initial_markings_rejected(self):
        first = simple_component("A", initially_on=True)
        second = simple_component("A", initially_on=False)
        with pytest.raises(ModelError):
            merge("broken", [first, second])

    def test_duplicate_transition_names_rejected(self):
        with pytest.raises(ModelError):
            merge("broken", [simple_component("A"), simple_component("A")])

    def test_empty_merge_rejected(self):
        with pytest.raises(ModelError):
            merge("empty", [])
