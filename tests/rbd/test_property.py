"""Property-based tests for RBD invariants (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.rbd import BasicBlock, Parallel, Series

mttf_strategy = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
mttr_strategy = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def _blocks(values):
    return [
        BasicBlock(f"B{i}", mttf, mttr) for i, (mttf, mttr) in enumerate(values)
    ]


component_lists = st.lists(st.tuples(mttf_strategy, mttr_strategy), min_size=1, max_size=5)


@given(values=component_lists)
@settings(max_examples=100, deadline=None)
def test_series_availability_not_above_weakest_component(values):
    blocks = _blocks(values)
    structure = Series("S", blocks)
    weakest = min(block.availability() for block in blocks)
    assert structure.availability() <= weakest + 1e-12
    assert 0.0 <= structure.availability() <= 1.0


@given(values=component_lists)
@settings(max_examples=100, deadline=None)
def test_parallel_availability_not_below_strongest_component(values):
    blocks = _blocks(values)
    structure = Parallel("P", blocks)
    strongest = max(block.availability() for block in blocks)
    assert structure.availability() >= strongest - 1e-12
    assert 0.0 <= structure.availability() <= 1.0


@given(values=component_lists, time=st.floats(min_value=0.0, max_value=1e5))
@settings(max_examples=100, deadline=None)
def test_reliability_bounded_and_ordered(values, time):
    blocks = _blocks(values)
    series_structure = Series("S", blocks)
    parallel_structure = Parallel(
        "P", [BasicBlock(f"C{i}", b.mttf(), b.mttr()) for i, b in enumerate(blocks)]
    )
    r_series = series_structure.reliability(time)
    r_parallel = parallel_structure.reliability(time)
    assert 0.0 <= r_series <= r_parallel + 1e-12
    assert r_parallel <= 1.0


@given(values=component_lists)
@settings(max_examples=50, deadline=None)
def test_availability_given_overrides_bounds_structure(values):
    """Pinning any single component to perfect/failed brackets the nominal value."""
    blocks = _blocks(values)
    structure = Series("S", blocks)
    nominal = structure.availability()
    name = blocks[0].name
    assert structure.availability_given({name: 0.0}) <= nominal + 1e-12
    assert structure.availability_given({name: 1.0}) >= nominal - 1e-12
