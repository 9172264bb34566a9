"""Tests for RBD block structures."""

import pytest

from repro.exceptions import ModelError
from repro.rbd import BasicBlock, Parallel, Series


def block(name="X", mttf=100.0, mttr=1.0):
    return BasicBlock(name, mttf, mttr)


class TestBasicBlock:
    def test_availability(self):
        assert block(mttf=99.0, mttr=1.0).availability() == pytest.approx(0.99)

    def test_reliability_decreases(self):
        component = block(mttf=100.0)
        assert component.reliability(0.0) == 1.0
        assert component.reliability(10.0) > component.reliability(100.0)

    def test_rates(self):
        component = block(mttf=200.0, mttr=4.0)
        assert component.failure_rate == pytest.approx(1.0 / 200.0)
        assert component.repair_rate == pytest.approx(0.25)

    def test_mttf_mttr_accessors(self):
        component = block(mttf=123.0, mttr=4.5)
        assert component.mttf() == 123.0
        assert component.mttr() == 4.5

    def test_override_in_availability_given(self):
        component = block()
        assert component.availability_given({"X": 0.0}) == 0.0
        assert component.availability_given({"X": 1.0}) == 1.0

    def test_invalid_override_rejected(self):
        with pytest.raises(ModelError):
            block().availability_given({"X": 2.0})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            BasicBlock("", 10.0, 1.0)
        with pytest.raises(ModelError):
            BasicBlock("X", 0.0, 1.0)
        with pytest.raises(ModelError):
            BasicBlock("X", 10.0, -1.0)


class TestSeries:
    def test_availability_is_product(self):
        structure = Series("S", [block("A", 99.0, 1.0), block("B", 49.0, 1.0)])
        assert structure.availability() == pytest.approx(0.99 * 0.98)

    def test_paper_os_pm_series(self):
        # Figure 5 / Table VI: OS (4000, 1) in series with PM (1000, 12).
        os_pm = Series("OS_PM", [block("OS", 4000.0, 1.0), block("PM", 1000.0, 12.0)])
        expected = (4000.0 / 4001.0) * (1000.0 / 1012.0)
        assert os_pm.availability() == pytest.approx(expected)

    def test_reliability_is_product(self):
        structure = Series("S", [block("A", 100.0), block("B", 200.0)])
        assert structure.reliability(50.0) == pytest.approx(
            block("A", 100.0).reliability(50.0) * block("B", 200.0).reliability(50.0)
        )

    def test_duplicate_names_rejected(self):
        with pytest.raises(ModelError):
            Series("S", [block("A"), block("A")])

    def test_empty_series_rejected(self):
        with pytest.raises(ModelError):
            Series("S", [])

    def test_basic_block_names(self):
        structure = Series("S", [block("A"), block("B")])
        assert structure.basic_block_names() == ["A", "B"]


class TestParallel:
    def test_availability(self):
        structure = Parallel("P", [block("A", 9.0, 1.0), block("B", 9.0, 1.0)])
        assert structure.availability() == pytest.approx(1.0 - 0.1 * 0.1)

    def test_parallel_beats_single(self):
        single = block("A", 100.0, 10.0)
        redundant = Parallel("P", [block("A1", 100.0, 10.0), block("A2", 100.0, 10.0)])
        assert redundant.availability() > single.availability()

    def test_reliability(self):
        structure = Parallel("P", [block("A", 100.0), block("B", 100.0)])
        r = block("A", 100.0).reliability(30.0)
        assert structure.reliability(30.0) == pytest.approx(1.0 - (1.0 - r) ** 2)


class TestNestedStructures:
    def test_series_of_parallels(self):
        structure = Series(
            "system",
            [
                Parallel("stage1", [block("A1", 9.0, 1.0), block("A2", 9.0, 1.0)]),
                Parallel("stage2", [block("B1", 9.0, 1.0), block("B2", 9.0, 1.0)]),
            ],
        )
        stage = 1.0 - 0.1 * 0.1
        assert structure.availability() == pytest.approx(stage * stage)
        assert len(structure.basic_blocks()) == 4
