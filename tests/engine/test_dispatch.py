"""Tests for worker clamping, the fan-out rule and pipeline scheduling."""

import warnings

import pytest

from repro.engine import ScenarioBatchEngine, ScenarioSpec
from repro.engine.dispatch import effective_cpu_count, resolve_worker_count
from repro.spn import ProbabilityMeasure, generate_tangible_reachability_graph

from tests.spn.nets import machine_repair


def sweep_engine(machines=400):
    return ScenarioBatchEngine(
        generate_tangible_reachability_graph(
            machine_repair(machines=machines, mttf=10.0, mttr=1.0)
        )
    )


def sweep_specs(count=6):
    return [
        ScenarioSpec(name=f"mttf={mttf}", delays={"FAIL": mttf})
        for mttf in (5.0, 8.0, 12.0, 18.0, 27.0, 40.0)[:count]
    ]


def long_sweep_specs():
    """Sixteen points: on two or more cores, enough for two workers."""
    return [
        ScenarioSpec(name=f"mttf={mttf:g}", delays={"FAIL": float(mttf)})
        for mttf in range(5, 21)
    ]


def availability():
    return [ProbabilityMeasure("all_up", "#BROKEN == 0")]


class TestEffectiveCores:
    def test_reports_at_least_one_core(self):
        assert effective_cpu_count() >= 1

    def test_honours_affinity_mask(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert effective_cpu_count() == 2


class TestWorkerClamp:
    def test_requests_within_cores_pass_through_silently(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.dispatch.effective_cpu_count", lambda: 8
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_worker_count(4) == 4

    def test_requests_above_cores_are_clamped_with_warning(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.dispatch.effective_cpu_count", lambda: 2
        )
        with pytest.warns(UserWarning, match="clamping max_workers to 2"):
            assert resolve_worker_count(8) == 2

    def test_non_positive_requests_become_one_worker(self):
        assert resolve_worker_count(0) == 1
        assert resolve_worker_count(-3) == 1


class TestAutoOnOneCore:
    """The headline regression: auto must never parallelise on one core."""

    @pytest.fixture(autouse=True)
    def _single_core(self, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.dispatch.effective_cpu_count", lambda: 1
        )

    def test_auto_resolves_to_serial(self):
        engine = sweep_engine()
        with pytest.warns(UserWarning, match="clamping max_workers to 1"):
            engine.run(sweep_specs(), availability(), max_workers=8)
        assert engine.last_run_backend == "serial"

    def test_explicit_jobs_above_core_count_are_clamped(self):
        # Sixteen solves would fan out over two workers on two cores; the
        # clamp to the one effective core leaves a single worker, so the
        # batch runs serially.
        engine = sweep_engine()
        with pytest.warns(UserWarning, match="clamping max_workers to 1"):
            engine.run(long_sweep_specs(), availability(), max_workers=8)
        assert engine.last_run_backend == "serial"

    def test_auto_matches_serial_results_exactly(self):
        auto_engine = sweep_engine()
        with pytest.warns(UserWarning, match="clamping"):
            auto = auto_engine.run(sweep_specs(), availability(), max_workers=8)
        serial = sweep_engine().run(sweep_specs(), availability())
        for ours, ref in zip(auto, serial):
            assert ours.value("all_up") == ref.value("all_up")


class TestFanOutRule:
    """A batch fans out over ``min(workers, solves // 8)`` processes when
    that is at least two and the chain is above the GTH cutoff; everything
    else runs serially."""

    @pytest.fixture(scope="class")
    def supported(self):
        return sweep_engine()

    @pytest.fixture(scope="class")
    def unsupported(self):
        # Four states sit below the GTH cutoff the process workers never use.
        return sweep_engine(machines=3)

    @pytest.mark.parametrize(
        "engine_name,scenarios,workers,expected",
        [
            ("supported", 210, 2, ("process", 2)),
            ("supported", 210, 4, ("process", 4)),
            ("supported", 20, 4, ("process", 2)),
            ("supported", 15, 2, ("serial", 1)),
            ("supported", 8, 2, ("serial", 1)),
            ("supported", 2, 2, ("serial", 1)),
            ("supported", 210, 1, ("serial", 1)),
            ("unsupported", 210, 2, ("serial", 1)),
        ],
    )
    def test_rule(self, request, engine_name, scenarios, workers, expected):
        engine = request.getfixturevalue(engine_name)
        assert engine._fan_out(workers, scenarios) == expected


class TestPipelineBudget:
    def make(self, total):
        from repro.engine.dispatch import PipelineBudget

        return PipelineBudget(total)

    def test_generation_fills_whole_budget_without_solves(self):
        budget = self.make(3)
        grants = [budget.acquire_generation() for _ in range(4)]
        assert grants == [True, True, True, False]

    def test_solve_pending_holds_one_worker_back(self):
        budget = self.make(3)
        assert budget.acquire_generation(solve_pending=True)
        assert budget.acquire_generation(solve_pending=True)
        assert not budget.acquire_generation(solve_pending=True)

    def test_single_worker_budget_still_generates(self):
        budget = self.make(1)
        assert budget.acquire_generation(solve_pending=True)
        assert not budget.acquire_generation(solve_pending=True)

    def test_solve_takes_idle_workers_and_never_less_than_one(self):
        budget = self.make(4)
        assert budget.acquire_generation(solve_pending=True)
        assert budget.acquire_solve() == 3
        assert budget.acquire_solve() == 1  # everything busy: still one
        budget.release_solve(3)
        budget.release_generation()
        assert budget.acquire_solve() == 3  # 4 total - 1 still solving

    def test_release_floors_at_zero(self):
        budget = self.make(2)
        budget.release_generation()
        budget.release_solve(5)
        assert budget.snapshot() == {"total": 2, "generating": 0, "solving": 0}

    def test_total_clamped_to_at_least_one(self):
        assert self.make(0).total == 1
        assert self.make(-3).total == 1


class TestGenerationCostProxy:
    def test_monotone_in_structure_size(self):
        from repro.engine.dispatch import estimate_generation_cost
        from repro.spn import CompiledNet

        small = CompiledNet(machine_repair(machines=2))
        large = CompiledNet(machine_repair(machines=6))
        assert estimate_generation_cost(large) > estimate_generation_cost(small)

    def test_positive_even_for_empty_marking(self):
        from repro.engine.dispatch import estimate_generation_cost

        class Hollow:
            initial_marking = ()
            transitions = ()

        assert estimate_generation_cost(Hollow()) > 0.0
