"""Memory-aware planning, chunked routing, and cache fault injection."""

import numpy as np
import pytest

from repro.core import CaseStudyParameters
from repro.core.scenarios import homogeneous_mesh_scenario
from repro.engine import (
    ScenarioBatchEngine,
    ScenarioGridOrchestrator,
    ScenarioSpec,
    TRGCache,
)
from repro.engine import dispatch, faults
from repro.engine.dispatch import (
    BackendPlan,
    memory_budget_bytes,
    parse_memory_size,
    peak_rss_bytes,
    plan_representation,
)
from repro.engine.cache import load_or_generate
from repro.engine.faults import CORRUPT_CACHE_READ, FaultPlan, FaultSpec, RetryPolicy
from repro.casestudy.grid import scenario_case
from repro.cli import main
from repro.engine.krylov import MatrixFreeSolver
from repro.exceptions import AnalysisError
from repro.markov import solvers
from repro.spn.ctmc_export import generator_matrix
from repro.spn.enabling import CompiledNet
from repro.statespace import ChunkedGraph, write_chunked_graph

from tests.spn.nets import machine_repair, mm1k_queue

REDUCED = CaseStudyParameters(required_running_vms=1)


def mesh_case(alpha=0.35):
    scenario = homogeneous_mesh_scenario(2, machines_per_datacenter=2, alpha=alpha)
    return scenario_case(scenario, parameters=REDUCED)


class TestParseMemorySize:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("512", 512),
            ("512b", 512),
            ("4k", 4 * 1024),
            ("4KiB", 4 * 1024),
            ("512M", 512 * 1024**2),
            ("512mb", 512 * 1024**2),
            ("2G", 2 * 1024**3),
            ("2GiB", 2 * 1024**3),
            ("1T", 1024**4),
            ("1.5G", int(1.5 * 1024**3)),
            (1048576, 1048576),
            (2.5e6, 2_500_000),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("text", ["", "  ", "lots", "12X", "-5M", "0", True, None])
    def test_rejected_forms(self, text):
        with pytest.raises(ValueError):
            parse_memory_size(text)

    @pytest.mark.parametrize("text", ["inf", "nan", "1e400", "1e308G", float("inf")])
    def test_non_finite_sizes_are_unrecognised(self, text):
        with pytest.raises(ValueError, match="unrecognised memory size"):
            parse_memory_size(text)

    def test_non_finite_environment_budget_is_unrecognised(self, monkeypatch):
        monkeypatch.setenv(dispatch.MEMORY_BUDGET_ENVIRONMENT_VARIABLE, "inf")
        with pytest.raises(ValueError, match="unrecognised memory size"):
            memory_budget_bytes()


class TestBudgetResolution:
    def test_explicit_budget_wins(self, monkeypatch):
        monkeypatch.setenv(dispatch.MEMORY_BUDGET_ENVIRONMENT_VARIABLE, "1G")
        assert memory_budget_bytes(12345) == 12345

    def test_environment_budget_is_parsed(self, monkeypatch):
        monkeypatch.setenv(dispatch.MEMORY_BUDGET_ENVIRONMENT_VARIABLE, "512M")
        assert memory_budget_bytes() == 512 * 1024**2

    def test_default_is_a_fraction_of_available_memory(self, monkeypatch):
        monkeypatch.delenv(
            dispatch.MEMORY_BUDGET_ENVIRONMENT_VARIABLE, raising=False
        )
        available = dispatch.available_memory_bytes()
        budget = memory_budget_bytes()
        if available is None:  # pragma: no cover - non-Linux platforms
            assert budget is None
        else:
            assert budget == pytest.approx(
                available * dispatch.DEFAULT_MEMORY_FRACTION, rel=0.5
            )

    def test_peak_rss_is_positive_and_monotone(self):
        first = peak_rss_bytes()
        ballast = np.ones(1_000_000)
        second = peak_rss_bytes()
        assert first > 0
        assert second >= first
        del ballast


class TestPlanRepresentation:
    def sizing(self, net, max_states=500_000):
        plan = plan_representation(net, max_states, budget_bytes=10**18)
        return plan.estimated_bytes, plan.chunked_estimated_bytes

    def test_small_net_stays_in_ram(self):
        plan = plan_representation(machine_repair(3), 500_000, budget_bytes=10**9)
        assert plan.representation == "in_ram"
        assert "fits" in plan.reason
        assert plan.budget_bytes == 10**9

    def test_budget_between_estimates_routes_chunked(self):
        net = mesh_case().net
        in_ram, chunked = self.sizing(net)
        assert chunked < in_ram
        plan = plan_representation(
            net, 500_000, budget_bytes=(in_ram + chunked) // 2
        )
        assert plan.representation == "chunked"
        assert "chunked working set" in plan.reason

    def test_budget_below_both_estimates_refuses(self):
        net = mesh_case().net
        _, chunked = self.sizing(net)
        plan = plan_representation(net, 500_000, budget_bytes=max(1, chunked // 100))
        assert plan.representation == "refused"
        for hint in ("--memory-budget", "max_states", "symmetry"):
            assert hint in plan.reason

    def test_forced_representation_bypasses_the_budget(self):
        plan = plan_representation(
            machine_repair(3), 500_000, budget_bytes=1, forced="in_ram"
        )
        assert plan.representation == "in_ram"
        assert "forced" in plan.reason

    def test_expected_states_overrides_the_structural_proxy(self):
        net = mesh_case().net
        proxy = plan_representation(net, 500_000, budget_bytes=10**18)
        exact = plan_representation(
            net, 500_000, budget_bytes=10**18, expected_states=1_568
        )
        assert exact.estimated_states == 1_568
        assert exact.estimated_bytes < proxy.estimated_bytes

    def test_as_dict_round_trips_every_field(self):
        plan = plan_representation(machine_repair(2), 1_000, budget_bytes=10**9)
        payload = plan.as_dict()
        assert payload == BackendPlan(**payload).as_dict()


class TestCacheFaultInjection:
    def entries(self, cache):
        return {entry.key for entry in cache.entries()}

    def test_corrupt_chunk_read_heals_only_the_hit_entry(self, tmp_path):
        cache = TRGCache(tmp_path)
        first = CompiledNet(machine_repair(3))
        second = CompiledNet(mm1k_queue(capacity=5))
        cache.generate_chunked(first, 10_000)
        cache.generate_chunked(second, 10_000)
        assert len(self.entries(cache)) == 2

        plan = FaultPlan(
            [FaultSpec(kind=CORRUPT_CACHE_READ, site="cache.load")], seed=0
        )
        with faults.injected(plan):
            assert cache.load_chunked(first, 10_000) is None
        assert plan.fired() == 1
        # The corrupted entry is gone; the untouched sibling still loads.
        assert len(self.entries(cache)) == 1
        intact = cache.load_chunked(second, 10_000)
        assert intact is not None
        intact.verify()

        # Regeneration heals the miss in place.
        cache.generate_chunked(first, 10_000)
        healed = cache.load_chunked(first, 10_000)
        assert healed is not None
        healed.verify()
        assert len(self.entries(cache)) == 2


class TestBatchEngineChunked:
    @staticmethod
    def graphs(net, tmp_path):
        """The in-RAM and the chunked graph of ``net``."""
        compiled = CompiledNet(net)
        chunked, _ = load_or_generate(
            compiled, TRGCache(tmp_path), representation="chunked"
        )
        in_ram, _ = load_or_generate(compiled)
        return in_ram, chunked

    def test_chunked_engine_matches_in_ram_under_1e12(self, tmp_path):
        in_ram, chunked = self.graphs(machine_repair(4), tmp_path)
        assert isinstance(chunked, ChunkedGraph)
        reference, solution = (
            ScenarioBatchEngine(graph).run(
                [ScenarioSpec("base")], [], keep_solutions=True
            )[0].solution
            for graph in (in_ram, chunked)
        )
        np.testing.assert_allclose(
            solution.probabilities, reference.probabilities, atol=1e-12, rtol=0
        )

    def test_chunked_engine_round_trips_the_cache(self, tmp_path):
        net = CompiledNet(machine_repair(4))
        cache = TRGCache(tmp_path)
        first, source = load_or_generate(net, cache, representation="chunked")
        assert source == "generated"
        second, source = load_or_generate(net, cache, representation="chunked")
        assert source == "cache"
        assert ScenarioBatchEngine(second).number_of_states == first.number_of_states

    def test_chunked_hit_carries_the_loading_nets_rates(self, tmp_path):
        cache = TRGCache(tmp_path)
        load_or_generate(
            CompiledNet(mm1k_queue(arrival_mean=2.0)), cache, representation="chunked"
        )
        net = CompiledNet(mm1k_queue(arrival_mean=3.0))
        loaded, source = load_or_generate(net, cache, representation="chunked")
        assert source == "cache"
        fresh, _ = load_or_generate(net)
        np.testing.assert_array_equal(loaded.rate_vector, fresh.rate_vector)
        np.testing.assert_array_equal(
            np.sort(loaded.exit_rates()), np.sort(fresh.exit_rates())
        )

    def test_chunked_engine_refuses_transient_and_explicit_methods(self, tmp_path):
        _, chunked = self.graphs(machine_repair(3), tmp_path)
        engine = ScenarioBatchEngine(chunked)
        with pytest.raises(AnalysisError):
            engine.run_transient([ScenarioSpec("base")], [], [1.0])
        # The engine has one solver policy; it takes no method to refuse.
        with pytest.raises(TypeError):
            ScenarioBatchEngine(chunked, method="direct")

    def test_unknown_representation_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            load_or_generate(
                CompiledNet(machine_repair(3)),
                TRGCache(tmp_path),
                representation="holographic",
            )


class TestMatrixFreeSolver:
    def test_chunk_reads_per_solve_are_bounded(self, tmp_path, monkeypatch):
        # A birth-death chain explored one state per wave: 401 one-state
        # chunks.  Each solve rates the edges in one pass over the chunks;
        # no chunk is read inside a matvec.
        net = machine_repair(400, repair_crews=3)
        write_chunked_graph(net, tmp_path / "graph", max_states=10_000)
        graph = ChunkedGraph.open(tmp_path / "graph", CompiledNet(net))
        assert len(graph.chunks) == 401
        in_ram = graph.materialize()
        reads = []
        chunk_array = ChunkedGraph.chunk_array

        def counted(self, index, field):
            reads.append(index)
            return chunk_array(self, index, field)

        monkeypatch.setattr(ChunkedGraph, "chunk_array", counted)
        solver = MatrixFreeSolver(graph)
        for scale in (1.0, 1.5):
            rates = graph.rate_vector.copy()
            rates[graph.transition_index["FAIL"]] *= scale
            before = len(reads)
            pi = solver.solve(rates)
            assert len(reads) - before <= 10 * len(graph.chunks)
            exact = solvers.steady_state(
                generator_matrix(in_ram.with_rate_vector(rates)), method="direct"
            )
            assert np.abs(pi - exact).max() < 1e-12


class TestGridPlanner:
    def straddling_budget(self, case):
        plan = plan_representation(case.net, 500_000, budget_bytes=10**18)
        return (plan.estimated_bytes + plan.chunked_estimated_bytes) // 2

    def test_constrained_budget_routes_groups_chunked(self, tmp_path):
        cases = [mesh_case(alpha=0.35), mesh_case(alpha=0.45)]
        budget = self.straddling_budget(cases[0])
        reference = ScenarioGridOrchestrator(cache=TRGCache(tmp_path / "ram")).run(
            cases
        )
        outcome = ScenarioGridOrchestrator(
            cache=TRGCache(tmp_path / "chunked"), memory_budget=budget
        ).run(cases)
        assert not outcome.failures
        for group in outcome.groups:
            assert group.representation == "chunked"
            assert group.memory_budget_bytes == budget
            assert group.estimated_peak_bytes is not None
            assert group.estimated_peak_bytes <= budget
            assert "budget" in group.planner_reason
            assert group.peak_rss_bytes is not None and group.peak_rss_bytes > 0
        for row, expected in zip(outcome.results, reference.results):
            delta = abs(row.measures["availability"] - expected.measures["availability"])
            assert delta < 1e-12

    def test_failed_block_factorisation_quarantines_the_group(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import krylov

        def singular(matrix, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(krylov.sparse_linalg, "spilu", singular)
        case = mesh_case()
        outcome = ScenarioGridOrchestrator(
            cache=TRGCache(tmp_path),
            memory_budget=self.straddling_budget(case),
            retry=RetryPolicy(max_retries=0),
        ).run([case])
        assert not outcome.results
        (failure,) = outcome.failures
        assert failure.stage == "solve"
        assert failure.error_type == "AnalysisError"
        assert "the balance system" in failure.error

    def test_unconstrained_budget_stays_in_ram(self, tmp_path):
        outcome = ScenarioGridOrchestrator(
            cache=TRGCache(tmp_path), memory_budget=10**18
        ).run([mesh_case()])
        (group,) = outcome.groups
        assert group.representation == "in_ram"
        assert group.planner_reason is not None and "fits" in group.planner_reason

    def test_impossible_budget_quarantines_the_group_at_plan_stage(self, tmp_path):
        outcome = ScenarioGridOrchestrator(
            cache=TRGCache(tmp_path), memory_budget=4096
        ).run([mesh_case()])
        assert not outcome.results
        (failure,) = outcome.failures
        assert failure.stage == "plan"
        assert failure.error_type == "MemoryBudgetExceeded"
        assert failure.metadata["representation"] == "refused"


class TestCommandLine:
    def test_grid_rejects_malformed_memory_budget(self, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--memory-budget", "lots"])
        assert "--memory-budget" in capsys.readouterr().err

    def test_cache_show_reports_total_bytes_and_representation(
        self, capsys, tmp_path
    ):
        cache = TRGCache(tmp_path)
        cache.generate_chunked(CompiledNet(machine_repair(3)), 10_000)
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "total on disk" in output
        assert "chunked" in output

    def test_cache_show_rejects_older_than(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "--dir", str(tmp_path), "--older-than", "5"])
        assert "--older-than" in capsys.readouterr().err

    def test_cache_clear_older_than_spares_fresh_entries(self, capsys, tmp_path):
        cache = TRGCache(tmp_path)
        cache.generate_chunked(CompiledNet(machine_repair(3)), 10_000)
        assert main(["cache", "clear", "--dir", str(tmp_path), "--older-than", "1"]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert len(cache.entries()) == 1
        assert main(["cache", "clear", "--dir", str(tmp_path), "--older-than", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not cache.entries()
