"""Tests for the zero-copy multiprocess sweep scheduler and solve-path parity.

A batch reaches the process path only through the engine's fan-out rule,
so every test here that needs it gives each worker at least
``MIN_SCENARIOS_PER_WORKER`` solves (:func:`long_sweep_specs`, or the
:func:`fan_out_from_one` fixture that lowers the bound) and asserts
``last_run_backend == "process"``: none can silently run serially.
"""

import warnings

import numpy as np
import pytest

from repro.engine import (
    RewardMatrix,
    ScenarioBatchEngine,
    ScenarioSpec,
    SweepScheduler,
    contiguous_chunks,
    shared_memory_available,
)
from repro.engine import krylov
from repro.engine.parallel import STATUS_SOLVED, SweepPlan, leaked_segments, shared_pool
from repro.spn import (
    CompiledNet,
    ExpectedTokensMeasure,
    ProbabilityMeasure,
    ThroughputMeasure,
    generate_tangible_reachability_graph,
)
from repro.statespace import ChunkedGraph, write_chunked_graph

from tests.spn.nets import machine_repair

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="shared-memory segments are unavailable in this environment",
)


@pytest.fixture(autouse=True)
def _four_effective_cores(monkeypatch):
    """Pretend the machine has four effective cores.

    The engine clamps worker counts to the effective cores (so ``auto``
    never parallelises on one core), so on a single-core CI box the
    multi-chunk code paths these tests exist for would silently degenerate
    to one worker.  Pinning the reported core count keeps the chunking,
    warm-start and shared-memory machinery genuinely exercised (the workers
    merely time-share the physical core).
    """
    monkeypatch.setattr("repro.engine.dispatch.effective_cpu_count", lambda: 4)


@pytest.fixture
def fan_out_from_one(monkeypatch):
    """Let the fan-out rule give a worker process a single solve, so the
    short sweeps below exercise the process path with several workers."""
    monkeypatch.setattr("repro.engine.batch.MIN_SCENARIOS_PER_WORKER", 1)


#: Cross-backend agreement demanded of every measure value: Δ < 1e-12,
#: absolute for probability-scale values and relative for unbounded measures
#: (expected token counts scale the same solver-level deltas by their
#: magnitude).
TOLERANCE = 1e-12


def agree(value: float, reference: float) -> bool:
    return value == pytest.approx(reference, rel=TOLERANCE, abs=TOLERANCE)


@pytest.fixture(scope="module")
def graph():
    return generate_tangible_reachability_graph(
        machine_repair(machines=400, mttf=10.0, mttr=1.0)
    )


def sweep_specs():
    """A seeded sweep: neighbouring points differ in one delay."""
    return [
        ScenarioSpec(name=f"mttf={mttf:g}", delays={"FAIL": mttf})
        for mttf in (5.0, 6.5, 8.0, 10.0, 14.0, 20.0, 28.0, 40.0)
    ]


def long_sweep_specs():
    """Sixteen points: enough for ``auto`` to give each of two workers eight."""
    return [
        ScenarioSpec(name=f"mttf={mttf:g}", delays={"FAIL": mttf})
        for mttf in np.geomspace(5.0, 40.0, 16)
    ]


def pool_workers() -> int:
    """Worker count of the live persistent pool (0 when none is running)."""
    return shared_pool._workers if shared_pool._pool is not None else 0


def sweep_measures():
    return [
        ProbabilityMeasure("mostly_up", "#BROKEN <= 390"),
        ExpectedTokensMeasure("broken", "#BROKEN"),
        ThroughputMeasure("repairs", "REPAIR"),
    ]


class TestContiguousChunks:
    def test_chunks_are_contiguous_and_cover_the_range(self):
        chunks = contiguous_chunks(10, 3)
        assert len(chunks) == 3
        flattened = [index for chunk in chunks for index in chunk]
        assert flattened == list(range(10))
        for chunk in chunks:
            assert list(chunk) == list(range(chunk[0], chunk[-1] + 1))

    def test_never_more_chunks_than_items(self):
        assert len(contiguous_chunks(2, 8)) == 2
        assert contiguous_chunks(0, 4) == []

    def test_sizes_differ_by_at_most_one(self):
        sizes = [len(chunk) for chunk in contiguous_chunks(11, 4)]
        assert max(sizes) - min(sizes) <= 1


class TestCrossBackendDeterminism:
    @pytest.fixture(scope="class")
    def reference(self, graph):
        engine = ScenarioBatchEngine(graph)
        results = engine.run(sweep_specs(), sweep_measures())
        assert engine.last_run_backend == "serial"
        return results

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("process", 3)])
    def test_backends_agree_with_serial_reference(
        self, graph, reference, backend, workers, fan_out_from_one
    ):
        engine = ScenarioBatchEngine(graph)
        results = engine.run(sweep_specs(), sweep_measures(), max_workers=workers)
        assert engine.last_run_backend == backend
        assert [r.name for r in results] == [r.name for r in reference]
        for ours, ref in zip(results, reference):
            for measure in sweep_measures():
                assert agree(ours.value(measure.name), ref.value(measure.name))

    def test_keep_solutions_across_backends(self, graph, fan_out_from_one):
        specs, measures = sweep_specs()[:4], sweep_measures()
        for backend, workers in (("serial", 1), ("process", 2)):
            engine = ScenarioBatchEngine(graph)
            results = engine.run(
                specs, measures, max_workers=workers, keep_solutions=True
            )
            assert engine.last_run_backend == backend
            for spec, result in zip(specs, results):
                solution = result.solution
                assert solution is not None
                assert solution.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
                # The kept solution's graph is re-rated to the scenario, so
                # re-evaluating the measures reproduces the batch values.
                rated = solution.graph
                assert rated.rate_vector[rated.transition_index["FAIL"]] == pytest.approx(
                    1.0 / spec.delays["FAIL"]
                )
                for measure in measures:
                    assert agree(solution.measure(measure), result.value(measure.name))

    def test_chunked_process_fan_out_agrees_with_serial(
        self, graph, tmp_path, fan_out_from_one
    ):
        # Workers open the chunk directory and build their own template.
        net = CompiledNet(machine_repair(machines=400, mttf=10.0, mttr=1.0))
        write_chunked_graph(net, tmp_path / "graph")
        before = leaked_segments()
        chunked = ScenarioBatchEngine(ChunkedGraph.open(tmp_path / "graph", net))
        assert chunked.number_of_states == graph.number_of_states > 200
        fanned = chunked.run(
            sweep_specs(), sweep_measures(), max_workers=2, keep_solutions=True
        )
        assert chunked.last_run_backend == "process"
        assert leaked_segments() == before
        references = [
            ScenarioBatchEngine(source).run(
                sweep_specs(), sweep_measures(), keep_solutions=True
            )
            for source in (chunked.graph(), graph)
        ]
        for reference in references:
            for ours, ref in zip(fanned, reference):
                difference = ours.solution.probabilities - ref.solution.probabilities
                assert np.abs(difference).max() < TOLERANCE
                for measure in sweep_measures():
                    assert agree(ours.value(measure.name), ref.value(measure.name))

    def test_auto_fans_out_when_every_worker_gets_enough_scenarios(self, graph):
        engine = ScenarioBatchEngine(graph)
        results = engine.run(long_sweep_specs(), sweep_measures(), max_workers=2)
        assert engine.last_run_backend == "process"
        reference = ScenarioBatchEngine(graph).run(
            long_sweep_specs(), sweep_measures()
        )
        for ours, ref in zip(results, reference):
            for measure in sweep_measures():
                assert agree(ours.value(measure.name), ref.value(measure.name))

    def test_refreshing_worker_chains_match_serial_halves_bitwise(
        self, graph, monkeypatch
    ):
        # Each worker's contiguous chunk is one chain; the refresh schedule
        # decides from counts alone, so a fresh serial engine on the same
        # chunk makes the same decisions and the same vectors, bit for bit.
        specs, measures = long_sweep_specs(), sweep_measures()
        fanned_engine = ScenarioBatchEngine(graph)
        fanned = fanned_engine.run(
            specs, measures, max_workers=2, keep_solutions=True
        )
        assert fanned_engine.last_run_backend == "process"
        factorisations = []
        incomplete_lu = krylov.incomplete_lu

        def counted(*args, **kwargs):
            factorisations.append(None)
            return incomplete_lu(*args, **kwargs)

        monkeypatch.setattr(krylov, "incomplete_lu", counted)
        halves = contiguous_chunks(len(specs), 2)
        for half in halves:
            serial = ScenarioBatchEngine(graph).run(
                [specs[index] for index in half], measures, keep_solutions=True
            )
            for index, result in zip(half, serial):
                assert np.array_equal(
                    fanned[index].solution.probabilities,
                    result.solution.probabilities,
                )
        assert len(factorisations) > len(halves)  # some chain refreshed

    def test_auto_stays_serial_for_short_batches(self, graph):
        engine = ScenarioBatchEngine(graph)
        engine.run(sweep_specs(), sweep_measures()[:1], max_workers=2)
        assert engine.last_run_backend == "serial"

    def test_results_keep_spec_order_and_metadata(self, graph):
        engine = ScenarioBatchEngine(graph)
        specs = sweep_specs()
        results = engine.run(specs, sweep_measures()[:1], max_workers=3)
        assert [r.spec for r in results] == specs
        assert all(r.number_of_states == graph.number_of_states for r in results)
        assert all(r.solve_seconds >= 0.0 for r in results)


class TestGracefulDegradation:
    def test_empty_batch(self, graph):
        assert ScenarioBatchEngine(graph).run([], sweep_measures()[:1]) == []

    def test_fallback_when_shared_memory_unavailable(self, graph, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.parallel.shared_memory_available", lambda: False
        )
        engine = ScenarioBatchEngine(graph)
        results = engine.run(long_sweep_specs(), sweep_measures(), max_workers=2)
        assert engine.last_run_backend == "serial"
        reference = ScenarioBatchEngine(graph).run(
            long_sweep_specs(), sweep_measures()
        )
        for ours, ref in zip(results, reference):
            assert agree(ours.value("broken"), ref.value("broken"))

    def test_auto_degrades_silently_without_shared_memory(self, graph, monkeypatch):
        monkeypatch.setattr(
            "repro.engine.parallel.shared_memory_available", lambda: False
        )
        engine = ScenarioBatchEngine(graph)
        # The rule picks the process backend; its shared-memory probe then
        # fails and auto must fall back to the serial path without warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.run(long_sweep_specs(), sweep_measures()[:1], max_workers=2)
        assert engine.last_run_backend == "serial"

    def test_bounded_memory_sub_batching(self, graph, monkeypatch):
        """A tiny block bound splits the sweep into sub-batches that still
        produce the unsplit serial results (contiguous order preserved)."""
        reference = ScenarioBatchEngine(graph).run(sweep_specs(), sweep_measures())
        monkeypatch.setattr(
            "repro.engine.batch.MAX_SOLUTION_BLOCK_BYTES",
            graph.number_of_states * 8 * 2,  # two scenarios per dispatch
        )
        engine = ScenarioBatchEngine(graph)
        results = engine.run(sweep_specs(), sweep_measures())
        assert [r.name for r in results] == [r.name for r in reference]
        for ours, ref in zip(results, reference):
            for measure in sweep_measures():
                assert agree(ours.value(measure.name), ref.value(measure.name))

    def test_tiny_chain_falls_back_to_serial(self):
        # Enough solves for two workers, but four states sit below the GTH
        # cutoff the process workers never use.
        tiny = generate_tangible_reachability_graph(
            machine_repair(machines=3, mttf=10.0, mttr=1.0)
        )
        engine = ScenarioBatchEngine(tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine.run(
                long_sweep_specs(),
                [ProbabilityMeasure("all_up", "#BROKEN == 0")],
                max_workers=2,
            )
        assert engine.last_run_backend == "serial"


class TestSharedMemoryHygiene:
    def test_no_leaked_segments_after_a_run(self, graph):
        before = leaked_segments()
        engine = ScenarioBatchEngine(graph)
        engine.run(long_sweep_specs(), sweep_measures(), max_workers=2)
        assert engine.last_run_backend == "process"
        assert leaked_segments() == before

    def test_segment_released_when_a_worker_raises(
        self, graph, monkeypatch, fan_out_from_one
    ):
        from repro.engine.parallel import shutdown_shared_pool

        before = leaked_segments()
        # The persistent pool forks lazily on first use; shutting it down
        # makes the next batch fork fresh workers that inherit the patched
        # module (a pre-existing pool would keep the original function).
        shutdown_shared_pool()
        monkeypatch.setattr(
            "repro.engine.parallel._worker_run_chunk",
            _exploding_chunk,
        )
        engine = ScenarioBatchEngine(graph)
        with pytest.raises(RuntimeError, match="boom"):
            engine.run(sweep_specs()[:3], sweep_measures()[:1], max_workers=2)
        shutdown_shared_pool()
        assert leaked_segments() == before

    def test_plan_destroy_is_idempotent(self, graph):
        engine = ScenarioBatchEngine(graph)
        plan = SweepPlan(
            engine.graph(), engine.template(), engine.rate_matrix(sweep_specs()[:2])
        )
        assert any(plan.segment_name.lstrip("/") in entry for entry in leaked_segments())
        plan.destroy()
        plan.destroy()
        assert not any(
            plan.segment_name.lstrip("/") in entry for entry in leaked_segments()
        )


def _exploding_chunk(manifest, indices):
    raise RuntimeError("boom")


@pytest.mark.usefixtures("fan_out_from_one")
class TestPersistentPool:
    def test_workers_survive_across_batches(self, graph):
        """Consecutive process batches reuse the same worker processes."""
        engine = ScenarioBatchEngine(graph)
        engine.run(sweep_specs()[:4], sweep_measures()[:1], max_workers=2)
        assert engine.last_run_backend == "process"
        assert pool_workers() >= 2
        pool = shared_pool._pool
        pids = set(pool._processes)
        results = engine.run(sweep_specs()[4:], sweep_measures()[:1], max_workers=2)
        assert engine.last_run_backend == "process"
        assert shared_pool._pool is pool
        assert set(pool._processes) == pids
        reference = ScenarioBatchEngine(graph).run(
            sweep_specs()[4:], sweep_measures()[:1]
        )
        for ours, ref in zip(results, reference):
            assert agree(ours.value("mostly_up"), ref.value("mostly_up"))

    def test_pool_grows_for_larger_batches(self, graph):
        engine = ScenarioBatchEngine(graph)
        engine.run(sweep_specs()[:4], sweep_measures()[:1], max_workers=2)
        engine.run(sweep_specs(), sweep_measures()[:1], max_workers=3)
        assert engine.last_run_backend == "process"
        assert pool_workers() >= 3

    def test_shutdown_is_idempotent_and_pool_restarts(self, graph):
        from repro.engine.parallel import shutdown_shared_pool

        shutdown_shared_pool()
        shutdown_shared_pool()
        assert pool_workers() == 0
        engine = ScenarioBatchEngine(graph)
        engine.run(sweep_specs()[:3], sweep_measures()[:1], max_workers=2)
        assert engine.last_run_backend == "process"
        assert pool_workers() >= 2


class TestSweepScheduler:
    def test_direct_scheduler_run(self, graph):
        engine = ScenarioBatchEngine(graph)
        rate_matrix = engine.rate_matrix(sweep_specs()[:4])
        scheduler = SweepScheduler(graph, engine.template(), max_workers=2)
        outcome = scheduler.run(rate_matrix)
        assert outcome.solutions.shape == (4, graph.number_of_states)
        np.testing.assert_allclose(outcome.solutions.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(outcome.status == STATUS_SOLVED)
        assert np.all(outcome.solve_seconds >= 0.0)


class TestRewardMatrix:
    def test_matches_scalar_measure_evaluation(self, graph):
        from repro.spn import solve_steady_state

        solution = solve_steady_state(graph)
        matrix = RewardMatrix.from_measures(graph, sweep_measures())
        values = matrix.evaluate(
            solution.probabilities[np.newaxis, :],
            graph.rate_vector[np.newaxis, :],
        )
        for column, measure in enumerate(sweep_measures()):
            assert agree(values[0, column], solution.measure(measure))

    def test_solution_block_shape_validated(self, graph):
        matrix = RewardMatrix.from_measures(graph, sweep_measures()[:1])
        with pytest.raises(ValueError):
            matrix.evaluate(np.zeros((2, 3)))

