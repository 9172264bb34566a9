"""Self-healing grid execution under injected faults.

Chaos tests of the robustness layer: deterministic fault plans
(:mod:`repro.engine.faults`) kill pool workers, poison tasks, hang
generations and corrupt cache entries mid-grid, and the assertions check
the orchestrator heals — bit-identical results (Δ < 1e-12 against a
fault-free run), rebuilds recorded in provenance, quarantined cases
surfaced as structured failures instead of aborts, and checkpoint shards
that resume exactly the missing work.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.casestudy.grid import scenario_case
from repro.core import CaseStudyParameters
from repro.core.scenarios import CITY_PAIRS, DistributedScenario, SingleDataCenterScenario
from repro.engine import (
    KrylovConvergenceError,
    ReusableSolver,
    ScenarioBatchEngine,
    ScenarioGridOrchestrator,
)
from repro.engine import faults, krylov
from repro.engine.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.engine.grid import load_checkpoint
from repro.engine.parallel import leaked_segments
from repro.exceptions import AnalysisError
from repro.spn import generate_tangible_reachability_graph

TOLERANCE = 1e-12
REDUCED = CaseStudyParameters(required_running_vms=1)

#: Tight backoffs keep the retry machinery honest without slowing the suite.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_seconds=0.01, max_backoff_seconds=0.05)


def reduced_case(scenario, **kwargs):
    return scenario_case(scenario, parameters=REDUCED, **kwargs)


def distributed(alpha=0.35, years=100.0, machines=1, pair=0):
    first, second = CITY_PAIRS[pair]
    return DistributedScenario(
        first,
        second,
        alpha=alpha,
        disaster_mean_time_years=years,
        machines_per_datacenter=machines,
    )


def grid_cases():
    """Four scenarios over two structure groups (mixed shapes)."""
    return [
        reduced_case(distributed(alpha=0.35)),
        reduced_case(distributed(alpha=0.45)),
        reduced_case(
            SingleDataCenterScenario(machines=1, label="single-1", parameters=REDUCED)
        ),
        reduced_case(
            SingleDataCenterScenario(machines=2, label="single-2", parameters=REDUCED)
        ),
    ]


@pytest.fixture(scope="module")
def reference():
    """Fault-free availability per case name, solved once per module."""
    outcome = ScenarioGridOrchestrator(jobs=2, retry=FAST_RETRY).run(grid_cases())
    assert not outcome.partial
    return {row.name: row.value("availability") for row in outcome.results}


def assert_matches_reference(outcome, reference):
    assert len(outcome.results) == len(reference)
    for row in outcome.results:
        assert abs(row.value("availability") - reference[row.name]) < TOLERANCE


class TestWorkerKillRecovery:
    def test_sigkilled_worker_mid_grid_heals_bit_identically(self, reference):
        """The S4 scenario: SIGKILL a pool worker during generation; the
        grid must complete within 1e-12 of the fault-free run and record
        the pool rebuild in provenance."""
        plan = FaultPlan([FaultSpec(kind=faults.WORKER_KILL, site="generate")])
        with faults.injected(plan):
            outcome = ScenarioGridOrchestrator(jobs=2, retry=FAST_RETRY).run(
                grid_cases()
            )
        assert plan.fired(faults.WORKER_KILL) == 1  # the kill actually happened
        assert not outcome.partial
        assert outcome.pool_rebuilds >= 1  # rebuild recorded in provenance
        assert_matches_reference(outcome, reference)

    def test_repeated_kills_stay_within_restart_budget(self, reference):
        """Two kills, budget three: the rebuilds are absorbed, results exact.

        Both doomed tasks may land on the same pool epoch and die in one
        breakage, so the provenance floor is one rebuild, not two.
        """
        plan = FaultPlan([FaultSpec(kind=faults.WORKER_KILL, site="generate", count=2)])
        with faults.injected(plan):
            outcome = ScenarioGridOrchestrator(jobs=2, retry=FAST_RETRY).run(
                grid_cases()
            )
        assert plan.fired(faults.WORKER_KILL) == 2
        assert not outcome.partial
        assert outcome.pool_rebuilds >= 1
        assert_matches_reference(outcome, reference)


class TestTaskExceptionRetry:
    def test_transient_generation_fault_is_retried_to_success(self, reference):
        plan = FaultPlan([FaultSpec(kind=faults.TASK_EXCEPTION, site="generate")])
        with faults.injected(plan), pytest.warns(UserWarning, match="retrying"):
            outcome = ScenarioGridOrchestrator(jobs=2, retry=FAST_RETRY).run(
                grid_cases()
            )
        assert not outcome.partial
        assert max(report.generate_attempts for report in outcome.groups) >= 2
        assert_matches_reference(outcome, reference)

    def test_transient_solve_fault_is_retried_to_success(self, reference):
        plan = FaultPlan([FaultSpec(kind=faults.TASK_EXCEPTION, site="solve.group")])
        with faults.injected(plan):
            outcome = ScenarioGridOrchestrator(jobs=2, retry=FAST_RETRY).run(
                grid_cases()
            )
        assert not outcome.partial
        assert max(report.solve_attempts for report in outcome.groups) == 2
        assert_matches_reference(outcome, reference)


class TestQuarantine:
    def test_persistent_generation_failure_quarantines_not_aborts(
        self, reference, tmp_path
    ):
        """A group whose generation always fails lands in ``failures`` as a
        structured record; every other group still solves exactly."""
        plan = FaultPlan(
            [FaultSpec(kind=faults.TASK_EXCEPTION, site="generate*", count=1000)]
        )
        with faults.injected(plan), pytest.warns(UserWarning):
            outcome = ScenarioGridOrchestrator(
                jobs=2, retry=FAST_RETRY, shard_directory=tmp_path
            ).run(grid_cases())
        assert outcome.partial
        assert not outcome.results  # every group's generation was poisoned
        assert set(outcome.failed_cases()) == {case.name for case in grid_cases()}
        for record in outcome.failures:
            assert record.stage == "generate"
            assert record.attempts >= 1 + FAST_RETRY.max_retries
            assert record.error_type == "InjectedFaultError"
        failures_file = tmp_path / "grid-failures.jsonl"
        assert failures_file.exists()
        documents = [
            json.loads(line) for line in failures_file.read_text().splitlines()
        ]
        assert {document["stage"] for document in documents} == {"generate"}

    def test_persistent_solve_failure_quarantines_one_group(self, reference):
        plan = FaultPlan(
            [FaultSpec(kind=faults.TASK_EXCEPTION, site="solve.group", count=1000)]
        )
        cases = grid_cases()
        with faults.injected(plan):
            outcome = ScenarioGridOrchestrator(jobs=2, retry=FAST_RETRY).run(cases)
        assert outcome.partial
        assert not outcome.results
        failed = set(outcome.failed_cases())
        assert failed == {case.name for case in cases}
        for record in outcome.failures:
            assert record.stage == "solve"
            assert record.attempts == 1 + FAST_RETRY.max_retries

    def test_quarantine_then_clean_resume_completes_the_grid(
        self, reference, tmp_path
    ):
        """Failed cases are never checkpointed, so a clean re-run with
        ``resume`` re-dispatches exactly the quarantined work."""
        # ``after=1`` spares the first group's generation (submitted first,
        # in first-appearance order); every later generation attempt — pool
        # retries and the in-process finals — is poisoned, quarantining the
        # remaining groups.
        plan = FaultPlan(
            [FaultSpec(kind=faults.TASK_EXCEPTION, site="generate*", after=1, count=1000)]
        )
        cases = grid_cases()
        with faults.injected(plan), pytest.warns(UserWarning):
            first = ScenarioGridOrchestrator(
                jobs=2, retry=FAST_RETRY, shard_directory=tmp_path
            ).run(cases)
        assert first.partial
        completed = {row.name for row in first.results}
        quarantined = set(first.failed_cases())
        assert completed and quarantined
        assert completed | quarantined == {case.name for case in cases}

        resumed = ScenarioGridOrchestrator(
            jobs=2, retry=FAST_RETRY, shard_directory=tmp_path, resume=True
        ).run(cases)
        assert not resumed.partial
        assert resumed.restored_cases == len(completed)
        sources = {row.name: row.solve_source for row in resumed.results}
        for name in completed:
            assert sources[name] == "checkpoint"
        for name in quarantined:
            assert sources[name] != "checkpoint"
        assert_matches_reference(resumed, reference)


class TestWatchdog:
    def test_hung_generation_is_killed_and_redispatched(self, reference):
        plan = FaultPlan(
            [FaultSpec(kind=faults.SLOW_TASK, site="generate", delay_seconds=30.0)]
        )
        policy = RetryPolicy(
            max_retries=2,
            backoff_seconds=0.01,
            max_backoff_seconds=0.05,
            generate_deadline_seconds=1.0,
        )
        with faults.injected(plan):
            outcome = ScenarioGridOrchestrator(jobs=2, retry=policy).run(grid_cases())
        assert plan.fired(faults.SLOW_TASK) == 1
        assert outcome.watchdog_kills >= 1
        assert outcome.pool_rebuilds >= 1
        assert not outcome.partial
        assert_matches_reference(outcome, reference)


class TestCheckpointResume:
    def run_checkpointed(self, directory, cases, resume=False):
        return ScenarioGridOrchestrator(
            jobs=2,
            retry=FAST_RETRY,
            shard_directory=directory,
            shard_size=1,
            resume=resume,
        ).run(cases)

    def test_full_checkpoint_restores_every_case(self, reference, tmp_path):
        cases = grid_cases()
        first = self.run_checkpointed(tmp_path, cases)
        assert len(first.shard_paths) == len(cases)  # shard_size=1
        resumed = self.run_checkpointed(tmp_path, grid_cases(), resume=True)
        assert resumed.restored_cases == len(cases)
        assert all(row.solve_source == "checkpoint" for row in resumed.results)
        assert [row.name for row in resumed.results] == [case.name for case in cases]
        # JSON round-trips floats exactly: restored values are bit-identical.
        for row in resumed.results:
            assert row.value("availability") == reference[row.name]

    def test_resume_resolves_only_the_missing_case(self, reference, tmp_path):
        cases = grid_cases()
        self.run_checkpointed(tmp_path, cases)
        # Drop the shard holding grid index 2 (single-1): exactly that case
        # must be re-dispatched, everything else restored.
        victim = None
        for path in sorted(tmp_path.glob("grid-shard-*.jsonl")):
            record = json.loads(path.read_text().splitlines()[0])
            if record["index"] == 2:
                victim = record["name"]
                path.unlink()
        assert victim == "single-1"
        resumed = self.run_checkpointed(tmp_path, grid_cases(), resume=True)
        assert resumed.restored_cases == len(cases) - 1
        sources = {row.name: row.solve_source for row in resumed.results}
        assert sources.pop(victim) in {"solved", "deduped"}
        assert set(sources.values()) == {"checkpoint"}
        assert_matches_reference(resumed, reference)
        # The re-solved case was appended to a fresh shard after the kept ones.
        checkpoint = load_checkpoint(tmp_path)
        assert set(checkpoint) == {case.name for case in cases}

    def test_resume_against_a_different_grid_warns_and_matches_by_name(
        self, reference, tmp_path
    ):
        self.run_checkpointed(tmp_path, grid_cases())
        shrunk = grid_cases()[:2]
        with pytest.warns(UserWarning, match="different grid"):
            resumed = self.run_checkpointed(tmp_path, shrunk, resume=True)
        assert resumed.restored_cases == 2
        assert all(row.solve_source == "checkpoint" for row in resumed.results)

    def test_resume_requires_a_shard_directory(self):
        with pytest.raises(ValueError, match="shard_directory"):
            ScenarioGridOrchestrator(resume=True)

    def test_load_checkpoint_skips_torn_and_alien_lines(self, tmp_path):
        shard = tmp_path / "grid-shard-0000.jsonl"
        shard.write_text(
            "\n".join(
                [
                    json.dumps({"name": "good", "index": 0, "measures": {"a": 0.5}}),
                    '{"name": "torn", "measur',  # killed mid-write
                    json.dumps(["not", "a", "record"]),
                    json.dumps({"name": "rateless", "measures": "not-a-dict"}),
                    "",
                ]
            )
        )
        checkpoint = load_checkpoint(tmp_path)
        assert set(checkpoint) == {"good"}
        assert checkpoint["good"]["measures"] == {"a": 0.5}

    def test_later_shards_win_on_duplicate_names(self, tmp_path):
        (tmp_path / "grid-shard-0000.jsonl").write_text(
            json.dumps({"name": "case", "measures": {"a": 0.1}}) + "\n"
        )
        (tmp_path / "grid-shard-0001.jsonl").write_text(
            json.dumps({"name": "case", "measures": {"a": 0.2}}) + "\n"
        )
        assert load_checkpoint(tmp_path)["case"]["measures"] == {"a": 0.2}


class TestKrylovConvergenceFailure:
    """S3: GMRES non-convergence surfaces as a typed, indexed error."""

    def solver_and_rates(self):
        graph = generate_tangible_reachability_graph(
            distributed().build_model(REDUCED).build()
        )
        engine = ScenarioBatchEngine(graph)
        return (
            ReusableSolver(engine.template()),
            np.asarray(graph.edge_rates, dtype=np.float64),
            graph,
        )

    def stall_gmres(self, monkeypatch):
        from repro.engine import krylov as krylov_module

        def stalled(system, rhs, **kwargs):
            return np.zeros(system.shape[0]), 1  # maxiter exhausted

        monkeypatch.setattr(krylov_module.sparse_linalg, "gmres", stalled)

    def test_solve_krylov_raises_with_scenario_context(self, monkeypatch):
        solver, edge_rates, _ = self.solver_and_rates()
        self.stall_gmres(monkeypatch)
        with pytest.raises(KrylovConvergenceError) as info:
            solver.solve_krylov(edge_rates, scenario_index=7)
        error = info.value
        assert error.scenario_index == 7
        assert error.iterations == krylov.GMRES_MAX_ITERATIONS
        assert np.isfinite(error.residual_norm) and error.residual_norm > 0.0
        assert "scenario 7" in str(error)

    def test_stall_on_fresh_factors_factors_once(self, monkeypatch):
        solver, edge_rates, _ = self.solver_and_rates()
        self.stall_gmres(monkeypatch)
        calls = []
        spilu = krylov.sparse_linalg.spilu

        def counted(*args, **kwargs):
            calls.append(None)
            return spilu(*args, **kwargs)

        monkeypatch.setattr(krylov.sparse_linalg, "spilu", counted)
        with pytest.raises(KrylovConvergenceError):
            solver.solve_krylov(edge_rates)
        # Factoring the same values again cannot help the stalled solve.
        assert len(calls) == 1

    def test_gmres_bound_counts_inner_iterations(self, monkeypatch):
        # Unpreconditioned GMRES stalls on this chain at rtol 1e-13, so an
        # identity "factor" runs one attempt to the iteration bound: 34
        # restart cycles of at most 61 applications, plus the right-hand
        # side's.
        solver, edge_rates, _ = self.solver_and_rates()
        applications = []

        class Identity:
            nnz = edge_rates.size

            def solve(self, vector):
                applications.append(None)
                return np.array(vector, dtype=np.float64)

        monkeypatch.setattr(
            krylov.sparse_linalg, "spilu", lambda *args, **kwargs: Identity()
        )
        with pytest.raises(KrylovConvergenceError) as info:
            solver.solve_krylov(edge_rates)
        assert info.value.iterations == krylov.GMRES_MAX_ITERATIONS
        assert len(applications) <= 2_100

    def test_library_gmres_shares_the_inner_iteration_bound(self, monkeypatch):
        # steady_state(method="gmres_ilu") stops after the same 2,000 inner
        # iterations, not after 2,000 restart cycles.
        from repro.markov import solvers
        from repro.spn.ctmc_export import generator_matrix

        _, _, graph = self.solver_and_rates()
        applications = []

        class Identity:
            def solve(self, vector):
                applications.append(None)
                return np.array(vector, dtype=np.float64)

        monkeypatch.setattr(
            solvers.sparse_linalg, "spilu", lambda *args, **kwargs: Identity()
        )
        with pytest.raises(AnalysisError, match="did not converge"):
            solvers.steady_state(generator_matrix(graph), method="gmres_ilu")
        assert len(applications) <= 2_100

    def test_solve_falls_back_to_direct_stack_with_warning(self, monkeypatch):
        from repro.spn.ctmc_export import generator_matrix

        solver, edge_rates, graph = self.solver_and_rates()
        self.stall_gmres(monkeypatch)
        with pytest.warns(UserWarning, match="falling back to the direct solver"):
            probabilities = solver.solve(
                edge_rates, lambda: generator_matrix(graph), scenario_index=3
            )
        assert solver.last_solve_used_fallback
        assert solver.last_convergence_error is not None
        assert solver.last_convergence_error.scenario_index == 3
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        # The fallback vector is the direct solution, not a stalled iterate.
        from repro.markov import solvers

        expected = solvers.steady_state(generator_matrix(graph), method="auto")
        np.testing.assert_allclose(probabilities, expected, atol=1e-12)


CHILD_SCRIPT = textwrap.dedent(
    """
    import time

    import numpy as np

    from repro.engine import ScenarioBatchEngine
    from repro.engine.parallel import SweepPlan
    from repro.spn import generate_tangible_reachability_graph
    from tests.spn.nets import machine_repair

    graph = generate_tangible_reachability_graph(machine_repair(machines=3))
    engine = ScenarioBatchEngine(graph)
    rates = np.tile(np.asarray(graph.rate_vector, dtype=np.float64), (2, 1))
    plan = SweepPlan(graph, engine.template(), rates)
    print(plan.segment_name, flush=True)
    while True:
        time.sleep(0.1)
    """
)


#: A single-group grid whose 16 cases fan out over two worker processes
#: (two effective cores, whatever the host); one chunk is held for two
#: minutes, so the solve is still running when the test signals the child.
CHILD_GRID_SCRIPT = textwrap.dedent(
    """
    import numpy as np

    from repro.casestudy.grid import scenario_case
    from repro.core import CaseStudyParameters
    from repro.core.scenarios import CITY_PAIRS, DistributedScenario
    from repro.engine import ScenarioGridOrchestrator, dispatch, faults
    from repro.engine.faults import FaultPlan, FaultSpec

    dispatch.effective_cpu_count = lambda: 2
    faults.install(
        FaultPlan(
            faults=(
                FaultSpec(kind=faults.SLOW_TASK, site="solve", delay_seconds=120.0),
            )
        )
    )
    first, second = CITY_PAIRS[0]
    cases = [
        scenario_case(
            DistributedScenario(
                first,
                second,
                disaster_mean_time_years=years,
                machines_per_datacenter=1,
            ),
            parameters=CaseStudyParameters(required_running_vms=1),
        )
        for years in np.linspace(100.0, 300.0, 16)
    ]
    ScenarioGridOrchestrator(jobs=2).run(cases)
    """
)


def child_environment() -> dict:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", ".", environment.get("PYTHONPATH")])
    )
    return environment


class TestSignalCleanup:
    """S2: SIGTERM/SIGINT must not leak shared-memory segments."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_signal_unlinks_live_segments(self, signum):
        environment = child_environment()
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=environment,
        )
        try:
            segment = child.stdout.readline().strip().lstrip("/")
            assert segment, child.stderr.read()
            assert any(segment in entry for entry in leaked_segments())
            child.send_signal(signum)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        # The handler cleans up, then re-raises the signal for the caller.
        assert child.returncode == -signum
        assert not any(segment in entry for entry in leaked_segments())

    def test_sigterm_mid_grid_solve_on_a_pipeline_thread(self):
        """The solve fans out from a pipeline thread, where no signal handler
        can be installed; the coordinator's handler must still unlink it."""
        before = leaked_segments()
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_GRID_SCRIPT],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=child_environment(),
        )
        try:
            deadline = time.monotonic() + 120.0
            segments = set()
            while not segments and time.monotonic() < deadline:
                assert child.poll() is None, child.stderr.read()
                time.sleep(0.1)
                segments = leaked_segments() - before
            assert segments, "the grid never fanned its solve out"
            time.sleep(1.0)  # let the workers pick up their chunks
            assert child.poll() is None, child.stderr.read()
            child.send_signal(signal.SIGTERM)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        assert child.returncode == -signal.SIGTERM
        assert not segments & leaked_segments()
