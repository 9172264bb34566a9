"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.engine import TRGCache
from repro.exitcodes import ExitCode
from repro.spn import CompiledNet, generate_tangible_reachability_graph

from tests.spn.nets import machine_repair, mm1k_queue


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_availability_defaults(self):
        arguments = build_parser().parse_args(["availability"])
        assert arguments.first == "Rio de Janeiro"
        assert arguments.second == "Brasilia"
        assert arguments.alpha == 0.35
        assert not arguments.full

    def test_figure7_pair_limit(self):
        arguments = build_parser().parse_args(["figure7", "--pairs", "2"])
        assert arguments.pairs == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_no_cache_flag(self):
        arguments = build_parser().parse_args(["availability", "--no-cache"])
        assert arguments.no_cache

    def test_cache_defaults_to_show(self):
        arguments = build_parser().parse_args(["cache"])
        assert arguments.action == "show"
        assert arguments.dir is None

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "frobnicate"])

    def test_transient_defaults(self):
        arguments = build_parser().parse_args(["transient"])
        assert arguments.minutes == "5,30,60"
        assert arguments.window == 72.0
        assert arguments.points == 13

    def test_transient_accepts_custom_grid(self):
        arguments = build_parser().parse_args(
            ["transient", "--minutes", "5,120", "--window", "24", "--points", "5"]
        )
        assert arguments.minutes == "5,120"
        assert arguments.window == 24.0
        assert arguments.points == 5


class TestCommands:
    def test_availability_command(self, capsys):
        exit_code = main(
            ["availability", "--second", "Brasilia", "--alpha", "0.40", "--disaster-years", "200"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "availability" in output
        assert "nines" in output
        assert "Brasilia" in output

    def test_availability_rejects_unknown_city(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["availability", "--second", "Atlantis"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS) == 2
        assert "Atlantis" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--disaster-years", "0"], ["--disaster-years", "nan"], ["--alpha", "0"]],
    )
    def test_availability_rejects_cases_that_cannot_run(self, flags, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["availability", *flags])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert "repro: error:" in capsys.readouterr().err

    def test_table7_command_prints_every_row(self, capsys):
        assert main(["table7"]) == 0
        output = capsys.readouterr().out
        assert "Cloud system with one machine" in output
        assert "Tokyo" in output

    def test_figure7_command_restricted_to_one_pair(self, capsys):
        assert main(["figure7", "--pairs", "1"]) == 0
        output = capsys.readouterr().out
        assert output.count("Brasilia") == 9
        assert "Tokyo" not in output

    def test_transient_command_prints_every_curve(self, capsys):
        assert (
            main(
                [
                    "transient",
                    "--minutes",
                    "5,60",
                    "--window",
                    "12",
                    "--points",
                    "4",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert output.count("VM start time:") == 2
        assert "Interval avail." in output
        assert "mission interval availability" in output

    def test_transient_rejects_malformed_minutes(self):
        with pytest.raises(SystemExit):
            main(["transient", "--minutes", "five"])

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--minutes", "nan"], "VM start time"),
            (["--minutes", "inf"], "VM start time"),
            (["--minutes", "5,-1"], "VM start time"),
            (["--minutes", ","], "at least one VM start time"),
            (["--window", "nan"], "mission window"),
            (["--window", "inf"], "mission window"),
            (["--window", "1e400"], "mission window"),
            (["--window", "0"], "mission window"),
        ],
    )
    def test_transient_rejects_values_that_cannot_run(self, flags, message, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["transient", "--no-cache", *flags])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        error = capsys.readouterr().err
        assert message in error
        assert error.count("\n") == 1

    def test_transient_refuses_a_window_past_the_table_bound(self, capsys):
        # At Λ = 26.5/h two points need 2 x 4,258,110 Poisson weights, just
        # past the kernel's bound of 8,000,000 weight-table entries.
        with pytest.raises(SystemExit) as caught:
            main(["transient", "--minutes", "5", "--window", "160000", "--points", "2"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        error = capsys.readouterr().err
        assert "4,258,110 Poisson terms" in error
        assert error.count("\n") == 1

    def test_ablations_command(self, capsys):
        assert main(["ablations"]) == 0
        output = capsys.readouterr().out
        assert "no_backup_server" in output

    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "--factor", "2"]) == 0
        output = capsys.readouterr().out
        assert "physical_machine" in output

    def test_cache_show_and_clear(self, capsys, tmp_path):
        assert main(["cache", "--dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "entries         : 0" in output
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "removed 0" in capsys.readouterr().out

    @pytest.mark.parametrize("days", ["nan", "-1", "inf"])
    def test_cache_clear_refuses_an_age_that_cannot_select(
        self, capsys, tmp_path, days
    ):
        cache = TRGCache(tmp_path)
        for net in (mm1k_queue(), machine_repair()):
            cache.store(generate_tangible_reachability_graph(CompiledNet(net)), 100)
        with pytest.raises(SystemExit) as caught:
            main(["cache", "clear", "--dir", str(tmp_path), "--older-than", days])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert "--older-than" in capsys.readouterr().err
        assert len(cache.entries()) == 2

    def test_availability_populates_and_reuses_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["availability"]) == 0
        assert "graph source  : generated" in capsys.readouterr().out
        assert main(["availability"]) == 0
        assert "graph source  : cache" in capsys.readouterr().out
        assert main(["availability", "--no-cache"]) == 0
        assert "graph source  : generated" in capsys.readouterr().out


class TestGridCommand:
    def test_grid_parser_defaults(self):
        arguments = build_parser().parse_args(["grid"])
        assert arguments.cities == "Rio de Janeiro+Brasilia;Rio de Janeiro"
        assert arguments.backup == "on"
        assert arguments.topology == "mesh"
        assert arguments.required_vms == 1
        assert arguments.shard_dir is None

    def test_grid_command_prints_rows_and_groups(self, capsys):
        assert (
            main(
                [
                    "grid",
                    "--cities",
                    "Rio de Janeiro+Brasilia;Rio de Janeiro",
                    "--alphas",
                    "0.35,0.45",
                    "--machines",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "structure group" in output
        assert "Rio de Janeiro single site" in output
        assert "alpha=0.45" in output

    def test_grid_command_writes_shards(self, capsys, tmp_path):
        shard_dir = tmp_path / "shards"
        assert (
            main(
                [
                    "grid",
                    "--cities",
                    "Rio de Janeiro",
                    "--machines",
                    "1,2",
                    "--shard-dir",
                    str(shard_dir),
                ]
            )
            == 0
        )
        assert list(shard_dir.glob("grid-shard-*.jsonl"))

    def test_grid_rejects_malformed_axis(self):
        with pytest.raises(SystemExit):
            main(["grid", "--alphas", "fast"])


class TestGridRobustnessFlags:
    # --jobs 2 keeps the pipeline (and its pool generation) active on
    # single-core CI machines; --no-cache keeps the fault sites reachable
    # on repeat runs.
    SMALL_GRID = [
        "--cities",
        "Rio de Janeiro",
        "--machines",
        "1,2",
        "--no-cache",
        "--jobs",
        "2",
    ]

    def test_parser_defaults(self):
        arguments = build_parser().parse_args(["grid"])
        assert arguments.resume is None
        assert arguments.max_retries == 2
        assert arguments.generate_deadline is None
        assert arguments.solve_deadline is None
        assert arguments.fault_plan is None

    def test_fault_plan_rejects_invalid_json(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["grid", *self.SMALL_GRID, "--fault-plan", "{broken"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert "invalid plan" in capsys.readouterr().err

    def test_fault_plan_rejects_unknown_kind(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(
                ["grid", *self.SMALL_GRID, "--fault-plan", '[{"kind": "meteor"}]']
            )
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert "invalid plan" in capsys.readouterr().err

    def test_fault_plan_rejects_missing_file(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["grid", *self.SMALL_GRID, "--fault-plan", "@/no/such/plan.json"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert "cannot read" in capsys.readouterr().err

    def test_resume_conflicting_with_shard_dir_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as caught:
            main(
                [
                    "grid",
                    *self.SMALL_GRID,
                    "--shard-dir",
                    str(tmp_path / "a"),
                    "--resume",
                    str(tmp_path / "b"),
                ]
            )
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert "shard directory" in capsys.readouterr().err

    def test_chaos_run_heals_and_is_cleared_afterwards(self, capsys):
        from repro.engine import faults

        plan = '[{"kind": "worker_kill", "site": "generate"}]'
        assert main(["grid", *self.SMALL_GRID, "--fault-plan", plan]) == 0
        output = capsys.readouterr().out
        assert "worker pool rebuilt" in output
        assert faults.active() is None  # the CLI uninstalls its plan

    def test_quarantine_exits_nonzero_and_reports(self, capsys, tmp_path):
        plan = '[{"kind": "task_exception", "site": "generate*", "count": 1000}]'
        with pytest.warns(UserWarning):
            exit_code = main(
                [
                    "grid",
                    *self.SMALL_GRID,
                    "--max-retries",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--fault-plan",
                    plan,
                ]
            )
        # Every case quarantined: nothing to consume, so FAULTED, not PARTIAL.
        assert exit_code == int(ExitCode.FAULTED)
        captured = capsys.readouterr()
        assert "PARTIAL RESULT" in captured.out
        assert "grid incomplete" in captured.err
        assert (tmp_path / "grid-failures.jsonl").exists()

    def test_kill_then_resume_restores_completed_cases(self, capsys, tmp_path):
        # First run quarantines everything past the first group, leaving a
        # partial checkpoint; the resumed run restores it and solves the rest.
        plan = (
            '[{"kind": "task_exception", "site": "generate*", '
            '"after": 1, "count": 1000}]'
        )
        with pytest.warns(UserWarning):
            first = main(
                [
                    "grid",
                    *self.SMALL_GRID,
                    "--max-retries",
                    "0",
                    "--shard-dir",
                    str(tmp_path),
                    "--fault-plan",
                    plan,
                ]
            )
        assert first == int(ExitCode.PARTIAL)
        capsys.readouterr()
        assert (
            main(["grid", *self.SMALL_GRID, "--resume", str(tmp_path)]) == 0
        )
        output = capsys.readouterr().out
        assert "restored from checkpoint" in output
        assert "PARTIAL RESULT" not in output


class TestExitCodes:
    """The structured exit-code contract, pinned value by value."""

    def test_enum_values_are_pinned(self):
        assert int(ExitCode.OK) == 0
        assert int(ExitCode.INVALID_ARGS) == 2
        assert int(ExitCode.PARTIAL) == 3
        assert int(ExitCode.FAULTED) == 4

    def test_ok_pinned_on_clean_grid(self, capsys, tmp_path):
        exit_code = main(
            ["grid", "--cities", "Rio de Janeiro", "--machines", "1",
             "--shard-dir", str(tmp_path), "--no-progress"]
        )
        assert exit_code == int(ExitCode.OK) == 0

    def test_invalid_args_pinned(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["grid", "--alphas", "fast"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS) == 2
        assert "repro: error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--disaster-years", "nan"], "disaster mean time"),
            (["--disaster-years", "inf"], "disaster mean time"),
            (["--disaster-years", "0"], "disaster mean time"),
            (["--memory-budget", "inf"], "unrecognised memory size"),
            (["--memory-budget", "1e400"], "unrecognised memory size"),
            (["--cities", "Atlantis"], "unknown city"),
        ],
    )
    def test_invalid_grid_values_exit_with_invalid_args(self, capsys, flags, message):
        with pytest.raises(SystemExit) as caught:
            main(["grid", "--cities", "Rio de Janeiro", "--no-cache", *flags])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert message in capsys.readouterr().err

    def test_non_finite_environment_budget_exits_with_invalid_args(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "inf")
        with pytest.raises(SystemExit) as caught:
            main(["grid", "--cities", "Rio de Janeiro", "--no-cache"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)
        assert "REPRO_MEMORY_BUDGET" in capsys.readouterr().err

    def test_argparse_errors_share_the_invalid_args_code(self, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(["grid", "--backup", "sometimes"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)

    def test_partial_pinned_when_some_cases_survive(self, capsys, tmp_path):
        plan = (
            '[{"kind": "task_exception", "site": "generate*", '
            '"after": 1, "count": 1000}]'
        )
        with pytest.warns(UserWarning):
            exit_code = main(
                ["grid", "--cities", "Rio de Janeiro", "--machines", "1,2",
                 "--no-cache", "--jobs", "2", "--max-retries", "0",
                 "--shard-dir", str(tmp_path), "--fault-plan", plan]
            )
        assert exit_code == int(ExitCode.PARTIAL) == 3

    def test_faulted_pinned_when_nothing_survives(self, capsys, tmp_path):
        plan = '[{"kind": "task_exception", "site": "generate*", "count": 1000}]'
        with pytest.warns(UserWarning):
            exit_code = main(
                ["grid", "--cities", "Rio de Janeiro", "--machines", "1,2",
                 "--no-cache", "--jobs", "2", "--max-retries", "0",
                 "--shard-dir", str(tmp_path), "--fault-plan", plan]
            )
        assert exit_code == int(ExitCode.FAULTED) == 4


class TestServiceParsers:
    def test_serve_requires_state_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_defaults(self):
        arguments = build_parser().parse_args(["serve", "--state-dir", "/tmp/x"])
        assert arguments.port == 0
        assert arguments.queue_depth == 8
        assert arguments.shard_size == 1
        assert arguments.deadline is None
        assert not arguments.quiet

    def test_serve_has_no_jobs_flag(self, capsys, tmp_path):
        # Each submitted job carries its own jobs/backend options; a
        # daemon-wide flag would be accepted and silently ignored.
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(
                ["serve", "--state-dir", str(tmp_path), "--jobs", "2"]
            )
        assert caught.value.code == int(ExitCode.INVALID_ARGS) == 2

    def test_serve_rejects_bad_depth(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["serve", "--state-dir", "/tmp/x", "--queue-depth", "0"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)

    def test_submit_shares_grid_axes(self):
        arguments = build_parser().parse_args(
            ["submit", "--url", "http://127.0.0.1:1", "--cities",
             "Rio de Janeiro", "--machines", "1,2", "--backup", "both"]
        )
        assert arguments.machines == "1,2"
        assert arguments.backup == "both"
        assert not arguments.wait

    def test_submit_requires_url(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_jobs_flags(self):
        arguments = build_parser().parse_args(
            ["jobs", "--url", "http://127.0.0.1:1", "job-0001-abc", "--results"]
        )
        assert arguments.job_id == "job-0001-abc"
        assert arguments.results and not arguments.cancel

    def test_jobs_results_without_id_rejected(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["jobs", "--url", "http://127.0.0.1:1", "--results"])
        assert caught.value.code == int(ExitCode.INVALID_ARGS)


class TestServiceCommandsEndToEnd:
    def test_serve_submit_jobs_roundtrip(self, capsys, tmp_path):
        """Drive submit/jobs against an in-process service via the CLI."""
        import threading

        from repro.service import AvailabilityService, ServiceConfig

        service = AvailabilityService(
            ServiceConfig(state_dir=tmp_path / "state", port=0)
        )
        host, port = service.start()
        url = f"http://{host}:{port}"
        try:
            exit_code = main(
                ["submit", "--url", url, "--cities", "Rio de Janeiro",
                 "--machines", "1", "--wait", "--timeout", "120"]
            )
            assert exit_code == int(ExitCode.OK)
            out = capsys.readouterr().out
            assert "done (1 result row(s))" in out

            assert main(["jobs", "--url", url]) == int(ExitCode.OK)
            listing = capsys.readouterr().out
            assert "done" in listing
            job_id = listing.split()[0]

            assert main(["jobs", "--url", url, job_id, "--results"]) == int(
                ExitCode.OK
            )
            assert '"availability"' in capsys.readouterr().out

            # Resubmission of the identical grid dedupes onto the same job.
            exit_code = main(
                ["submit", "--url", url, "--cities", "Rio de Janeiro",
                 "--machines", "1"]
            )
            assert exit_code == int(ExitCode.OK)
            assert "deduplicated" in capsys.readouterr().out
        finally:
            service.stop()

    def test_submit_unreachable_service_faults(self, capsys):
        exit_code = main(
            ["submit", "--url", "http://127.0.0.1:9", "--cities",
             "Rio de Janeiro"]
        )
        assert exit_code == int(ExitCode.FAULTED)
