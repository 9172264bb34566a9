"""Durability and interruption semantics of the grid checkpoint.

Covers the robustness-PR guarantees at the engine layer: shard and manifest
writes are fsync'd before their atomic rename (they survive power loss, not
just process death), quarantine records rotate on resume and never name a
case twice, and a set ``cancel_event`` stops the run at a group boundary
leaving a clean, resumable checkpoint.
"""

import json
import os
import threading
import warnings

import pytest

from repro.core import CaseStudyParameters
from repro.core.scenarios import SingleDataCenterScenario
from repro.engine.faults import FailureRecord
from repro.engine.grid import ScenarioGridOrchestrator, load_checkpoint
from repro.casestudy.grid import evaluate_grid, scenario_case

REDUCED = CaseStudyParameters(required_running_vms=1)


def single_site_cases(machine_counts=(1, 2)):
    return [
        scenario_case(
            SingleDataCenterScenario(
                machines=machines, label=f"single m={machines}"
            ),
            parameters=REDUCED,
        )
        for machines in machine_counts
    ]


def single_site_scenarios(machine_counts=(1, 2)):
    return [
        SingleDataCenterScenario(machines=machines, label=f"single m={machines}")
        for machines in machine_counts
    ]


class TestFsyncBeforeRename:
    def test_shard_and_manifest_writes_fsync(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def spying_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spying_fsync)
        orchestrator = ScenarioGridOrchestrator(
            cache=None, shard_directory=tmp_path, shard_size=1
        )
        outcome = orchestrator.run(single_site_cases())
        assert len(outcome.results) == 2
        assert outcome.shard_paths
        # Shard flushes + manifest write + their directory fsyncs: at least
        # one fsync per durable artifact.
        assert len(synced) >= len(outcome.shard_paths) + 1

    def test_atomicio_helpers_survive_partial_write(self, tmp_path):
        from repro.engine.atomicio import write_text_durably

        target = tmp_path / "file.json"
        write_text_durably(target, '{"ok": true}\n')
        assert json.loads(target.read_text()) == {"ok": True}
        # No temporary litter left next to the final file.
        assert [path.name for path in tmp_path.iterdir()] == ["file.json"]


class TestFailureRotation:
    def fabricate_failures(self, directory, names=("single m=1",)):
        record = FailureRecord(
            stage="generate",
            group="g1",
            cases=tuple(names),
            case_indices=tuple(range(len(names))),
            attempts=1,
            error="boom",
            error_type="RuntimeError",
        )
        (directory / "grid-failures.jsonl").write_text(
            json.dumps(record.as_record()) + "\n"
        )

    def test_resume_rotates_previous_failures_aside(self, tmp_path):
        self.fabricate_failures(tmp_path)
        outcome = evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path,
            resume=True,
            use_cache=False,
        )
        assert len(outcome.results) == 2 and not outcome.failures
        # The stale quarantine was rotated for post-mortems, and no active
        # failure file remains (this run had none).
        assert (tmp_path / "grid-failures.1.jsonl").exists()
        assert not (tmp_path / "grid-failures.jsonl").exists()

    def test_repeated_resumes_keep_rotating(self, tmp_path):
        evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path,
            use_cache=False,
        )
        for _ in range(2):
            self.fabricate_failures(tmp_path)
            evaluate_grid(
                single_site_scenarios(),
                parameters=REDUCED,
                shard_directory=tmp_path,
                resume=True,
                use_cache=False,
            )
        assert (tmp_path / "grid-failures.1.jsonl").exists()
        assert (tmp_path / "grid-failures.2.jsonl").exists()

    def test_failure_records_never_duplicate_a_case(self, tmp_path):
        orchestrator = ScenarioGridOrchestrator(cache=None, shard_directory=tmp_path)
        record = FailureRecord(
            stage="solve",
            group="g1",
            cases=("case-a", "case-b"),
            case_indices=(0, 1),
            attempts=2,
            error="boom",
            error_type="RuntimeError",
        )
        duplicate = FailureRecord(
            stage="solve",
            group="g2",
            cases=("case-b",),
            case_indices=(1,),
            attempts=1,
            error="boom again",
            error_type="RuntimeError",
        )
        orchestrator._write_failures([record, duplicate])
        lines = (tmp_path / "grid-failures.jsonl").read_text().splitlines()
        names = [
            name for line in lines for name in json.loads(line)["cases"]
        ]
        assert sorted(names) == ["case-a", "case-b"]
        assert len(names) == len(set(names))


class TestCancellation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_preset_cancel_stops_before_any_group(self, tmp_path, jobs):
        cancel = threading.Event()
        cancel.set()
        outcome = evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path,
            cancel_event=cancel,
            jobs=jobs,
            use_cache=False,
        )
        assert outcome.interrupted is True
        assert outcome.results == []
        assert not outcome.failures  # interrupted is not failed

    def test_cancelled_run_leaves_resumable_checkpoint(self, tmp_path):
        # Uncancelled reference first (separate directory).
        reference = evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path / "ref",
            use_cache=False,
        )
        cancel = threading.Event()
        cancel.set()
        interrupted = evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path / "run",
            cancel_event=cancel,
            use_cache=False,
        )
        assert interrupted.interrupted
        # Resume with the event cleared completes the grid bit-identically.
        resumed = evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path / "run",
            resume=True,
            use_cache=False,
        )
        assert resumed.interrupted is False
        by_name = {row.name: row for row in resumed.results}
        for row in reference.results:
            for measure, value in row.measures.items():
                assert by_name[row.name].measures[measure] == value

    def test_manifest_readable_and_attach_resumes(self, tmp_path):
        outcome = evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path,
            use_cache=False,
        )
        manifest = json.loads((tmp_path / "grid-manifest.json").read_text())
        assert "names_sha256" in manifest
        assert len(load_checkpoint(tmp_path)) == len(outcome.results)
        attached = ScenarioGridOrchestrator.attach(tmp_path, cache=None)
        assert attached.resume is True
        resumed = attached.run(single_site_cases())
        assert all(row.solve_source == "checkpoint" for row in resumed.results)
        assert resumed.restored_cases == len(outcome.results)

    def test_resume_tolerates_a_garbage_manifest(self, tmp_path):
        # A torn or non-object manifest means "resume by name".
        outcome = evaluate_grid(
            single_site_scenarios(),
            parameters=REDUCED,
            shard_directory=tmp_path,
            use_cache=False,
        )
        for garbage in ("{torn", "[1, 2]"):
            (tmp_path / "grid-manifest.json").write_text(garbage)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                resumed = evaluate_grid(
                    single_site_scenarios(),
                    parameters=REDUCED,
                    shard_directory=tmp_path,
                    resume=True,
                    use_cache=False,
                )
            assert not [w for w in caught if "different grid" in str(w.message)]
            assert resumed.restored_cases == len(outcome.results)
            assert all(row.solve_source == "checkpoint" for row in resumed.results)
