"""In-process behaviour of the availability service (no HTTP)."""

import time

import pytest

from repro.engine import faults
from repro.engine.faults import FaultPlan, FaultSpec
from repro.service import AvailabilityService, ServiceConfig

TINY = {"cities": [["Rio de Janeiro"]], "machines": [1]}


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.clear()


def make_service(tmp_path, **overrides) -> AvailabilityService:
    config = ServiceConfig(state_dir=tmp_path / "state", **overrides)
    return AvailabilityService(config)


def wait_for(predicate, timeout=30.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {message}")


def start_worker(service):
    """Run the worker loop without binding an HTTP server."""
    import threading

    thread = threading.Thread(target=service._worker_loop, daemon=True)
    thread.start()
    service._worker_thread = thread
    return service


def slow_run_plan(delay=2.5, count=1):
    return FaultPlan(
        faults=(
            FaultSpec(
                kind=faults.SLOW_TASK,
                site=faults.SERVICE_RUN_JOB,
                delay_seconds=delay,
                count=count,
            ),
        )
    )


class TestSubmission:
    def test_submit_runs_to_done_with_provenance(self, tmp_path):
        service = start_worker(make_service(tmp_path))
        try:
            status, body = service.submit({"grid": TINY})
            assert status == 202 and body["deduplicated"] is False
            job_id = body["job"]["id"]
            wait_for(
                lambda: service.store.get(job_id).state == "done",
                message="job done",
            )
            job = service.store.get(job_id)
            assert job.summary["cases"] == 1
            assert len(job.summary["groups"]) == 1
            assert job.summary["groups"][0]["backend"]
            shards = service.results_paths(job_id)
            assert shards and shards[0].parent == tmp_path / "state" / "jobs" / job_id
        finally:
            service.stop()

    def test_submit_rejects_invalid_spec(self, tmp_path):
        service = make_service(tmp_path)
        try:
            status, body = service.submit({"grid": {"cities": [["Atlantis"]]}})
            assert status == 400 and "Atlantis" in body["error"]
            status, body = service.submit({"grd": {}})
            assert status == 400 and "unknown field" in body["error"]
            status, body = service.submit(["not a dict"])
            assert status == 400
            status, body = service.submit(
                {"grid": TINY, "options": {"dedupe": "false"}}
            )
            assert status == 400 and "'dedupe'" in body["error"]
        finally:
            service.stop()

    def test_resubmission_dedupes_by_digest(self, tmp_path):
        service = start_worker(make_service(tmp_path))
        try:
            _, first = service.submit({"grid": TINY})
            status, second = service.submit({"grid": dict(TINY)})
            assert status == 200 and second["deduplicated"] is True
            assert second["job"]["id"] == first["job"]["id"]
            # Different axes → different digest → a new job.
            other = {"cities": [["Rio de Janeiro"]], "machines": [2]}
            status, third = service.submit({"grid": other})
            assert status == 202 and third["job"]["id"] != first["job"]["id"]
        finally:
            service.stop()

    def test_store_fault_refuses_submission_without_acknowledging(self, tmp_path):
        service = make_service(tmp_path)
        try:
            faults.install(
                FaultPlan(
                    faults=(
                        FaultSpec(
                            kind=faults.TASK_EXCEPTION,
                            site=faults.SERVICE_STORE_APPEND,
                            count=1,
                        ),
                    )
                )
            )
            status, body = service.submit({"grid": TINY})
            assert status == 503 and "job store unavailable" in body["error"]
            assert body["retry_after"] > 0
            assert service.store.jobs == {}
            assert service.queue.open_count() == 0
            # The fault cleared after one charge: the retry is accepted.
            status, body = service.submit({"grid": TINY})
            assert status == 202
        finally:
            service.stop()


class TestStaleJournal:
    def test_restart_over_pre_change_journal_keeps_the_worker_alive(self, tmp_path):
        """Jobs journaled in an older options format: one still validates
        (its ``pipeline`` and ``backend`` keys are ignored), one does not
        (its ``jobs`` is zero).  The invalid one must fail with the
        validation message without killing the only worker, so the valid
        job and a later submission both complete."""
        from repro.service.jobstore import JobRecord, JobStore
        from repro.service.spec import GridSpec

        spec = GridSpec.from_payload(TINY)
        old_options = {
            "jobs": None,
            "backend": "auto",
            "pipeline": True,
            "dedupe": True,
            "deadline_seconds": None,
            "max_retries": 2,
            "job_retries": 1,
            "metadata": {},
        }
        store = JobStore(tmp_path / "state")
        store.create(
            JobRecord(
                id="job-0001-stale",
                digest="stale-digest-1",
                spec=spec.as_payload(),
                options={**old_options, "jobs": 0},
            )
        )
        store.create(
            JobRecord(
                id="job-0002-valid",
                digest=spec.digest(),
                spec=spec.as_payload(),
                options=old_options,
            )
        )
        store.close()

        service = start_worker(make_service(tmp_path))
        try:
            wait_for(
                lambda: service.store.get("job-0002-valid").state == "done",
                message="journaled job done",
            )
            stale = service.store.get("job-0001-stale")
            assert stale.state == "failed"
            assert "SpecError" in stale.error and "'jobs'" in stale.error
            other = {"cities": [["Rio de Janeiro"]], "machines": [2]}
            status, body = service.submit({"grid": other})
            assert status == 202
            job_id = body["job"]["id"]
            wait_for(
                lambda: service.store.get(job_id).state == "done",
                message="later submission done",
            )
        finally:
            service.stop()


class TestAdmissionControl:
    def test_full_queue_refuses_while_inflight_job_finishes(self, tmp_path):
        faults.install(slow_run_plan(delay=2.0, count=1))
        service = start_worker(make_service(tmp_path, queue_depth=1))
        try:
            status, first = service.submit({"grid": TINY})
            assert status == 202
            other = {"cities": [["Rio de Janeiro"]], "machines": [2]}
            status, refusal = service.submit({"grid": other})
            assert status == 429
            assert refusal["retry_after"] > 0
            assert "full" in refusal["error"]
            # The admitted job is not starved by the refusals.
            job_id = first["job"]["id"]
            wait_for(
                lambda: service.store.get(job_id).state == "done",
                message="in-flight job finishing under overload",
            )
            # Capacity freed: the retry is admitted now.
            status, retry = service.submit({"grid": other})
            assert status == 202
        finally:
            service.stop()


class TestFailureHandling:
    def test_run_fault_retries_then_succeeds(self, tmp_path):
        faults.install(
            FaultPlan(
                faults=(
                    FaultSpec(
                        kind=faults.TASK_EXCEPTION,
                        site=faults.SERVICE_RUN_JOB,
                        count=1,
                    ),
                )
            )
        )
        service = start_worker(make_service(tmp_path))
        try:
            _, body = service.submit({"grid": TINY})
            job_id = body["job"]["id"]
            wait_for(
                lambda: service.store.get(job_id).state == "done",
                message="retried job finishing",
            )
            assert service.store.get(job_id).attempts == 2
        finally:
            service.stop()

    def test_run_fault_exhausts_job_retries_into_failed(self, tmp_path):
        faults.install(
            FaultPlan(
                faults=(
                    FaultSpec(
                        kind=faults.TASK_EXCEPTION,
                        site=faults.SERVICE_RUN_JOB,
                        count=10,
                    ),
                )
            )
        )
        service = start_worker(make_service(tmp_path))
        try:
            _, body = service.submit(
                {"grid": TINY, "options": {"job_retries": 1}}
            )
            job_id = body["job"]["id"]
            wait_for(
                lambda: service.store.get(job_id).state == "failed",
                message="job exhausting retries",
            )
            job = service.store.get(job_id)
            assert job.attempts == 2
            assert "InjectedFaultError" in job.error
            # A terminal failure frees its admission slot.
            assert service.queue.open_count() == 0
        finally:
            service.stop()

    def test_deadline_fails_job_with_checkpoint_note(self, tmp_path):
        faults.install(slow_run_plan(delay=2.5, count=1))
        service = start_worker(make_service(tmp_path))
        try:
            _, body = service.submit(
                {"grid": TINY, "options": {"deadline_seconds": 0.3}}
            )
            job_id = body["job"]["id"]
            wait_for(
                lambda: service.store.get(job_id).state == "failed",
                message="deadline expiry",
            )
            assert "deadline exceeded" in service.store.get(job_id).error
        finally:
            service.stop()


class TestCancellation:
    def test_cancel_running_job(self, tmp_path):
        faults.install(slow_run_plan(delay=2.5, count=1))
        service = start_worker(make_service(tmp_path))
        try:
            _, body = service.submit({"grid": TINY})
            job_id = body["job"]["id"]
            wait_for(
                lambda: service.store.get(job_id).state == "running",
                message="job starting",
            )
            status, answer = service.cancel(job_id)
            assert status == 202
            wait_for(
                lambda: service.store.get(job_id).state == "cancelled",
                message="cancellation landing",
            )
        finally:
            service.stop()

    def test_cancel_queued_job_before_start(self, tmp_path):
        faults.install(slow_run_plan(delay=2.5, count=1))
        service = start_worker(make_service(tmp_path, queue_depth=4))
        try:
            service.submit({"grid": TINY})
            other = {"cities": [["Rio de Janeiro"]], "machines": [2]}
            _, body = service.submit({"grid": other})
            queued_id = body["job"]["id"]
            status, answer = service.cancel(queued_id)
            assert status == 200
            assert answer["job"]["state"] == "cancelled"
            assert service.store.get(queued_id).attempts == 0
        finally:
            service.stop()

    def test_cancel_terminal_job_conflicts(self, tmp_path):
        service = start_worker(make_service(tmp_path))
        try:
            _, body = service.submit({"grid": TINY})
            job_id = body["job"]["id"]
            wait_for(lambda: service.store.get(job_id).state == "done")
            status, answer = service.cancel(job_id)
            assert status == 409 and "already done" in answer["error"]
        finally:
            service.stop()

    def test_cancel_unknown_job_404(self, tmp_path):
        service = make_service(tmp_path)
        try:
            status, _ = service.cancel("job-9999-nope")
            assert status == 404
        finally:
            service.stop()


class TestDrainAndRecovery:
    def test_drain_requeues_running_job_and_restart_completes_it(self, tmp_path):
        faults.install(slow_run_plan(delay=2.5, count=1))
        first = start_worker(make_service(tmp_path))
        _, body = first.submit({"grid": TINY})
        job_id = body["job"]["id"]
        wait_for(
            lambda: first.store.get(job_id).state == "running",
            message="job starting before drain",
        )
        first.drain_and_stop(timeout=30.0)
        assert first.store.get(job_id).state == "queued"
        # Draining refuses new submissions.
        status, body = first.submit({"grid": TINY})
        assert status == 503

        faults.clear()
        second = make_service(tmp_path)
        # Recovery (in the constructor) re-admitted the drained job.
        recovered = second.store.get(job_id)
        assert recovered is not None and recovered.state == "queued"
        assert second.queue.open_count() == 1
        start_worker(second)
        try:
            wait_for(
                lambda: second.store.get(job_id).state == "done",
                message="recovered job finishing",
            )
        finally:
            second.stop()

    def test_restart_requeues_job_found_running(self, tmp_path):
        # Simulate a kill -9: a store whose journal says "running" and no
        # process around anymore.
        service = make_service(tmp_path)
        status, body = service.submit({"grid": TINY})
        job_id = body["job"]["id"]
        service.store.transition(job_id, "running", attempts=1)
        service.store.close()
        service.queue.close()

        revived = start_worker(make_service(tmp_path))
        try:
            wait_for(
                lambda: revived.store.get(job_id).state == "done",
                message="interrupted job re-run",
            )
            assert revived.store.get(job_id).attempts == 2
        finally:
            revived.stop()


class TestHealth:
    def test_health_counts_jobs_and_queue(self, tmp_path):
        service = start_worker(make_service(tmp_path, queue_depth=3))
        try:
            _, body = service.submit({"grid": TINY})
            job_id = body["job"]["id"]
            payload = service.health_payload()
            assert payload["queue"]["depth"] == 3
            assert payload["status"] == "ok"
            wait_for(lambda: service.store.get(job_id).state == "done")
            payload = service.health_payload()
            assert payload["jobs"].get("done") == 1
            service.request_drain()
            assert service.health_payload()["status"] == "draining"
        finally:
            service.stop()
