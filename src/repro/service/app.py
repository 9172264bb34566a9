"""The availability service: store + queue + one orchestrator worker.

:class:`AvailabilityService` is the process behind ``repro serve``.  It
wires together the durable :class:`~repro.service.jobstore.JobStore`, the
bounded :class:`~repro.service.queue.AdmissionQueue` and a single worker
thread that drains jobs through
:func:`~repro.casestudy.grid.evaluate_grid` (one job at a time — a grid
parallelizes *internally* across the persistent process pool, so running
jobs concurrently would only fight over the same workers).

Dependability contract:

* **Acknowledgment is durable.**  ``submit`` journals the job (fsync) before
  answering 202; a crash after the ack can lose the process but not the job.
* **Crash recovery is resumption.**  Each job's shard directory doubles as
  its checkpoint.  On start, jobs found ``running`` are re-queued at the
  front and re-attached with ``resume=True`` — completed cases restore
  bit-identically from the shards, only the remainder is re-solved.
* **Overload is refused, not absorbed.**  A full admission queue answers
  429 + ``Retry-After``; in-flight jobs keep their workers.
* **Shutdown is a drain.**  SIGTERM stops admission (``/readyz`` turns 503),
  interrupts the running job at the next group boundary, re-queues it
  (checkpoint intact, it has not failed) and exits 0 once the store is
  snapshotted.

Fault sites :data:`~repro.engine.faults.SERVICE_HANDLE_SUBMIT` and
:data:`~repro.engine.faults.SERVICE_RUN_JOB` fire here, so chaos plans can
exercise the 503/retry/quarantine paths deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.engine import faults
from repro.engine.faults import InjectedFaultError, RetryPolicy
from repro.service.jobstore import (
    DEFAULT_SNAPSHOT_EVERY,
    JobRecord,
    JobStore,
    TERMINAL_STATES,
)
from repro.service.queue import AdmissionQueue, QueueFullError, DEFAULT_DEPTH
from repro.service.spec import GridSpec, JobOptions, SpecError
from repro.spn.reachability import DEFAULT_MAX_TANGIBLE_MARKINGS


@dataclass
class ServiceConfig:
    """Operational knobs of one ``repro serve`` process."""

    state_dir: Path
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the bound port is printed/returned)
    queue_depth: int = DEFAULT_DEPTH
    use_cache: bool = True
    cache_dir: Optional[str] = None
    shard_size: int = 1
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY
    default_deadline_seconds: Optional[float] = None
    log_callback: Optional[Callable[[str], None]] = None


class AvailabilityService:
    """Crash-safe job execution in front of the scenario-grid orchestrator."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store = JobStore(
            Path(config.state_dir), snapshot_every=config.snapshot_every
        )
        self.queue = AdmissionQueue(config.queue_depth)
        self.server = None
        self._server_thread: Optional[threading.Thread] = None
        self._worker_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._draining = threading.Event()
        self._submit_lock = threading.Lock()
        self._running_lock = threading.Lock()
        self._running_job: Optional[str] = None
        self._cancel_events: dict[str, threading.Event] = {}
        self._deadline_hits: set[str] = set()
        self._idle = threading.Event()
        self._idle.set()
        self._recover()

    def _log(self, message: str) -> None:
        if self.config.log_callback is not None:
            self.config.log_callback(message)

    # --- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        """Re-admit every open job the journal acknowledged before a crash.

        ``running`` jobs go back to ``queued`` at the *front* (their
        checkpoints make the re-run cheap and they were admitted first);
        recovery bypasses the depth check — these jobs were already
        acknowledged, refusing them now would break the durability promise.
        """
        queued = [job for job in self.store.all() if job.state == "queued"]
        interrupted = [job for job in self.store.all() if job.state == "running"]
        for job in sorted(queued, key=lambda item: item.submitted_at):
            self.queue.force(job.id)
        for job in sorted(
            interrupted, key=lambda item: item.submitted_at, reverse=True
        ):
            self.store.transition(job.id, "queued", error=None)
            self.queue.force(job.id, front=True)
            self._log(
                f"[service] recovered interrupted job {job.id} "
                f"(attempt {job.attempts} was cut short; checkpoint kept)"
            )
        if queued or interrupted:
            self._log(
                f"[service] recovery re-admitted {len(queued)} queued and "
                f"{len(interrupted)} interrupted job(s)"
            )

    # --- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind the HTTP server and start its thread plus the worker."""
        from repro.service.api import build_server

        self.server = build_server(self, self.config.host, self.config.port)
        host, port = self.server.server_address[:2]
        self._server_thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http",
            daemon=True,
        )
        self._server_thread.start()
        self._worker_thread = threading.Thread(
            target=self._worker_loop, name="repro-service-worker", daemon=True
        )
        self._worker_thread.start()
        self._log(f"[service] listening on http://{host}:{port}")
        return host, port

    @property
    def address(self) -> Optional[tuple[str, int]]:
        if self.server is None:
            return None
        return self.server.server_address[:2]

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def request_drain(self) -> None:
        """Stop admitting; interrupt the running job at a group boundary."""
        if self._draining.is_set():
            return
        self._draining.set()
        self._log("[service] drain requested: admission closed")
        with self._running_lock:
            running = self._running_job
            event = self._cancel_events.get(running) if running else None
        if event is not None:
            event.set()

    def drain_and_stop(self, timeout: Optional[float] = None) -> None:
        """Graceful SIGTERM path: drain, persist, stop — then exit 0."""
        self.request_drain()
        self._stopping.set()
        self.queue.close()
        if self._worker_thread is not None:
            self._worker_thread.join(timeout=timeout)
        self.stop()

    def stop(self) -> None:
        """Tear down threads and leave a compacted, durable store behind."""
        self._stopping.set()
        self.queue.close()
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
        if self._worker_thread is not None and self._worker_thread.is_alive():
            self._worker_thread.join(timeout=5.0)
        self.store.snapshot()
        self.store.close()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is queued or leased (tests and drills)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.queue.open_count() > 0 or not self._idle.is_set():
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.05)
        return True

    # --- submission ---------------------------------------------------------

    def submit(self, payload: dict) -> tuple[int, dict]:
        """Handle ``POST /v1/grids``; returns ``(http_status, body)``.

        The 202 acknowledgment is only produced after the job record is
        fsync'd into the journal — between admission-queue reservation and
        the ack there is no window in which an accepted job can be lost.
        """
        try:
            faults.perturb(faults.SERVICE_HANDLE_SUBMIT)
        except InjectedFaultError as error:
            return 503, {"error": str(error), "retry_after": 1.0}
        if not isinstance(payload, dict):
            return 400, {"error": "submission must be a JSON object"}
        unknown = sorted(set(map(str, payload)) - {"grid", "options"})
        if unknown:
            return 400, {
                "error": f"submission has unknown field(s) {unknown}; "
                "allowed: ['grid', 'options']"
            }
        try:
            spec = GridSpec.from_payload(payload.get("grid", {}))
            options = JobOptions.from_payload(payload.get("options"))
        except SpecError as error:
            return 400, {"error": str(error)}
        if self._draining.is_set():
            return 503, {"error": "service is draining", "retry_after": 30.0}
        digest = spec.digest()
        with self._submit_lock:
            if options.dedupe:
                existing = self.store.find_by_digest(digest)
                if existing is not None:
                    return 200, {
                        "job": self.job_payload(existing),
                        "deduplicated": True,
                    }
            if self.queue.open_count() >= self.queue.depth:
                error = QueueFullError(self.queue.depth)
                return 429, {"error": str(error), "retry_after": error.retry_after}
            job_id = self._new_job_id(digest)
            job = JobRecord(
                id=job_id,
                digest=digest,
                spec=spec.as_payload(),
                options=options.as_payload(),
            )
            try:
                # Journal (fsync) BEFORE the job becomes leasable: the worker
                # must never see an id the store could still lose.
                self.store.create(job)
            except (OSError, InjectedFaultError) as error:
                return 503, {
                    "error": f"job store unavailable: {error}",
                    "retry_after": 1.0,
                }
            self.queue.force(job_id)
        self._log(
            f"[service] accepted job {job_id} "
            f"({spec.case_count()} case(s), digest {digest[:12]})"
        )
        return 202, {"job": self.job_payload(job), "deduplicated": False}

    def _new_job_id(self, digest: str) -> str:
        sequence = len(self.store.jobs) + 1
        while True:
            job_id = f"job-{sequence:04d}-{digest[:8]}"
            if job_id not in self.store.jobs:
                return job_id
            sequence += 1

    # --- queries ------------------------------------------------------------

    def job_payload(self, job: JobRecord) -> dict:
        payload = job.as_record()
        shards = self.results_paths(job.id)
        payload["results"] = {
            "shards": [path.name for path in shards],
            "rows": sum(1 for path in shards for line in path.read_text().splitlines() if line.strip()),
        }
        return payload

    def jobs_payload(self) -> dict:
        return {"jobs": [job.as_record() for job in self.store.all()]}

    def results_paths(self, job_id: str) -> list[Path]:
        directory = self.store.directory / "jobs" / job_id
        if not directory.is_dir():
            return []
        return sorted(directory.glob("grid-shard-*.jsonl"))

    def health_payload(self) -> dict:
        states: dict[str, int] = {}
        for job in self.store.jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "status": "draining" if self.draining else "ok",
            "jobs": states,
            "queue": {
                "open": self.queue.open_count(),
                "depth": self.queue.depth,
            },
            "recovery": {
                "recovered_jobs": self.store.recovered_jobs,
                "replayed_transitions": self.store.replayed_transitions,
            },
        }

    # --- cancellation -------------------------------------------------------

    def cancel(self, job_id: str) -> tuple[int, dict]:
        job = self.store.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        if job.state in TERMINAL_STATES:
            return 409, {
                "error": f"job {job_id} is already {job.state}",
                "job": self.job_payload(job),
            }
        if job.state == "queued" and self.queue.remove(job_id):
            job = self.store.transition(job_id, "cancelled", error="cancelled before start", finished_at=time.time())
            return 200, {"job": self.job_payload(job)}
        # Running (or queued-but-leased race): flag it and interrupt the run
        # at the next group boundary; completed cases stay checkpointed.
        job = self.store.annotate(job_id, cancel_requested=True)
        with self._running_lock:
            event = self._cancel_events.get(job_id)
        if event is not None:
            event.set()
        return 202, {"job": self.job_payload(job)}

    # --- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            job_id = self.queue.lease(timeout=0.2)
            if job_id is None:
                if self._stopping.is_set():
                    break
                continue
            if self._draining.is_set():
                # Leased between drain and close: put it back untouched.
                self.queue.requeue(job_id, front=True)
                break
            self._idle.clear()
            try:
                self._run_job(job_id)
            finally:
                self._idle.set()

    def _run_job(self, job_id: str) -> None:
        from repro.casestudy.grid import evaluate_grid

        job = self.store.get(job_id)
        if job is None:
            self.queue.complete(job_id)
            return
        if job.cancel_requested:
            self.store.transition(
                job_id, "cancelled", error="cancelled before start",
                finished_at=time.time(),
            )
            self.queue.complete(job_id)
            return
        try:
            spec = GridSpec.from_payload(job.spec)
            options = JobOptions.from_payload(job.options)
        except SpecError as error:
            # A journaled payload that no longer validates (e.g. written by
            # an earlier version) can never run; retrying would fail again.
            self._fail(job_id, f"{type(error).__name__}: {error}")
            return
        cancel_event = threading.Event()
        with self._running_lock:
            self._running_job = job_id
            self._cancel_events[job_id] = cancel_event
            self._deadline_hits.discard(job_id)
        job = self.store.transition(
            job_id, "running", attempts=job.attempts + 1, started_at=time.time(),
            error=None,
        )
        deadline = options.deadline_seconds or self.config.default_deadline_seconds
        timer: Optional[threading.Timer] = None
        if deadline is not None:
            def _expire() -> None:
                with self._running_lock:
                    self._deadline_hits.add(job_id)
                cancel_event.set()

            timer = threading.Timer(deadline, _expire)
            timer.daemon = True
            timer.start()
        self._log(
            f"[service] job {job_id} running (attempt {job.attempts}, "
            f"{spec.case_count()} case(s))"
        )
        started = time.perf_counter()
        try:
            faults.perturb(faults.SERVICE_RUN_JOB)
            from repro.core.parameters import CaseStudyParameters

            outcome = evaluate_grid(
                spec.scenarios(),
                parameters=CaseStudyParameters(
                    required_running_vms=spec.required_vms
                ),
                jobs=options.jobs,
                use_cache=self.config.use_cache,
                cache_dir=self.config.cache_dir,
                max_states=spec.max_states or DEFAULT_MAX_TANGIBLE_MARKINGS,
                shard_directory=self.store.job_directory(job_id),
                shard_size=self.config.shard_size,
                retry=RetryPolicy(max_retries=options.max_retries),
                resume=True,
                cancel_event=cancel_event,
                log_callback=self.config.log_callback,
            )
        except Exception as error:  # noqa: BLE001 - the job must not kill the worker
            self._finish_with_error(job_id, options, error)
            return
        finally:
            if timer is not None:
                timer.cancel()
            with self._running_lock:
                self._running_job = None
                self._cancel_events.pop(job_id, None)
        self._finish_with_outcome(job_id, outcome, started)

    def _finish_with_error(self, job_id: str, options: JobOptions, error: BaseException) -> None:
        job = self.store.get(job_id)
        message = f"{type(error).__name__}: {error}"
        if job is not None and job.attempts <= options.job_retries:
            self._log(
                f"[service] job {job_id} attempt {job.attempts} raised "
                f"({message}); re-queued"
            )
            self.store.transition(job_id, "queued", error=message)
            self.queue.requeue(job_id, front=False)
            return
        self._fail(job_id, message)

    def _fail(self, job_id: str, message: str) -> None:
        self._log(f"[service] job {job_id} failed: {message}")
        self.store.transition(
            job_id, "failed", error=message, finished_at=time.time()
        )
        self.queue.complete(job_id)

    def _finish_with_outcome(self, job_id: str, outcome, started: float) -> None:
        job = self.store.get(job_id)
        summary = self._summarize(outcome)
        with self._running_lock:
            deadline_hit = job_id in self._deadline_hits
            self._deadline_hits.discard(job_id)
        if outcome.interrupted:
            if deadline_hit:
                self.store.transition(
                    job_id, "failed", summary=summary, finished_at=time.time(),
                    error=(
                        f"deadline exceeded after "
                        f"{time.perf_counter() - started:.1f}s; "
                        f"{len(outcome.results)} case(s) checkpointed"
                    ),
                )
                self.queue.complete(job_id)
                self._log(f"[service] job {job_id} failed: deadline exceeded")
            elif job is not None and job.cancel_requested:
                self.store.transition(
                    job_id, "cancelled", summary=summary, finished_at=time.time(),
                    error="cancelled by request",
                )
                self.queue.complete(job_id)
                self._log(f"[service] job {job_id} cancelled")
            else:
                # Drain interruption: the job has not failed — back to the
                # queue with its checkpoint intact, to resume after restart.
                self.store.transition(job_id, "queued", summary=summary)
                self.queue.requeue(job_id, front=True)
                self._log(f"[service] job {job_id} drained back to the queue")
            return
        if outcome.failures and outcome.results:
            state, error = "partial", (
                f"{len(outcome.failures)} group(s) quarantined; "
                "resubmit after the fault clears to resume from the checkpoint"
            )
        elif outcome.failures:
            state, error = "failed", (
                f"all {len(outcome.failures)} group(s) faulted; no results"
            )
        else:
            state, error = "done", None
        self.store.transition(
            job_id, state, summary=summary, error=error, finished_at=time.time()
        )
        self.queue.complete(job_id)
        self._log(
            f"[service] job {job_id} {state}: {len(outcome.results)} case(s) "
            f"in {summary['total_seconds']:.2f}s "
            f"(restored {summary['restored_cases']}, "
            f"{summary['failed_groups']} group(s) quarantined)"
        )

    @staticmethod
    def _summarize(outcome) -> dict:
        """Per-run provenance persisted onto the job record."""
        return {
            "cases": len(outcome.results),
            "restored_cases": outcome.restored_cases,
            "deduped_cases": outcome.deduped_cases,
            "interrupted": outcome.interrupted,
            "total_seconds": outcome.total_seconds,
            "pool_rebuilds": outcome.pool_rebuilds,
            "watchdog_kills": outcome.watchdog_kills,
            "failed_groups": len(outcome.failures),
            "failures": [record.as_record() for record in outcome.failures],
            "groups": [asdict(group) for group in outcome.groups],
            "shards": [path.name for path in outcome.shard_paths],
        }
