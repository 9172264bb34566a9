"""Availability-as-a-service: a crash-safe daemon in front of the grid.

``repro.service`` puts a long-running, overload-tolerant HTTP daemon in
front of :class:`~repro.engine.grid.ScenarioGridOrchestrator`, holding the
service itself to the dependability standard of the paper it reproduces:

* :mod:`repro.service.spec` — the submission vocabulary: a
  :class:`GridSpec` names the grid axes (city sets, α, disaster years,
  machines, ``l``, backup, topology, the availability threshold ``k``) and
  hashes canonically into the idempotency digest; :class:`JobOptions`
  carries the knobs that do *not* change results (workers, deadline,
  retries, and whether an identical submission joins the job that already
  owns its digest).
* :mod:`repro.service.jobstore` — the durable write-ahead job store: every
  job transition is journaled to ``journal.jsonl`` and **fsync'd before it
  is acknowledged**; atomic-rename snapshots (``jobs-snapshot.json``)
  compact the journal, and recovery replays snapshot + journal leniently.
* :mod:`repro.service.queue` — the bounded admission queue: a full queue
  refuses new work (HTTP 429 + ``Retry-After``) instead of letting it
  starve the jobs already admitted.
* :mod:`repro.service.app` — :class:`AvailabilityService` wires the store,
  the queue and one orchestrator worker together: idempotent resubmission
  by grid digest, per-job checkpoint directories (a ``kill -9`` mid-solve
  resumes bit-identically on restart), per-job deadlines and cancellation,
  graceful SIGTERM drain.
* :mod:`repro.service.api` — the stdlib ``ThreadingHTTPServer`` JSON API
  (``POST /v1/grids``, ``GET /v1/jobs/<id>``, streamed JSONL results,
  ``/healthz`` + ``/readyz``, cancel).
* :mod:`repro.service.client` — a small ``urllib`` client used by
  ``repro submit`` / ``repro jobs``, tests and the chaos drills.
"""

from repro.service.app import AvailabilityService, ServiceConfig
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobstore import (
    JobRecord,
    JobStore,
    OPEN_STATES,
    TERMINAL_STATES,
)
from repro.service.queue import AdmissionQueue, QueueFullError
from repro.service.spec import DEFAULT_PORT, GridSpec, JobOptions, SpecError

__all__ = [
    "AdmissionQueue",
    "AvailabilityService",
    "DEFAULT_PORT",
    "GridSpec",
    "JobOptions",
    "JobRecord",
    "JobStore",
    "OPEN_STATES",
    "QueueFullError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SpecError",
    "TERMINAL_STATES",
]
