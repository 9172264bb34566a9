"""Submission vocabulary of the availability service.

A client submits a *grid spec* — the same axes ``repro grid`` exposes on
the command line, as JSON — plus *job options*.  The split matters for
idempotency: the spec describes **what** is computed and hashes into the
job's content digest (two submissions with equal digests are the same work,
and the second returns the first's job instead of duplicating it — the same
philosophy as the rateless structure digests of
:class:`~repro.engine.cache.TRGCache`), while the options describe **how**
(worker budget, deadline, retry budget, submission dedupe) and stay out
of the digest.

Validation is eager and the error messages are actionable — the API layer
maps :class:`SpecError` straight to an HTTP 400 body the caller can fix
from.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.exceptions import ConfigurationError

#: Default TCP port of ``repro serve`` (chosen well clear of common dev ports).
DEFAULT_PORT = 8536

_BACKUP_VALUES = ("on", "off", "both")
_TOPOLOGY_VALUES = ("mesh", "ring")


class SpecError(ValueError):
    """A malformed grid submission (maps to HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _is_integer(value) -> bool:
    """A JSON integer (``true`` is an ``int`` to Python, not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number other than ``NaN`` and ``±Infinity`` (and not a boolean)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _number_tuple(payload, name: str, integer: bool, minimum) -> tuple:
    """A non-empty axis of JSON integers (``integer``) or finite numbers.

    Nothing is coerced: ``1.5`` is not the machine count ``1`` and the
    string ``"0.35"`` is not a number, so a grid can only ever hash to the
    digest of the grid it describes.
    """
    _require(
        isinstance(payload, (list, tuple)) and len(payload) > 0,
        f"'{name}' must be a non-empty array",
    )
    kind = "ints (JSON integers)" if integer else "floats (finite JSON numbers)"
    accepts = _is_integer if integer else _is_finite_number
    values = []
    for value in payload:
        _require(accepts(value), f"'{name}' values must be {kind}, got {value!r}")
        _require(
            value >= minimum, f"'{name}' values must be >= {minimum}, got {value!r}"
        )
        values.append(int(value) if integer else float(value))
    return tuple(values)


@dataclass(frozen=True)
class GridSpec:
    """What one job computes: the grid axes, in CLI vocabulary.

    ``cities`` is a tuple of deployment city sets (a one-city set is a
    single-site baseline; two cities the paper's architecture; three or
    more an N-data-center deployment over ``topology``).  ``backup`` is the
    CLI's ``on``/``off``/``both`` axis selector.  ``required_vms`` is the
    availability threshold ``k``; ``max_states`` optionally caps the
    exploration (``None`` uses the engine default).
    """

    cities: tuple[tuple[str, ...], ...]
    alphas: tuple[float, ...] = (0.35,)
    disaster_years: tuple[float, ...] = (100.0,)
    machines: tuple[int, ...] = (1,)
    l_thresholds: tuple[int, ...] = (1,)
    backup: str = "on"
    topology: str = "mesh"
    required_vms: int = 1
    max_states: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Mapping) -> "GridSpec":
        """Build and validate a spec from a submission's ``grid`` object."""
        _require(isinstance(payload, Mapping), "'grid' must be a JSON object")
        allowed = {
            "cities", "alphas", "disaster_years", "machines", "l_thresholds",
            "backup", "topology", "required_vms", "max_states",
        }
        unknown = sorted(set(map(str, payload)) - allowed)
        _require(
            not unknown,
            f"'grid' has unknown field(s) {unknown}; allowed: {sorted(allowed)}",
        )
        _require("cities" in payload, "'grid' needs a 'cities' array of city sets")
        raw_cities = payload["cities"]
        _require(
            isinstance(raw_cities, (list, tuple)) and len(raw_cities) > 0,
            "'cities' must be a non-empty array of city-name arrays, e.g. "
            '[["Rio de Janeiro", "Brasilia"], ["Rio de Janeiro"]]',
        )
        city_sets = []
        for entry in raw_cities:
            _require(
                isinstance(entry, (list, tuple))
                and len(entry) > 0
                and all(isinstance(name, str) and name.strip() for name in entry),
                f"each city set must be a non-empty array of city names, got "
                f"{entry!r}",
            )
            city_sets.append(tuple(name.strip() for name in entry))
        backup = payload.get("backup", "on")
        _require(
            backup in _BACKUP_VALUES,
            f"'backup' must be one of {_BACKUP_VALUES}, got {backup!r}",
        )
        topology = payload.get("topology", "mesh")
        _require(
            topology in _TOPOLOGY_VALUES,
            f"'topology' must be one of {_TOPOLOGY_VALUES}, got {topology!r}",
        )
        required_vms = payload.get("required_vms", 1)
        _require(
            _is_integer(required_vms) and required_vms >= 1,
            f"'required_vms' must be a positive integer, got {required_vms!r}",
        )
        max_states = payload.get("max_states")
        _require(
            max_states is None or (_is_integer(max_states) and max_states > 0),
            f"'max_states' must be a positive integer, got {max_states!r}",
        )
        spec = cls(
            cities=tuple(city_sets),
            alphas=_number_tuple(payload.get("alphas", [0.35]), "alphas", False, 0.0),
            disaster_years=_number_tuple(
                payload.get("disaster_years", [100.0]), "disaster_years", False, 0.0
            ),
            machines=_number_tuple(payload.get("machines", [1]), "machines", True, 1),
            l_thresholds=_number_tuple(
                payload.get("l_thresholds", [1]), "l_thresholds", True, 1
            ),
            backup=backup,
            topology=topology,
            required_vms=required_vms,
            max_states=max_states,
        )
        try:
            # Fail fast on unknown city names and on cases that cannot run
            # (an α outside (0, 1], a zero disaster mean time).
            spec.scenarios()
        except ConfigurationError as error:
            raise SpecError(
                f"'grid' holds a case that cannot run: {error}"
            ) from error
        return spec

    def resolve_cities(self) -> tuple[tuple, ...]:
        """The city sets as :class:`~repro.network.geo.City` objects."""
        from repro.network import city_named

        resolved = []
        for city_set in self.cities:
            try:
                resolved.append(tuple(city_named(name) for name in city_set))
            except ConfigurationError as error:
                raise SpecError(str(error)) from error
        return tuple(resolved)

    def as_payload(self) -> dict:
        """JSON-able round-trip form (also the digest's canonical input)."""
        return {
            "cities": [list(city_set) for city_set in self.cities],
            "alphas": list(self.alphas),
            "disaster_years": list(self.disaster_years),
            "machines": list(self.machines),
            "l_thresholds": list(self.l_thresholds),
            "backup": self.backup,
            "topology": self.topology,
            "required_vms": self.required_vms,
            "max_states": self.max_states,
        }

    def digest(self) -> str:
        """Content digest for idempotent resubmission.

        Canonical-JSON sha256 over everything that determines the result
        frame — the axes, the threshold ``k`` and the exploration limit.
        Operational knobs (:class:`JobOptions`) are deliberately excluded:
        rerunning the same grid with a different worker count is the same
        work and must dedupe onto the same job.
        """
        return hashlib.sha256(
            json.dumps(
                self.as_payload(), sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()

    def case_count(self) -> int:
        """Number of result rows this grid will produce (axes pruned)."""
        backup_width = 2 if self.backup == "both" else 1
        count = 0
        for city_set in self.cities:
            if len(city_set) == 1:
                count += len(self.machines) * len(self.disaster_years)
            else:
                count += (
                    len(self.machines)
                    * len(self.alphas)
                    * len(self.disaster_years)
                    * len(self.l_thresholds)
                    * backup_width
                )
        return count

    def scenarios(self):
        """The case-study scenarios of this spec (see ``repro.casestudy``)."""
        from repro.casestudy.grid import CaseStudyGrid

        backup_axis = {"on": (True,), "off": (False,), "both": (True, False)}
        return CaseStudyGrid(
            city_sets=self.resolve_cities(),
            alphas=self.alphas,
            disaster_years=self.disaster_years,
            machines_per_datacenter=self.machines,
            l_thresholds=self.l_thresholds,
            backup=backup_axis[self.backup],
            topology=self.topology,
        ).scenarios()


@dataclass(frozen=True)
class JobOptions:
    """How one job runs (excluded from the idempotency digest).

    ``deadline_seconds`` bounds one job's wall clock — past it the run is
    cancelled at the next group boundary and the job fails with a deadline
    error (its checkpoint survives for a resubmission).  ``max_retries``
    is the per-task retry budget of the grid's
    :class:`~repro.engine.faults.RetryPolicy`; ``job_retries`` is how often
    the *service* re-queues a job whose run raised before giving up on it.
    ``dedupe`` governs submission dedupe only: a grid whose digest matches
    an open or finished (``done``/``partial``) job returns that job instead
    of queueing a new one.  Rate-identical cases inside a run always share one
    solve.  The ``pipeline`` and ``backend`` keys, which jobs journaled by
    earlier versions carry, are accepted and ignored: the grid pipeline is
    the only execution path, and the batch engine's fan-out rule is not a
    setting.
    """

    jobs: Optional[int] = None
    dedupe: bool = True
    deadline_seconds: Optional[float] = None
    max_retries: int = 2
    job_retries: int = 1
    metadata: Mapping[str, object] = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: Optional[Mapping]) -> "JobOptions":
        if payload is None:
            return cls()
        _require(isinstance(payload, Mapping), "'options' must be a JSON object")
        allowed = {
            "jobs", "backend", "pipeline", "dedupe", "deadline_seconds",
            "max_retries", "job_retries", "metadata",
        }
        unknown = sorted(set(map(str, payload)) - allowed)
        _require(
            not unknown,
            f"'options' has unknown field(s) {unknown}; allowed: {sorted(allowed)}",
        )
        jobs = payload.get("jobs")
        _require(
            jobs is None or (_is_integer(jobs) and jobs >= 1),
            f"'jobs' must be a positive integer, got {jobs!r}",
        )
        dedupe = payload.get("dedupe", True)
        _require(
            isinstance(dedupe, bool),
            f"'dedupe' must be a JSON boolean, got {dedupe!r}",
        )
        deadline = payload.get("deadline_seconds")
        _require(
            deadline is None or (_is_finite_number(deadline) and deadline > 0),
            f"'deadline_seconds' must be a positive finite number, got "
            f"{deadline!r}",
        )
        max_retries = payload.get("max_retries", 2)
        _require(
            _is_integer(max_retries) and max_retries >= 0,
            f"'max_retries' must be a non-negative integer, got {max_retries!r}",
        )
        job_retries = payload.get("job_retries", 1)
        _require(
            _is_integer(job_retries) and job_retries >= 0,
            f"'job_retries' must be a non-negative integer, got {job_retries!r}",
        )
        metadata = payload.get("metadata", {})
        _require(
            isinstance(metadata, Mapping), "'metadata' must be a JSON object"
        )
        return cls(
            jobs=jobs,
            dedupe=dedupe,
            deadline_seconds=float(deadline) if deadline is not None else None,
            max_retries=max_retries,
            job_retries=job_retries,
            metadata=dict(metadata),
        )

    def as_payload(self) -> dict:
        return {
            "jobs": self.jobs,
            "dedupe": self.dedupe,
            "deadline_seconds": self.deadline_seconds,
            "max_retries": self.max_retries,
            "job_retries": self.job_retries,
            "metadata": dict(self.metadata),
        }
