"""Command-line interface for the case-study harness.

``python -m repro <command>`` exposes the main experiments without writing
any Python:

* ``availability`` — availability of one two-data-center configuration,
* ``table7``       — reproduce Table VII,
* ``figure7``      — reproduce (a subset of) the Figure 7 sweep,
* ``transient``    — mission-window (interval) availability vs VM start time,
* ``ablations``    — the Section III design-knob ablations,
* ``sensitivity``  — one-at-a-time sensitivity of the Table VI parameters,
* ``cache``        — inspect / clear the persistent reachability-graph cache,
* ``serve``        — run the crash-safe availability service (HTTP daemon),
* ``submit``       — submit a grid to a running service,
* ``jobs``         — list / inspect / cancel service jobs, stream results.

Exit codes are structured (see :class:`repro.exitcodes.ExitCode`): 0 for a
complete result, 2 for invalid arguments, 3 for a **partial** result (some
cases quarantined; resumable), 4 when a run faulted and produced nothing
consumable.

Every command accepts ``--full`` to run the faithful two-PM-per-data-center
configuration instead of the fast reduced one.  The steady-state batch
commands (``table7``, ``figure7``, ``sensitivity``, ``ablations``, ``grid``)
also accept ``--jobs N``, a budget of up to N engine workers (always
clamped to the effective CPU cores).  How a batch uses it is one fixed
rule, not an option: it fans out over the zero-copy shared-memory sweep
scheduler only when every worker gets at least eight solves, and runs
serially otherwise (always on one core).  Rate-identical cases of one
structure are always solved once.  Every case-study command consults the on-disk
reachability cache by default so repeat invocations skip state-space
generation; pass ``--no-cache`` to force a fresh exploration.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.casestudy import (
    AblationStudy,
    CaseStudyGrid,
    SensitivityAnalysis,
    deployment,
    evaluate_grid,
    render_ablations,
    render_figure7,
    render_grid,
    render_sensitivity,
    render_table7,
    render_transient,
    reproduce_figure7,
    reproduce_table7,
    reproduce_transient,
)
from repro.casestudy.grid import clamped_availability, complete_rows
from repro.casestudy.transient import (
    DEFAULT_GRID_POINTS,
    DEFAULT_VM_START_MINUTES,
    DEFAULT_WINDOW_HOURS,
)
from repro.core import CaseStudyParameters, DistributedScenario
from repro.core.scenarios import CITY_PAIRS
from repro.engine import MIN_SCENARIOS_PER_WORKER
from repro.engine.faults import RetryPolicy
from repro.exceptions import AnalysisError, ConfigurationError
from repro.exitcodes import ExitCode
from repro.metrics import AvailabilityResult
from repro.network import city_named


def _invalid(message: str) -> None:
    """Refuse bad arguments with the structured INVALID_ARGS exit code."""
    print(f"repro: error: {message}", file=sys.stderr)
    raise SystemExit(int(ExitCode.INVALID_ARGS))


def _deployment(arguments) -> dict:
    """The two-data-center configuration (``--full`` or reduced) and cache
    switch of a command."""
    return {**deployment(arguments.full), "use_cache": not arguments.no_cache}


def _add_full_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the faithful case-study configuration (two PMs per data center)",
    )


def _add_cache_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent reachability-graph cache",
    )


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker budget, clamped to the effective CPU cores; a batch "
        "fans out over worker processes only when every worker gets at "
        f"least {MIN_SCENARIOS_PER_WORKER} solves and runs serially otherwise",
    )


def _add_grid_axis_flags(parser: argparse.ArgumentParser) -> None:
    """The grid axes shared by ``repro grid`` and ``repro submit``."""
    parser.add_argument(
        "--cities",
        default="Rio de Janeiro+Brasilia;Rio de Janeiro",
        metavar="A+B;C",
        help="';'-separated deployment city sets ('+' joins the data centers "
        "of one deployment; a single city is a non-distributed baseline; "
        "three or more cities form an N-data-center topology)",
    )
    parser.add_argument(
        "--alphas", default="0.35", metavar="A1,A2,...",
        help="comma-separated network-speed coefficients",
    )
    parser.add_argument(
        "--disaster-years", default="100", metavar="Y1,Y2,...",
        help="comma-separated disaster mean times in years",
    )
    parser.add_argument(
        "--machines", default="1", metavar="M1,M2,...",
        help="comma-separated machines-per-data-center counts",
    )
    parser.add_argument(
        "--l-thresholds", default="1", metavar="L1,L2,...",
        help="comma-separated migration thresholds l (paper: 1)",
    )
    parser.add_argument(
        "--backup", choices=("on", "off", "both"), default="on",
        help="backup-server axis of the distributed scenarios",
    )
    parser.add_argument(
        "--topology", choices=("mesh", "ring"), default="mesh",
        help="migration topology for deployments with three or more data centers",
    )
    parser.add_argument(
        "--required-vms", type=int, default=1, metavar="K",
        help="availability threshold k (running VMs required)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dependability evaluation of disaster-tolerant cloud systems (DSN 2013 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    availability = commands.add_parser(
        "availability", help="availability of one two-data-center configuration"
    )
    availability.add_argument("--first", default="Rio de Janeiro", help="first data-center city")
    availability.add_argument("--second", default="Brasilia", help="second data-center city")
    availability.add_argument("--alpha", type=float, default=0.35, help="network-speed coefficient")
    availability.add_argument(
        "--disaster-years", type=float, default=100.0, help="disaster mean time in years"
    )
    _add_full_flag(availability)
    _add_cache_flag(availability)

    table7 = commands.add_parser("table7", help="reproduce Table VII")
    _add_full_flag(table7)
    _add_jobs_flag(table7)
    _add_cache_flag(table7)

    figure7 = commands.add_parser("figure7", help="reproduce the Figure 7 sweep")
    figure7.add_argument(
        "--pairs", type=int, default=len(CITY_PAIRS), help="number of city pairs to evaluate"
    )
    _add_full_flag(figure7)
    _add_jobs_flag(figure7)
    _add_cache_flag(figure7)

    transient = commands.add_parser(
        "transient",
        help="mission-window (interval) availability vs VM start time",
    )
    transient.add_argument(
        "--minutes",
        default=",".join(f"{m:g}" for m in DEFAULT_VM_START_MINUTES),
        metavar="M1,M2,...",
        help="comma-separated VM start times in minutes",
    )
    transient.add_argument(
        "--window",
        type=float,
        default=DEFAULT_WINDOW_HOURS,
        metavar="HOURS",
        help="mission window length in hours",
    )
    transient.add_argument(
        "--points",
        type=int,
        default=DEFAULT_GRID_POINTS,
        metavar="N",
        help="number of mission-time grid points (including t=0)",
    )
    _add_full_flag(transient)
    _add_cache_flag(transient)

    cache = commands.add_parser(
        "cache", help="inspect or clear the persistent reachability-graph cache"
    )
    cache.add_argument(
        "action",
        nargs="?",
        choices=("show", "clear"),
        default="show",
        help="show entries (default) or delete them all",
    )
    cache.add_argument(
        "--dir", default=None, metavar="PATH", help="cache directory override"
    )
    cache.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="with clear: only delete entries not modified in the last "
        "DAYS days (fractions allowed)",
    )

    grid = commands.add_parser(
        "grid",
        help="sweep a mixed-structure scenario grid through the orchestrator",
    )
    _add_grid_axis_flags(grid)
    grid.add_argument(
        "--shard-dir", default=None, metavar="PATH",
        help="stream result rows to JSONL shards in this directory; the "
        "directory holds one grid's shards — existing grid-shard-*.jsonl "
        "files are removed at the start of a run (the shards double as the "
        "run's checkpoint, see --resume)",
    )
    grid.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume from the checkpoint shards in PATH: completed cases "
        "are restored (solve_source='checkpoint') and only missing or "
        "previously failed cases are re-dispatched; implies --shard-dir "
        "PATH",
    )
    grid.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="extra attempts per failed task before it is quarantined into "
        "the failure list (with exponential backoff between attempts)",
    )
    grid.add_argument(
        "--generate-deadline", type=float, default=None, metavar="SECONDS",
        help="watchdog deadline for one structure-graph generation task; a "
        "generation past it has its workers killed and is retried",
    )
    grid.add_argument(
        "--solve-deadline", type=float, default=None, metavar="SECONDS",
        help="watchdog deadline for one wave of worker-process solve "
        "chunks; a hung wave has its workers killed and is retried",
    )
    grid.add_argument(
        "--fault-plan", default=None, metavar="JSON|@PATH",
        help="inject deterministic faults (testing/chaos): a JSON fault "
        "plan, or @/path/to/plan.json; see repro.engine.faults",
    )
    grid.add_argument(
        "--progress",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="print live one-line pipeline progress to stderr",
    )
    grid.add_argument(
        "--memory-budget", default=None, metavar="SIZE",
        help="peak-memory budget for the per-group representation planner "
        "(e.g. 512M, 8G; bare numbers are bytes); groups whose estimated "
        "in-RAM footprint exceeds it run on the out-of-core chunked "
        "backend, groups too large even for that are refused with a "
        "sizing message; default: $REPRO_MEMORY_BUDGET, else half the "
        "available RAM",
    )
    grid.add_argument(
        "--symmetry",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="exploit exchangeable machines / data centers and solve the "
        "exactly lumped chain (bit-identical measures, far fewer states); "
        "default: the library default (on). --no-symmetry also limits the "
        "shared solves to bit-identical rate vectors",
    )
    _add_jobs_flag(grid)
    _add_cache_flag(grid)

    ablations = commands.add_parser("ablations", help="design-knob ablations")
    _add_full_flag(ablations)
    _add_jobs_flag(ablations)
    _add_cache_flag(ablations)

    sensitivity = commands.add_parser(
        "sensitivity", help="one-at-a-time sensitivity of the Table VI parameters"
    )
    sensitivity.add_argument(
        "--factor", type=float, default=2.0, help="multiplicative MTTF perturbation factor"
    )
    _add_jobs_flag(sensitivity)
    _add_cache_flag(sensitivity)

    serve = commands.add_parser(
        "serve",
        help="run the crash-safe availability service (HTTP daemon)",
    )
    serve.add_argument(
        "--state-dir", required=True, metavar="PATH",
        help="service state directory: the fsync'd job journal, snapshots "
        "and per-job checkpoint shard directories live here; restarting "
        "with the same directory recovers every acknowledged job",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, metavar="N",
        help="TCP port (0 binds an ephemeral port; the bound address is "
        "printed on stdout and written to <state-dir>/service.json)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=8, metavar="N",
        help="admission bound: open (queued + running) jobs beyond this "
        "are refused with HTTP 429 + Retry-After",
    )
    serve.add_argument(
        "--shard-size", type=int, default=1, metavar="N",
        help="rows per checkpoint shard of each job (1 = checkpoint after "
        "every completed case)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=64, metavar="N",
        help="journal appends between snapshot compactions",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock deadline (jobs may override)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="reachability-graph cache directory override",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress progress lines on stderr"
    )
    _add_cache_flag(serve)

    submit = commands.add_parser(
        "submit", help="submit a grid to a running availability service"
    )
    submit.add_argument(
        "--url", required=True, metavar="URL",
        help="service base URL, e.g. http://127.0.0.1:8536",
    )
    _add_grid_axis_flags(submit)
    submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock deadline",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state and exit with "
        "its structured code (0 done, 3 partial, 4 failed/cancelled)",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="--wait timeout",
    )
    _add_jobs_flag(submit)

    jobs = commands.add_parser(
        "jobs", help="list / inspect / cancel service jobs, stream results"
    )
    jobs.add_argument(
        "--url", required=True, metavar="URL", help="service base URL"
    )
    jobs.add_argument("job_id", nargs="?", default=None, help="one job to inspect")
    jobs.add_argument(
        "--results", action="store_true",
        help="stream the job's result rows as JSON lines to stdout",
    )
    jobs.add_argument(
        "--cancel", action="store_true", help="cancel the job instead"
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Every command refuses a :class:`~repro.exceptions.ConfigurationError`
    (an unknown city, an α outside (0, 1], a non-positive disaster mean
    time) with the INVALID_ARGS exit code.
    """
    arguments = build_parser().parse_args(argv)
    try:
        return _run(arguments)
    except ConfigurationError as error:
        _invalid(str(error))


def _run(arguments) -> int:
    """Run the parsed command; returns a process exit code."""
    if arguments.command == "cache":
        from repro.engine import TRGCache

        cache = TRGCache(arguments.dir)
        if arguments.action == "clear":
            try:
                removed = cache.clear(older_than_days=arguments.older_than)
            except ValueError as error:
                _invalid(f"--older-than: {error}")
            scope = (
                f" older than {arguments.older_than:g} day(s)"
                if arguments.older_than is not None
                else ""
            )
            print(
                f"removed {removed} cached reachability graph(s){scope} "
                f"from {cache.directory}"
            )
            return 0
        if arguments.older_than is not None:
            _invalid("--older-than only applies to the clear action")
        entries = cache.entries()
        print(f"cache directory : {cache.directory}")
        print(f"entries         : {len(entries)}")
        print(f"total on disk   : {cache.total_size_bytes() / 1024:.1f} KiB")
        for entry in entries:
            age_hours = (time.time() - entry.modified) / 3600.0
            print(
                f"  {entry.key[:16]}…  {entry.size_bytes / 1024:8.1f} KiB  "
                f"{entry.representation:<7}  {age_hours:6.1f} h old"
            )
        return 0

    if arguments.command == "availability":
        configuration = _deployment(arguments)
        scenario = DistributedScenario(
            first=city_named(arguments.first),
            second=city_named(arguments.second),
            alpha=arguments.alpha,
            disaster_mean_time_years=arguments.disaster_years,
            machines_per_datacenter=configuration["machines_per_datacenter"],
        )
        outcome = evaluate_grid(
            [scenario],
            configuration["parameters"],
            use_cache=configuration["use_cache"],
        )
        (row,) = complete_rows(outcome)
        result = AvailabilityResult(clamped_availability(row), label=scenario.label)
        print(f"configuration : {scenario.label}")
        print(f"availability  : {result.availability:.7f}")
        print(f"nines         : {result.nines:.2f}")
        print(f"downtime      : {result.downtime_hours_per_year:.1f} hours/year")
        print(f"state space   : {row.number_of_states} tangible markings")
        print(f"graph source  : {row.graph_source}")
        return 0

    if arguments.command == "table7":
        print(
            render_table7(
                reproduce_table7(
                    **_deployment(arguments),
                    max_workers=arguments.jobs,
                )
            )
        )
        return 0

    if arguments.command == "figure7":
        points = reproduce_figure7(
            city_pairs=CITY_PAIRS[: max(1, arguments.pairs)],
            **_deployment(arguments),
            max_workers=arguments.jobs,
        )
        print(render_figure7(points))
        return 0

    if arguments.command == "transient":
        try:
            minutes = [float(value) for value in arguments.minutes.split(",") if value]
        except ValueError:
            _invalid(
                f"--minutes expects comma-separated numbers, got {arguments.minutes!r}"
            )
        try:
            curves = reproduce_transient(
                **_deployment(arguments),
                minutes=minutes,
                window_hours=arguments.window,
                points=arguments.points,
            )
        except AnalysisError as error:
            # A window too long for the kernel's Poisson weight tables.
            _invalid(str(error))
        print(render_transient(curves))
        return 0

    if arguments.command == "grid":
        def parse_values(text: str, convert, flag: str):
            try:
                values = tuple(convert(part) for part in text.split(",") if part.strip())
            except ValueError:
                _invalid(f"{flag} expects comma-separated values, got {text!r}")
            if not values:
                _invalid(f"{flag} needs at least one value")
            return values

        city_sets = tuple(
            tuple(
                city_named(name.strip())
                for name in part.split("+")
                if name.strip()
            )
            for part in arguments.cities.split(";")
            if part.strip()
        )
        if not city_sets:
            _invalid("--cities needs at least one city set")
        backup_axis = {"on": (True,), "off": (False,), "both": (True, False)}
        grid = CaseStudyGrid(
            city_sets=city_sets,
            alphas=parse_values(arguments.alphas, float, "--alphas"),
            disaster_years=parse_values(
                arguments.disaster_years, float, "--disaster-years"
            ),
            machines_per_datacenter=parse_values(
                arguments.machines, int, "--machines"
            ),
            l_thresholds=parse_values(arguments.l_thresholds, int, "--l-thresholds"),
            backup=backup_axis[arguments.backup],
            topology=arguments.topology,
        )
        def progress(line: str) -> None:
            print(line, file=sys.stderr, flush=True)

        from repro.engine import faults as fault_injection

        installed_plan = False
        if arguments.fault_plan is not None:
            text = arguments.fault_plan
            if text.startswith("@"):
                try:
                    with open(text[1:]) as handle:
                        text = handle.read()
                except OSError as error:
                    _invalid(f"--fault-plan: cannot read {text[1:]}: {error}")
            try:
                fault_injection.install(fault_injection.FaultPlan.from_json(text))
            except (ValueError, TypeError) as error:
                _invalid(f"--fault-plan: invalid plan: {error}")
            installed_plan = True

        shard_directory = arguments.shard_dir
        resume = False
        if arguments.resume is not None:
            if shard_directory is not None and str(shard_directory) != str(
                arguments.resume
            ):
                _invalid(
                    "--resume PATH already names the shard directory; drop "
                    "--shard-dir or make them identical"
                )
            shard_directory = arguments.resume
            resume = True
        retry = RetryPolicy(
            max_retries=max(0, arguments.max_retries),
            generate_deadline_seconds=arguments.generate_deadline,
            solve_deadline_seconds=arguments.solve_deadline,
        )
        from repro.engine.dispatch import (
            MEMORY_BUDGET_ENVIRONMENT_VARIABLE,
            memory_budget_bytes,
        )

        try:
            memory_budget = memory_budget_bytes(arguments.memory_budget)
        except ValueError as error:
            _invalid(
                f"--memory-budget/{MEMORY_BUDGET_ENVIRONMENT_VARIABLE}: {error}"
            )

        try:
            outcome = evaluate_grid(
                grid.scenarios(),
                parameters=CaseStudyParameters(
                    required_running_vms=arguments.required_vms
                ),
                jobs=arguments.jobs,
                use_cache=not arguments.no_cache,
                symmetry_reduction=arguments.symmetry,
                shard_directory=shard_directory,
                generation_workers=arguments.jobs,
                memory_budget=memory_budget,
                retry=retry,
                resume=resume,
                log_callback=progress if arguments.progress else None,
            )
        finally:
            if installed_plan:
                fault_injection.clear()
        print(render_grid(outcome))
        if outcome.partial:
            print(
                f"grid incomplete: {len(outcome.failed_cases())} case(s) "
                f"quarantined (see output above"
                + (
                    f" and {shard_directory}/grid-failures.jsonl"
                    if shard_directory is not None
                    else ""
                )
                + ")",
                file=sys.stderr,
            )
            # PARTIAL when there is something to consume (resumable with
            # --resume); FAULTED when every case was quarantined.
            if outcome.results:
                return int(ExitCode.PARTIAL)
            return int(ExitCode.FAULTED)
        return int(ExitCode.OK)

    if arguments.command == "ablations":
        study = AblationStudy(
            machines_per_datacenter=2 if arguments.full else 1,
            use_cache=not arguments.no_cache,
            jobs=arguments.jobs,
        )
        print(render_ablations(study.run_default_suite()))
        outcome = study.last_grid_outcome
        if outcome is not None and outcome.deduped_cases:
            print(
                f"({outcome.deduped_cases} case(s) shared a rate-identical "
                f"stationary vector instead of solving)"
            )
        return 0

    if arguments.command == "sensitivity":
        analysis = SensitivityAnalysis(
            factor=arguments.factor, use_cache=not arguments.no_cache
        )
        print(
            render_sensitivity(
                analysis.run(max_workers=arguments.jobs)
            )
        )
        return 0

    if arguments.command == "serve":
        return _cmd_serve(arguments)

    if arguments.command == "submit":
        return _cmd_submit(arguments)

    if arguments.command == "jobs":
        return _cmd_jobs(arguments)

    raise AssertionError(f"unhandled command {arguments.command!r}")  # pragma: no cover


def _cmd_serve(arguments) -> int:
    """Run the availability service until SIGTERM/SIGINT drains it."""
    import json
    import signal
    import threading
    from pathlib import Path

    from repro.service import AvailabilityService, ServiceConfig

    if arguments.queue_depth < 1:
        _invalid(f"--queue-depth must be >= 1, got {arguments.queue_depth}")
    if arguments.shard_size < 1:
        _invalid(f"--shard-size must be >= 1, got {arguments.shard_size}")

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    service = AvailabilityService(
        ServiceConfig(
            state_dir=Path(arguments.state_dir),
            host=arguments.host,
            port=arguments.port,
            queue_depth=arguments.queue_depth,
            use_cache=not arguments.no_cache,
            cache_dir=arguments.cache_dir,
            shard_size=arguments.shard_size,
            snapshot_every=arguments.snapshot_every,
            default_deadline_seconds=arguments.deadline,
            log_callback=None if arguments.quiet else progress,
        )
    )
    shutdown = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal signature
        shutdown.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    host, port = service.start()
    # Announce the bound address both ways: stdout for humans/pipes, and a
    # discovery file so drills and clients can find an ephemeral port.
    print(f"repro-service listening on http://{host}:{port}", flush=True)
    (Path(arguments.state_dir) / "service.json").write_text(
        json.dumps({"host": host, "port": port, "url": f"http://{host}:{port}"})
        + "\n"
    )
    shutdown.wait()
    # Signal handlers only set the event; the actual drain runs here on the
    # main thread — stop admitting, interrupt the running job at a group
    # boundary (its checkpoint survives and it is re-queued), persist, exit.
    print("repro-service draining...", file=sys.stderr, flush=True)
    service.drain_and_stop()
    print("repro-service drained; state persisted", file=sys.stderr, flush=True)
    return int(ExitCode.OK)


def _submission_grid(arguments) -> dict:
    """The ``repro submit`` axis flags as a service grid payload."""
    cities = [
        [name.strip() for name in part.split("+") if name.strip()]
        for part in arguments.cities.split(";")
        if part.strip()
    ]

    def values(text: str, convert, flag: str) -> list:
        try:
            parsed = [convert(part) for part in text.split(",") if part.strip()]
        except ValueError:
            _invalid(f"{flag} expects comma-separated values, got {text!r}")
        if not parsed:
            _invalid(f"{flag} needs at least one value")
        return parsed

    return {
        "cities": cities,
        "alphas": values(arguments.alphas, float, "--alphas"),
        "disaster_years": values(arguments.disaster_years, float, "--disaster-years"),
        "machines": values(arguments.machines, int, "--machines"),
        "l_thresholds": values(arguments.l_thresholds, int, "--l-thresholds"),
        "backup": arguments.backup,
        "topology": arguments.topology,
        "required_vms": arguments.required_vms,
    }


def _cmd_submit(arguments) -> int:
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(arguments.url)
    options: dict = {}
    if arguments.jobs is not None:
        options["jobs"] = arguments.jobs
    if arguments.deadline is not None:
        options["deadline_seconds"] = arguments.deadline
    try:
        answer = client.submit(_submission_grid(arguments), options or None)
    except ServiceError as error:
        if error.status == 400:
            _invalid(str(error))
        hint = (
            f" (retry in {error.retry_after:g}s)"
            if error.retry_after is not None
            else ""
        )
        print(f"repro: submission refused: {error}{hint}", file=sys.stderr)
        return int(ExitCode.FAULTED)
    job = answer["job"]
    note = " (deduplicated onto an existing job)" if answer["deduplicated"] else ""
    print(f"job {job['id']}: {job['state']}{note}")
    if not arguments.wait:
        return int(ExitCode.OK)
    try:
        job = client.wait(job["id"], timeout=arguments.timeout)
    except TimeoutError as error:
        print(f"repro: {error}", file=sys.stderr)
        return int(ExitCode.FAULTED)
    rows = job.get("results", {}).get("rows", 0)
    print(f"job {job['id']}: {job['state']} ({rows} result row(s))")
    if job.get("error"):
        print(f"  {job['error']}", file=sys.stderr)
    if job["state"] == "done":
        return int(ExitCode.OK)
    if job["state"] == "partial":
        return int(ExitCode.PARTIAL)
    return int(ExitCode.FAULTED)


def _cmd_jobs(arguments) -> int:
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(arguments.url)
    if arguments.job_id is None:
        if arguments.results or arguments.cancel:
            _invalid("--results/--cancel need a JOB_ID")
        try:
            jobs = client.jobs()
        except ServiceError as error:
            print(f"repro: {error}", file=sys.stderr)
            return int(ExitCode.FAULTED)
        for job in jobs:
            cases = job.get("summary", {}).get("cases", "-")
            print(
                f"{job['id']}  {job['state']:<9}  attempts={job['attempts']}  "
                f"cases={cases}  digest={job['digest'][:12]}"
            )
        return int(ExitCode.OK)
    try:
        if arguments.cancel:
            answer = client.cancel(arguments.job_id)
            print(f"job {answer['job']['id']}: {answer['job']['state']}")
            return int(ExitCode.OK)
        if arguments.results:
            for row in client.results(arguments.job_id):
                print(json.dumps(row, sort_keys=True))
            return int(ExitCode.OK)
        print(json.dumps(client.job(arguments.job_id), indent=2, sort_keys=True))
        return int(ExitCode.OK)
    except ServiceError as error:
        print(f"repro: {error}", file=sys.stderr)
        return int(ExitCode.FAULTED)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
