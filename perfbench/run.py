"""Repository benchmark: the GSPN → TRG → CTMC availability chain of ``repro grid``.

    python3 perfbench/run.py --workload mesh-cold --seed 1 --seconds 60 --trace 0

A run makes ``evaluate_grid`` calls on one workload (``workloads.py``), each
in a fresh interpreter (``iteration.py``), for ``--seconds`` seconds and at
least once, and checks every returned availability against
``reference.json``.  Its last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``:

* ``--trace 0``, end to end: the median ``wall_s`` (the ``evaluate_grid``
  call) and ``peak_rss_mb`` (its process plus the largest reaped worker)
  over the run's calls, the median ``setup_s`` (interpreter start to the
  call) of at least three fresh interpreters, and ``pass_frac``, the share
  of attempted cases answered on the reference;
* ``--trace 1``, per layer: medians over traced calls (``tracer.py``), and
  ``trace.overhead_s``, the traced minus the untraced median wall clock of
  calls in the same run.

The line before it records the environment (effective cores, BLAS thread
variables, Python, numpy and scipy versions) and each call's numbers.

Calls get ``src`` as ``PYTHONPATH``, ``PYTHONHASHSEED=0``, one BLAS thread,
and a bytecode cache, temporary directory and TRG caches under
``.bench_build/``.  Every ``REPRO_*`` variable is removed, so no fault plan,
memory budget, cache directory or start method comes in from the caller's
shell.  A call whose processes or ``/dev/shm/repro_sweep*`` segments
outlive it counts all its cases as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters whose set-up times give a run's ``setup_s`` median.
SETUP_SAMPLES = 3

#: A run must end within 180 s; calls get what is left of this.
RUN_DEADLINE_SECONDS = 170.0

#: Time a finished call's last processes get to exit (the shared-memory
#: resource tracker stops only after its interpreter has gone).
EXIT_GRACE_SECONDS = 3.0

BLAS_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SEGMENT_DIRECTORY = Path("/dev/shm")
SEGMENT_PREFIX = "repro_sweep"


def segments() -> set[str]:
    """Names of the sweep scheduler's shared-memory segments."""
    try:
        return {
            name
            for name in os.listdir(SEGMENT_DIRECTORY)
            if name.startswith(SEGMENT_PREFIX)
        }
    except OSError:
        return set()


def group_members(group: int) -> list[int]:
    """Live (not zombie) processes of one process group, read from ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = (Path("/proc") / entry / "stat").read_text()
        except OSError:
            continue
        state, _, process_group = stat.rsplit(")", 1)[1].split()[:3]
        if int(process_group) == group and state != "Z":
            members.append(int(entry))
    return members


def stop_group(group: int, grace: float) -> list[int]:
    """Give a process group ``grace`` seconds to exit, then kill the rest.

    Returns the processes still alive when the grace period ended.
    """
    deadline = time.monotonic() + grace
    members = group_members(group)
    while members and time.monotonic() < deadline:
        time.sleep(0.05)
        members = group_members(group)
    if members:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + 5.0
        while group_members(group) and time.monotonic() < deadline:
            time.sleep(0.05)
    return members


class Calls:
    """Spawns one run's calls, each in a fresh interpreter and session."""

    def __init__(self, arguments: argparse.Namespace, build: Path) -> None:
        self.arguments = arguments
        self.build = build
        self.started = time.monotonic()
        self.made = 0
        temporary = build / "tmp"
        temporary.mkdir()
        self.environment = {
            name: value
            for name, value in os.environ.items()
            if not name.startswith("REPRO_") and name != "PYTHONDONTWRITEBYTECODE"
        }
        self.environment.update(
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
            TMPDIR=str(temporary),
        )
        # One BLAS thread per process: the workloads' parallelism is their
        # process pool, and spinning BLAS threads beside pool workers on a
        # few shared cores would time the scheduler.
        self.environment.update(dict.fromkeys(BLAS_VARIABLES, "1"))

    def __call__(self, mode: str) -> dict:
        remaining = RUN_DEADLINE_SECONDS - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("the run used up its time before this call")
        self.made += 1
        workdir = self.build / f"call-{self.made}"
        workdir.mkdir()
        output = workdir / "report.json"
        arguments = self.arguments
        command = [
            sys.executable,
            str(HERE / "iteration.py"),
            "--workload", arguments.workload,
            "--seed", str(arguments.seed),
            "--mode", mode,
            "--workdir", str(workdir),
            "--output", str(output),
            "--reference", str(arguments.reference),
        ] + (["--toy"] if arguments.toy else [])
        before = segments()
        spawned = time.monotonic_ns()
        process = subprocess.Popen(
            command + ["--spawned-ns", str(spawned)],
            cwd=ROOT,
            env=self.environment,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = process.wait(timeout=remaining)
        except BaseException:
            # A timeout, or this run being stopped: take the call down too.
            stop_group(process.pid, 0.0)
            process.wait()
            raise
        stray = stop_group(process.pid, EXIT_GRACE_SECONDS)
        leaked = segments() - before
        for name in leaked:
            (SEGMENT_DIRECTORY / name).unlink(missing_ok=True)
        if code != 0:
            raise RuntimeError(f"{mode} call exited with status {code}")
        report = json.loads(output.read_text())
        shutil.rmtree(workdir)
        leftovers = [f"process {pid} outlived the call" for pid in stray]
        leftovers += [f"segment {name} outlived the call" for name in sorted(leaked)]
        if leftovers and "attempted" in report:
            report["failed"] = report["attempted"]
        report["problems"] = report.get("problems", []) + leftovers
        report["mode"] = mode
        return report


def run(arguments: argparse.Namespace, calls: Calls) -> tuple[dict, dict]:
    """Make the run's calls; returns the details line and the result line."""
    window = time.monotonic() + arguments.seconds
    reports: list[dict] = []
    if arguments.trace:
        while True:
            plain = sum(report["mode"] == "measure" for report in reports)
            traced = len(reports) - plain
            if plain and traced and time.monotonic() >= window:
                break
            reports.append(calls("measure" if plain <= traced else "trace"))
    else:
        reports.append(calls("measure"))
        while time.monotonic() < window:
            reports.append(calls("measure"))
    probes: list[dict] = []
    setups = [report["setup_s"] for report in reports]
    if not arguments.trace:
        while len(setups) < (1 if arguments.toy else SETUP_SAMPLES):
            probes.append(calls("setup"))
            setups.append(probes[-1]["setup_s"])

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    if arguments.trace:
        plain_walls = [r["wall_s"] for r in reports if r["mode"] == "measure"]
        traced = [r["layers"] for r in reports if r["mode"] == "trace"]
        values = {
            name: statistics.median(layers[name] for layers in traced)
            for name in traced[0]
        }
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(
            plain_walls
        )
        values["fail_frac"] = failed / attempted
        section = "per_layer"
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reports),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
            "pass_frac": 1.0 - failed / attempted,
        }
        section = "end_to_end"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {
        "correct": failed == 0 and not any(r["problems"] for r in reports + probes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec[section]
        },
    }
    details = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "environment": {
            "effective_cores": len(os.sched_getaffinity(0)),
            "blas_threads": {
                name: calls.environment.get(name) for name in BLAS_VARIABLES
            },
            "python": platform.python_version(),
            "numpy": reports[0]["numpy"],
            "scipy": reports[0]["scipy"],
        },
        "calls": [
            {
                key: report.get(key)
                for key in ("mode", "setup_s", "wall_s", "peak_rss_mb", "failed")
            }
            | {"problems": report["problems"][:3]}
            for report in reports + probes
        ],
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the availability chain behind repro grid."
    )
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument(
        "--toy", action="store_true", help="toy-size inputs (the benchmark's own test)"
    )
    parser.add_argument(
        "--reference",
        type=Path,
        default=workloads.REFERENCE,
        help="reference availabilities (default: reference.json)",
    )
    arguments = parser.parse_args(argv)
    sources = ROOT / "src" / "repro"
    if not sources.is_dir():
        print(
            f"perfbench: {sources} not found; run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    build = ROOT / ".bench_build" / "perfbench" / f"{arguments.workload}-{os.getpid()}"
    shutil.rmtree(build, ignore_errors=True)
    build.mkdir(parents=True)
    try:
        details, result = run(arguments, Calls(arguments, build))
    finally:
        shutil.rmtree(build, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
