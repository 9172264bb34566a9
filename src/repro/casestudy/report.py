"""Plain-text rendering of case-study results.

The harness prints the same rows / series the paper reports (Table VII and
Figure 7) so the console output of the examples and benchmarks can be
compared with the publication side by side.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.casestudy.ablations import AblationResult
from repro.casestudy.figure7 import Figure7Point
from repro.casestudy.sensitivity import SensitivityEntry
from repro.casestudy.table7 import Table7Row
from repro.casestudy.transient import TransientCurve


def _format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = [list(map(str, row)) for row in rows]
    widths = [len(header) for header in headers]
    for row in rows:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    def render_row(cells):
        return " | ".join(cell.ljust(width) for cell, width in zip(cells, widths))
    separator = "-+-".join("-" * width for width in widths)
    lines = [render_row(headers), separator]
    lines.extend(render_row(row) for row in rows)
    return "\n".join(lines)


def render_table7(rows: Iterable[Table7Row]) -> str:
    """Render the reproduced Table VII next to the published values."""
    body = []
    for row in rows:
        paper = "-" if row.paper_availability is None else f"{row.paper_availability:.7f}"
        paper_nines = "-" if row.paper_nines is None else f"{row.paper_nines:.2f}"
        body.append(
            (
                row.label,
                f"{row.measured.availability:.7f}",
                f"{row.measured.nines:.2f}",
                paper,
                paper_nines,
            )
        )
    return _format_table(
        ["Architecture", "Availability", "Nines", "Paper avail.", "Paper nines"], body
    )


def render_figure7(points: Iterable[Figure7Point]) -> str:
    """Render the Figure 7 sweep as a table of nines improvements."""
    body = [
        (
            point.city_pair,
            f"{point.alpha:.2f}",
            f"{point.disaster_mean_time_years:.0f}",
            f"{point.availability:.7f}",
            f"{point.nines:.2f}",
            f"{point.improvement_over_baseline:+.2f}",
        )
        for point in points
    ]
    return _format_table(
        ["City pair", "alpha", "Disaster MTTF (y)", "Availability", "Nines", "Δ nines"],
        body,
    )


def render_sensitivity(entries: Iterable[SensitivityEntry]) -> str:
    """Render a sensitivity sweep sorted by impact."""
    body = [
        (
            entry.component,
            entry.parameter,
            f"x{entry.factor:g}",
            f"{entry.baseline_availability:.7f}",
            f"{entry.perturbed_availability:.7f}",
            f"{entry.availability_delta:+.2e}",
        )
        for entry in entries
    ]
    return _format_table(
        ["Component", "Parameter", "Factor", "Baseline", "Perturbed", "Δ availability"],
        body,
    )


def render_transient(curves: Iterable[TransientCurve]) -> str:
    """Render mission-window availability curves (one block per VM start time).

    Each curve lists the point availability ``A(t)`` and the interval
    availability ``(1/t)∫₀ᵗ A`` at every mission time of the grid.
    """
    blocks = []
    for curve in curves:
        body = [
            (
                f"{float(t):8.2f}",
                f"{float(point):.7f}",
                f"{float(interval):.7f}",
            )
            for t, point, interval in zip(
                curve.times_hours,
                curve.point_availability,
                curve.interval_availability,
            )
        ]
        table = _format_table(
            ["Mission t (h)", "Point avail. A(t)", "Interval avail. [0,t]"], body
        )
        blocks.append(
            f"VM start time: {curve.vm_start_minutes:g} min  "
            f"(mission interval availability "
            f"{curve.mission_interval_availability:.7f}, "
            f"{curve.number_of_states} states)\n{table}"
        )
    return "\n\n".join(blocks)


def render_grid(outcome) -> str:
    """Render a grid outcome: one row per scenario plus group provenance.

    ``outcome`` is a :class:`repro.engine.grid.GridOutcome`; the second
    table summarises each structure group (states, cache hit, backend and
    generate/solve seconds).
    """
    from repro.metrics import number_of_nines

    body = []
    for row in outcome.results:
        availability = row.value("availability")
        body.append(
            (
                row.name,
                f"{availability:.7f}",
                f"{number_of_nines(min(1.0, max(0.0, availability))):.2f}",
                str(row.number_of_states),
                row.group[:8],
                row.graph_source,
            )
        )
    scenario_table = _format_table(
        ["Scenario", "Availability", "Nines", "States", "Group", "Graph"], body
    )
    group_table = _format_table(
        ["Group", "Cases", "States", "Graph", "Backend", "Generate s", "Solve s"],
        [
            (
                group.key[:8],
                str(group.cases),
                str(group.number_of_states),
                group.graph_source,
                group.backend,
                f"{group.generate_seconds:.2f}",
                f"{group.solve_seconds:.2f}",
            )
            for group in outcome.groups
        ],
    )
    summary = (
        f"{len(outcome.results)} scenario(s) over {len(outcome.groups)} structure "
        f"group(s) in {outcome.total_seconds:.2f}s"
    )
    deduped = getattr(outcome, "deduped_cases", 0)
    if deduped:
        summary += f"; {deduped} case(s) deduped (shared stationary vector)"
    restored = getattr(outcome, "restored_cases", 0)
    if restored:
        summary += f"; {restored} case(s) restored from checkpoint"
    rebuilds = getattr(outcome, "pool_rebuilds", 0)
    if rebuilds:
        summary += f"; worker pool rebuilt {rebuilds} time(s)"
    kills = getattr(outcome, "watchdog_kills", 0)
    if kills:
        summary += f"; watchdog killed {kills} hung task(s)"
    if outcome.shard_paths:
        summary += f"; {len(outcome.shard_paths)} shard file(s) written"
    rendered = f"{scenario_table}\n\n{group_table}\n\n{summary}"
    failures = getattr(outcome, "failures", [])
    if failures:
        failure_table = _format_table(
            ["Stage", "Group", "Cases", "Attempts", "Error"],
            [
                (
                    record.stage,
                    record.group[:8],
                    ", ".join(record.cases),
                    str(record.attempts),
                    f"{record.error_type}: {record.error}"[:72],
                )
                for record in failures
            ],
        )
        rendered += (
            f"\n\nPARTIAL RESULT — "
            f"{sum(len(record.cases) for record in failures)} case(s) "
            f"quarantined after retries:\n{failure_table}"
        )
    return rendered


def render_ablations(results: Iterable[AblationResult]) -> str:
    """Render an ablation suite."""
    body = [
        (
            result.name,
            result.description,
            f"{result.availability.availability:.7f}",
            f"{result.nines:.2f}",
        )
        for result in results
    ]
    return _format_table(["Ablation", "Description", "Availability", "Nines"], body)
