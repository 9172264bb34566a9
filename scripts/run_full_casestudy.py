"""Run the full-scale case study (Table VII + Figure 7 + transient +
ablations) and write the results to ``results/`` for inclusion in
EXPERIMENTS.md.

Usage::

    python scripts/run_full_casestudy.py [output_directory]

The distributed configurations use the faithful two-PM-per-data-center model
(the lumped CTMC has ~5.7 × 10^4 states); the whole run takes tens of minutes
on a laptop.
"""

import json
import pathlib
import sys
import time

from repro.casestudy import (
    AblationStudy,
    SensitivityAnalysis,
    render_ablations,
    render_figure7,
    render_sensitivity,
    render_table7,
    render_transient,
    reproduce_figure7,
    reproduce_table7,
    reproduce_transient,
)

output_directory = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "results")
output_directory.mkdir(parents=True, exist_ok=True)

started = time.time()

print("== Table VII ==", flush=True)
table7 = reproduce_table7()
print(render_table7(table7), flush=True)
(output_directory / "table7.txt").write_text(render_table7(table7) + "\n")
(output_directory / "table7.json").write_text(
    json.dumps(
        [
            {
                "label": row.label,
                "availability": row.measured.availability,
                "nines": row.measured.nines,
                "paper_availability": row.paper_availability,
                "paper_nines": row.paper_nines,
            }
            for row in table7
        ],
        indent=2,
    )
)
print(f"[table7 done at {time.time() - started:.0f}s]", flush=True)

print("== Figure 7 ==", flush=True)
figure7 = reproduce_figure7()
print(render_figure7(figure7), flush=True)
(output_directory / "figure7.txt").write_text(render_figure7(figure7) + "\n")
(output_directory / "figure7.json").write_text(
    json.dumps(
        [
            {
                "city_pair": point.city_pair,
                "alpha": point.alpha,
                "disaster_mean_time_years": point.disaster_mean_time_years,
                "availability": point.availability,
                "nines": point.nines,
                "improvement_over_baseline": point.improvement_over_baseline,
            }
            for point in figure7
        ],
        indent=2,
    )
)
print(f"[figure7 done at {time.time() - started:.0f}s]", flush=True)

print("== Mission-window transient (E8) ==", flush=True)
transient = reproduce_transient()
print(render_transient(transient), flush=True)
(output_directory / "transient.txt").write_text(render_transient(transient) + "\n")
(output_directory / "transient.json").write_text(
    json.dumps(
        [
            {
                "vm_start_minutes": curve.vm_start_minutes,
                "times_hours": curve.times_hours.tolist(),
                "point_availability": curve.point_availability.tolist(),
                "interval_availability": curve.interval_availability.tolist(),
            }
            for curve in transient
        ],
        indent=2,
    )
)
print(f"[transient done at {time.time() - started:.0f}s]", flush=True)

print("== Sensitivity (E3) ==", flush=True)
sensitivity = SensitivityAnalysis().run()
print(render_sensitivity(sensitivity), flush=True)
(output_directory / "sensitivity.txt").write_text(render_sensitivity(sensitivity) + "\n")

print("== Ablations (E6) ==", flush=True)
ablations = AblationStudy().run_default_suite()
print(render_ablations(ablations), flush=True)
(output_directory / "ablations.txt").write_text(render_ablations(ablations) + "\n")

print(f"[all done in {time.time() - started:.0f}s]", flush=True)
