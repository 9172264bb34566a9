"""Case-study harness: Table VII, Figure 7, sensitivity and ablation experiments."""

from repro.casestudy.ablations import AblationResult, AblationStudy
from repro.casestudy.figure7 import (
    Figure7Point,
    best_configuration,
    figure7_grid,
    reproduce_figure7,
)
from repro.casestudy.grid import (
    CaseStudyGrid,
    deployment,
    evaluate_grid,
    scenario_case,
    scenario_cases,
)
from repro.casestudy.report import (
    render_ablations,
    render_figure7,
    render_grid,
    render_sensitivity,
    render_table7,
    render_transient,
)
from repro.casestudy.sensitivity import (
    COMPONENT_NAMES,
    SensitivityAnalysis,
    SensitivityEntry,
)
from repro.casestudy.table7 import (
    PAPER_TABLE_VII,
    Table7Row,
    distributed_rows,
    reproduce_table7,
    single_site_rows,
)
from repro.casestudy.transient import (
    DEFAULT_VM_START_MINUTES,
    TransientCurve,
    mission_grid,
    reproduce_transient,
    vm_start_specs,
)

__all__ = [
    "AblationResult",
    "AblationStudy",
    "Figure7Point",
    "best_configuration",
    "figure7_grid",
    "reproduce_figure7",
    "CaseStudyGrid",
    "deployment",
    "evaluate_grid",
    "scenario_case",
    "scenario_cases",
    "render_ablations",
    "render_figure7",
    "render_grid",
    "render_sensitivity",
    "render_table7",
    "render_transient",
    "DEFAULT_VM_START_MINUTES",
    "TransientCurve",
    "mission_grid",
    "reproduce_transient",
    "vm_start_specs",
    "COMPONENT_NAMES",
    "SensitivityAnalysis",
    "SensitivityEntry",
    "PAPER_TABLE_VII",
    "Table7Row",
    "distributed_rows",
    "reproduce_table7",
    "single_site_rows",
]
