"""Fast test of the repository benchmark on toy-size workloads.

    python -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def run_toy(workload: str, trace: int, *extra: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "7",
            "--seconds", "1",
            "--trace", str(trace),
            "--toy",
            *extra,
        ],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_emits_every_metric_with_its_unit(workload, trace):
    result = run_toy(workload, trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert all(
        isinstance(metric["value"], (int, float)) for metric in result["metrics"].values()
    )


def test_perturbed_reference_value_counts_in_fail_frac(tmp_path):
    table = json.loads(workloads.REFERENCE.read_text())
    case = workloads.scenarios("sweep-warm", 7, toy=True)[0].label
    table["sweep-warm"][case] += 1e-6
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(table))
    result = run_toy("sweep-warm", 0, "--reference", str(perturbed))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["pass_frac"]["value"] == pytest.approx(
        1 - result["failed"] / result["attempted"]
    )
