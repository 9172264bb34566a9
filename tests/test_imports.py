"""Import contracts of ``src/repro``.

Every module uses every name it imports.  A stdlib-``ast`` stand-in for a
linter's unused-import rule: an imported name counts as used when it is read
anywhere in the module (as a name, the root of an attribute chain, inside a
quoted annotation) or listed in the module's ``__all__``.  Package
``__init__`` modules are held to the same rule, so a re-export must be
declared in ``__all__``, and every name ``__all__`` lists must be bound.

A run loads no scipy submodule it does not execute.  The grid entry point
and ``repro transient``, each imported and run once in a fresh interpreter,
leave the heavy scipy submodules that only simulation and quadrature call
out of ``sys.modules``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(SOURCE.rglob("*.py"))
MODULE_IDS = [str(path.relative_to(SOURCE)) for path in MODULES]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of the module -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation expression of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def exported_names(tree: ast.Module) -> list[str]:
    """The names the module's ``__all__`` lists (none without one)."""
    return [
        element.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        for element in ast.walk(node.value)
        if isinstance(element, ast.Constant)
    ]


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(
                    name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)
                )
    used.update(exported_names(tree))
    return used


def bound_names(tree: ast.Module) -> set[str]:
    """Names the module binds at its top level."""
    bound = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(
                target.id for target in targets if isinstance(target, ast.Name)
            )
    return bound


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [
        f"line {line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda item: item[1])
        if name not in used
    ]
    assert not unused, f"{path.relative_to(SOURCE)} imports unused names: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=MODULE_IDS)
def test_every_exported_name_is_bound(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unbound = sorted(set(exported_names(tree)) - bound_names(tree))
    assert not unbound, f"{path.relative_to(SOURCE)} exports unbound names: {unbound}"


#: scipy submodules that no grid or transient run executes; each costs
#: 0.05-0.7 s to import.
UNEXECUTED_SCIPY = (
    "scipy.stats",
    "scipy.integrate",
    "scipy.optimize",
    "scipy.spatial",
    "scipy.interpolate",
    "scipy.ndimage",
)

GRID_RUN = f"""
import json, sys
import repro.cli
from repro.casestudy.grid import evaluate_grid
from repro.core.scenarios import SingleDataCenterScenario

site = SingleDataCenterScenario(machines=1, label="one PM")
outcome = evaluate_grid([site], jobs=1, use_cache=False)
assert len(outcome.results) == 1 and not outcome.failures, outcome.failures
print(json.dumps([name for name in {UNEXECUTED_SCIPY!r} if name in sys.modules]))
"""

TRANSIENT_RUN = f"""
import json, sys
import repro.cli

arguments = ["transient", "--minutes", "5", "--window", "1", "--points", "2", "--no-cache"]
assert repro.cli.main(arguments) == 0
print(json.dumps([name for name in {UNEXECUTED_SCIPY!r} if name in sys.modules]))
"""

IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+\d+ \|( +)(\S+)$")


def importer(importtime: str, module: str) -> str:
    """The first module outside scipy whose import pulled ``module`` in.

    ``-X importtime`` prints a module when its import finishes, indented
    under the import that triggered it, so a module's importer is the next
    line with a smaller indent.  A module imported by a called function
    rather than by an import statement has no such line.
    """
    lines = [
        (len(match[1]), match[2])
        for match in map(IMPORT_LINE.match, importtime.splitlines())
        if match
    ]
    for index, (indent, name) in enumerate(lines):
        if name == module or name.startswith(module + "."):
            break
    else:
        return "an unrecorded import"
    for later_indent, later_name in lines[index + 1 :]:
        if later_indent < indent:
            if not later_name.startswith("scipy"):
                return later_name
            indent = later_indent
    return "a function call"


def unexecuted_scipy_loaded_by(script: str) -> dict[str, str]:
    """Each unexecuted scipy submodule ``script`` loaded -> its importer.

    ``script`` runs in a fresh ``-X importtime`` interpreter and prints the
    loaded names as its last line of output.
    """
    environment = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    child = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script],
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    loaded = json.loads(child.stdout.splitlines()[-1])
    return {module: importer(child.stderr, module) for module in loaded}


def test_a_grid_run_loads_no_scipy_submodule_it_does_not_execute():
    pulled_in = unexecuted_scipy_loaded_by(GRID_RUN)
    assert not pulled_in, f"a grid run imported: {pulled_in}"


def test_a_transient_run_loads_no_scipy_submodule_it_does_not_execute():
    pulled_in = unexecuted_scipy_loaded_by(TRANSIENT_RUN)
    assert not pulled_in, f"repro transient imported: {pulled_in}"
