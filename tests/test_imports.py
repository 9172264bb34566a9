"""Every module of ``src/repro`` uses every name it imports.

A stdlib-``ast`` stand-in for a linter's unused-import rule: an imported
name counts as used when it is read anywhere in the module (as a name, the
root of an attribute chain, inside a quoted annotation) or listed in the
module's ``__all__``.  Package ``__init__`` modules are skipped, because
re-exporting is what their imports are for.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "repro"
MODULES = sorted(path for path in SOURCE.rglob("*.py") if path.name != "__init__.py")


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


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(
                    name.id for name in ast.walk(quoted) if isinstance(name, ast.Name)
                )
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant)
            )
    return used


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(path.relative_to(SOURCE)) for path in MODULES]
)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [
        f"line {line}: {name}"
        for name, line in sorted(imported_names(tree).items(), key=lambda item: item[1])
        if name not in used
    ]
    assert not unused, f"{path.relative_to(SOURCE)} imports unused names: {unused}"
