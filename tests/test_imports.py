"""Every import in the package source is used, the base modules stay layered,
and MALA's random numbers have one draw path.

No linter ships with the project, so this parses each module with ast and
flags imported names that are never referenced.  A name listed in a
module's __all__ counts as used (that is how __init__ re-exports).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "thermoep").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_unused_and_honours_all():
    source = "import os\nimport sys\nfrom json import dumps, loads\n__all__ = ['loads']\nsys.exit()\n"
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def package_imports(path: Path) -> set[str]:
    """The thermoep modules a source file imports (relative imports only)."""
    tree = ast.parse(path.read_text())
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("module, allowed", [
    ("core", set()),
    ("models", {"core"}),
    ("sampler", {"core", "rng"}),
])
def test_base_modules_import_only_lower_layers(module, allowed):
    path = SOURCES[0].parent / f"{module}.py"
    assert package_imports(path) <= allowed


def test_trainer_draws_no_random_numbers_itself():
    """train.py leaves MALA's draws to sampler.block_draws: one draw path for both."""
    tree = ast.parse((SOURCES[0].parent / "train.py").read_text())
    draws = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("standard_normal", "random")]
    assert draws == []
