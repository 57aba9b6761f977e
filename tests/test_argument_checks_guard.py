"""Argument type checks live in ``emsolve.errors``; no other package module writes its own.

Only ``errors.py`` imports ``numbers`` (the integer and real checks), and only it
tests members with ``callable(getattr(...))`` (the structural check).
"""

import ast
from pathlib import Path

import pytest

import emsolve

MODULES = sorted(Path(emsolve.__file__).parent.glob("*.py"))
OTHERS = [path for path in MODULES if path.name != "errors.py"]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_modules(path):
    """The top-level name of each module ``path`` imports; relative imports are the package's."""
    out = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            out.add(node.module.split(".")[0])
    return out


def member_checks(path):
    """The line of each ``callable(getattr(...))`` call in ``path``."""
    return [
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "callable"
        and node.args
        and isinstance(node.args[0], ast.Call)
        and getattr(node.args[0].func, "id", None) == "getattr"
    ]


def test_the_guard_sees_the_checks_in_errors():
    errors = Path(emsolve.errors.__file__)
    assert "numbers" in imported_modules(errors)
    assert len(member_checks(errors)) == 1
    assert {"ems.py", "models.py", "schedule.py", "solver.py"} <= {path.name for path in OTHERS}


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_only_errors_imports_numbers(path):
    assert "numbers" not in imported_modules(path)


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_only_errors_checks_members(path):
    assert member_checks(path) == []
